"""Command-line interface for the AutoQ reproduction.

Subcommands::

    autoq-repro verify --family bv --size 20          # run a Table 2 style verification
    autoq-repro simulate circuit.qasm --input 0011    # exact simulation of one basis input
    autoq-repro equivalence a.qasm b.qasm             # TA-based output-set comparison
    autoq-repro bughunt a.qasm b.qasm                 # incremental bug hunt (Section 7.2)
    autoq-repro bughunt a.qasm --inject-seed 5        # hunt against a freshly mutated copy
    autoq-repro generate --family ghz --size 8 out.qasm   # dump a benchmark circuit as QASM
    autoq-repro inject a.qasm buggy.qasm --seed 7     # write a mutated copy (one extra gate)
    autoq-repro stats a.qasm                          # circuit summary and gate histogram
    autoq-repro export-ta --family bv --size 6 --which post out.timbuk
                                                      # dump a condition automaton (Timbuk)
    autoq-repro baselines a.qasm b.qasm               # run every baseline checker on a pair
    autoq-repro campaign --family grover --mutants 100 --workers 4
                                                      # parallel bug-hunting campaign
    autoq-repro campaign --matrix sweep.toml --workers 4
                                                      # families x sizes x modes sweep
    autoq-repro campaign --families grover,bv --sizes 2-4 --modes hybrid,composition
                                                      # the same, from inline flags
    autoq-repro campaign --resume mx-b123be7f30a4     # continue an interrupted sweep
    autoq-repro campaign --join mx-b123be7f30a4       # attach as an extra fabric worker
    autoq-repro campaign ls                           # list campaigns in the manifest dir
    autoq-repro fuzz --budget 60 --seed 0             # differential fuzzing of the engine
    autoq-repro fuzz --corpus corpus/                 # ... storing minimized divergences
    autoq-repro fuzz replay corpus/                   # re-verify the regression corpus
    autoq-repro cache stats                           # automaton store + result cache usage
    autoq-repro cache gc --max-bytes 100000000        # shrink the store to a byte budget
    autoq-repro cache clear                           # drop every automaton-store entry
    autoq-repro serve --port 8642                     # verification service daemon (HTTP + JSON)
    autoq-repro verify --family bv --size 20 --server http://127.0.0.1:8642
                                                      # run a subcommand on a running daemon

The CLI is a thin adapter over the typed service layer (:mod:`repro.api`):
each subcommand parses its flags into a ``Problem``, runs it through a
``Session`` (which owns the worker count, cache and store configuration),
and formats the typed ``Result``.  Because of that, **every** subcommand
accepts ``--json``, which prints the result as a versioned JSON document
(``api_version`` + ``kind`` envelope, see ``docs/api.md``) instead of the
text report — the same schema campaign JSONL records use, and the output
round-trips through ``repro.api.Result.from_json`` unchanged.  Under
``--json``, *failures* are documents too: every error path prints a
versioned ``error`` envelope (kind ``"error"``: slug, message, exit code)
on stdout, so machine callers never parse stderr.  Each subcommand only
returns its typed result (printing its text report) or raises; :func:`main`
is the one boundary that turns a raised failure into that envelope or the
``error: …`` stderr line, and it always exits with the result's own code.

The problem subcommands (verify / simulate / equivalence / bughunt /
campaign) also accept ``--server URL`` (default: ``$AUTOQ_REPRO_SERVER``
when set), which sends the problem document to a running ``serve`` daemon
(see ``docs/service.md``) instead of analysing in-process — same flags,
same output, but the daemon's warm gate memo and store answer repeated
queries far faster than a cold process.

All commands print a short human-readable report to stdout and exit with a
non-zero status when a property is violated / a bug is found, so they can be
scripted.  The exception is ``campaign``, whose *purpose* is catching mutants:
it exits 0 when the sweep completes (however many mutants were violated) and
non-zero only when the sweep cannot be trusted — jobs crashed, the unmutated
reference circuit itself violates the specification, or the configuration is
invalid; read the violation counts from its JSONL report.  ``campaign`` streams one JSON line
per verified mutant into that report file and caches verdicts on disk, so
re-running the same campaign is nearly free.

``campaign`` has two shapes.  With ``--family`` it sweeps mutants of ONE
family instance (the PR-1 workflow).  With ``--matrix <spec.toml>``, inline
``--families``/``--sizes``/``--modes`` flags, or ``--resume <id>`` it runs a
whole benchmark *matrix*: every (family, size, mode) cell becomes its own
campaign, cells run cheapest-first over a shared worker pool, per-cell JSONL
reports land under ``--report-dir``, and the sweep is recorded in a manifest
(``--manifest-dir``) keyed by the campaign id printed at the start.  Every
cell is claimed and published through a lease-based job queue next to the
manifest, so Ctrl-C loses at most the running cell and ``campaign --resume
<id>`` finishes the sweep without re-verifying completed cells.  ``campaign
ls`` lists every manifest in the manifest directory with its per-verdict cell
counts, the owner and heartbeat age of the freshest claim, the maximum
per-cell attempt count, and whether ``--resume`` would pick up remaining
work — all read from the queue, so cells held or finished by joiners count.

A running matrix sweep is also a **distributed campaign** (see
``docs/distributed.md``): ``campaign --join <id>`` from any process sharing
the manifest directory attaches as an extra worker — it drains claimable
cells from the queue, writes its own per-cell JSONL reports, and publishes
idempotent completion records the coordinating sweep merges into
``summary.json``.  Kill a joiner at any point: its leases expire
(``$AUTOQ_REPRO_LEASE_TTL``, immediately for a dead same-host pid) and the
surviving workers steal and finish its cells.

``verify`` and ``campaign`` accept ``--profile``, which prints the per-phase
engine breakdown (tag/terms/bin/untag for the composition pipeline, plus
permutation, reduce, and on-disk store time) after the run; campaign JSONL
records always carry the same breakdown under ``statistics.phase_seconds``.

Campaigns additionally share a cross-process **automaton store** (see
``docs/caching.md``): reduced composition-encoded gate applications are
content-addressed on disk under ``$AUTOQ_REPRO_CACHE_DIR/store`` (or
``~/.cache/autoq-repro/store``) so pool workers — and entirely separate
campaign runs — reuse each other's circuit prefixes.  ``--store-dir`` relocates it, ``--no-store`` disables it
for one run, and the ``cache`` subcommand (``stats`` / ``gc --max-bytes`` /
``clear``) inspects and maintains it.

``fuzz`` (see ``docs/fuzzing.md``) differentially fuzzes the engine itself:
seeded mutant circuits are checked across all engine modes against the exact
simulator baselines, and the boolean TA layer against brute-force tree
enumeration.  Every divergence is shrunk to a local minimum and stored as a
content-addressed JSON entry in the ``--corpus`` directory (default:
``$AUTOQ_REPRO_FUZZ_CORPUS`` when set); ``fuzz replay <dir>`` re-executes
every committed entry as a regression gate, as does ``campaign --corpus``
before paying for a mutant sweep.  ``fuzz`` exits non-zero exactly when a
divergence (or replay regression) was found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .api import (
    BugHuntProblem,
    CampaignProblem,
    CircuitSource,
    ConditionSpec,
    EquivalenceProblem,
    ErrorResult,
    FuzzProblem,
    Result,
    Session,
    SessionConfig,
    SimulateProblem,
    ToolResult,
    VerifyProblem,
)
from .api.results import ServiceError
from .baselines import (
    PathSumChecker,
    RandomStimuliChecker,
    StabilizerChecker,
    check_unitary_equivalence,
)
from .benchgen import build_family, family_names
from .campaign import (
    CampaignManifest,
    ManifestError,
    MatrixScheduler,
    MatrixSpec,
    default_cache_dir,
    default_manifest_dir,
    format_cell_table,
    list_campaign_ids,
    resolve_store_dir,
)
from .campaign.plan import MUTATION_KINDS
from .circuits import inject_random_gate, save_qasm_file
from .circuits.metrics import summarise as circuit_summary
from .core import AnalysisMode
from .dist.queue import JobQueue
from .faults import FaultPlan
from .ta.store import AutomatonStore
from .ta.timbuk import save_timbuk

__all__ = ["main", "build_parser"]


def _add_json_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--json", action="store_true",
        help="print the versioned machine-readable result document "
             "(api_version-stamped JSON, see docs/api.md) instead of the text report",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="autoq-repro",
        description="Automata-based verification and bug hunting for quantum circuits",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser("verify", help="verify a generated benchmark family")
    verify.add_argument("--family", choices=family_names(), required=True)
    verify.add_argument("--size", type=int, required=True, help="family parameter n")
    verify.add_argument("--mode", choices=AnalysisMode.ALL, default=AnalysisMode.HYBRID)
    verify.add_argument("--profile", action="store_true",
                        help="print the per-phase engine breakdown (tag/terms/bin/reduce)")

    simulate = subparsers.add_parser("simulate", help="exact simulation of one basis input")
    simulate.add_argument("circuit", help="OpenQASM 2.0 file")
    simulate.add_argument("--input", default=None, help="basis input bits (default all zeros)")

    equivalence = subparsers.add_parser(
        "equivalence", help="compare the output-state sets of two circuits over all basis inputs"
    )
    equivalence.add_argument("first", help="OpenQASM 2.0 file")
    equivalence.add_argument("second", help="OpenQASM 2.0 file")
    equivalence.add_argument("--mode", choices=AnalysisMode.ALL, default=AnalysisMode.HYBRID)
    equivalence.add_argument(
        "--single-input", default=None, help="restrict the comparison to one basis input"
    )

    bughunt = subparsers.add_parser("bughunt", help="incremental bug hunt between two circuits")
    bughunt.add_argument("first", help="OpenQASM 2.0 file (reference)")
    bughunt.add_argument("second", nargs="?", default=None, help="OpenQASM 2.0 file (candidate)")
    bughunt.add_argument("--inject-seed", type=int, default=None,
                         help="mutate the reference instead of reading a second file")
    bughunt.add_argument("--mode", choices=AnalysisMode.ALL, default=AnalysisMode.HYBRID)
    bughunt.add_argument("--seed", type=int, default=0)
    bughunt.add_argument("--max-iterations", type=int, default=None)

    generate = subparsers.add_parser("generate", help="dump a benchmark circuit as OpenQASM 2.0")
    generate.add_argument("--family", choices=family_names(), required=True)
    generate.add_argument("--size", type=int, required=True, help="family parameter n")
    generate.add_argument("output", help="path of the QASM file to write")

    inject = subparsers.add_parser("inject", help="write a copy with one random extra gate")
    inject.add_argument("circuit", help="OpenQASM 2.0 file")
    inject.add_argument("output", help="path of the mutated QASM file to write")
    inject.add_argument("--seed", type=int, default=0)

    stats = subparsers.add_parser("stats", help="print a circuit summary and gate histogram")
    stats.add_argument("circuit", help="OpenQASM 2.0 file")

    export_ta = subparsers.add_parser(
        "export-ta", help="dump a benchmark pre- or post-condition automaton in Timbuk format"
    )
    export_ta.add_argument("--family", choices=family_names(), required=True)
    export_ta.add_argument("--size", type=int, required=True, help="family parameter n")
    export_ta.add_argument("--which", choices=("pre", "post"), default="pre")
    export_ta.add_argument("output", help="path of the Timbuk file to write")

    baselines = subparsers.add_parser(
        "baselines", help="run every baseline equivalence checker on a pair of circuits"
    )
    baselines.add_argument("first", help="OpenQASM 2.0 file")
    baselines.add_argument("second", help="OpenQASM 2.0 file")
    baselines.add_argument("--stimuli", type=int, default=16, help="number of random stimuli")
    baselines.add_argument("--seed", type=int, default=0)

    campaign = subparsers.add_parser(
        "campaign",
        help="parallel bug-hunting campaign: sweep mutants of one family, or a whole "
             "families x sizes x modes matrix (--matrix / --families / --resume); "
             "'campaign ls' lists the manifests",
    )
    campaign.add_argument("action", nargs="?", choices=("ls",), default=None,
                          help="'ls' lists every campaign manifest (cells by verdict, "
                               "resumability) instead of running a sweep")
    campaign.add_argument("--family", choices=family_names(), default=None,
                          help="single-campaign mode: the one family to sweep")
    campaign.add_argument("--size", type=int, default=None,
                          help="family parameter n (default: a per-family campaign size)")
    campaign.add_argument("--mutants", type=int, default=None,
                          help="mutated copies to verify, per family instance "
                               "(default: 100, or 25 per matrix cell)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (1 = run everything in-process)")
    campaign.add_argument("--mode", choices=AnalysisMode.ALL, default=AnalysisMode.HYBRID,
                          help="engine mode for single-campaign mode (matrix sweeps "
                               "use --modes)")
    campaign.add_argument("--seed", type=int, default=None,
                          help="base seed of the mutation plan (default 0)")
    campaign.add_argument("--mutations", default=None,
                          help=f"comma-separated mutation kinds from {MUTATION_KINDS} "
                               "(default: insert)")
    campaign.add_argument("--report", default="campaign_report.jsonl",
                          help="single-campaign JSONL report path (one line per job)")
    campaign.add_argument("--cache-dir", default=None,
                          help="result cache directory (default: $AUTOQ_REPRO_CACHE_DIR "
                               "or ~/.cache/autoq-repro/campaign)")
    campaign.add_argument("--no-cache", action="store_true",
                          help="disable the persistent result cache (and the automaton "
                               "store, unless --store-dir is given) for this run")
    campaign.add_argument("--store-dir", default=None,
                          help="cross-process automaton store directory shared by all "
                               "workers (default: <cache-dir>/store, i.e. "
                               "$AUTOQ_REPRO_CACHE_DIR/store or "
                               "~/.cache/autoq-repro/store)")
    campaign.add_argument("--no-store", action="store_true",
                          help="disable the cross-process automaton store for this run")
    campaign.add_argument("--skip-reference", action="store_true",
                          help="do not verify the unmutated reference circuit")
    campaign.add_argument("--matrix", metavar="SPEC", default=None,
                          help="matrix mode: sweep spec file (TOML or JSON; see "
                               "examples/matrix_sweep.toml)")
    campaign.add_argument("--families", default=None,
                          help="matrix mode: comma-separated families to sweep "
                               "(overrides the spec file)")
    campaign.add_argument("--sizes", default=None,
                          help="matrix mode: sizes for every family, e.g. '3', '2-4' "
                               "or '2,4' (per-family sizes: use a spec file)")
    campaign.add_argument("--modes", default=None,
                          help="matrix mode: comma-separated engine modes "
                               f"from {AnalysisMode.ALL}")
    campaign.add_argument("--join", metavar="ID", default=None,
                          help="attach to the campaign with this id as an extra fabric "
                               "worker: claim cells from its lease queue, publish "
                               "completions, never write the manifest (the coordinating "
                               "sweep merges them; see docs/distributed.md)")
    campaign.add_argument("--resume", metavar="ID", default=None,
                          help="resume the campaign with this id: completed cells are "
                               "skipped, interrupted ones re-queued")
    campaign.add_argument("--campaign-id", default=None,
                          help="matrix mode: explicit campaign id (default: derived "
                               "from the spec fingerprint)")
    campaign.add_argument("--report-dir", default="campaign_reports",
                          help="matrix mode: directory for per-cell JSONL reports and "
                               "the summary.json roll-up")
    campaign.add_argument("--manifest-dir", default=None,
                          help="matrix mode: manifest directory (default: "
                               "$AUTOQ_REPRO_MANIFEST_DIR or "
                               "~/.cache/autoq-repro/manifests)")
    campaign.add_argument("--profile", action="store_true",
                          help="print the aggregated per-phase engine breakdown of the "
                               "sweep (freshly verified jobs only)")
    campaign.add_argument("--corpus", default=None, metavar="DIR",
                          help="single-campaign mode: replay this fuzz regression corpus "
                               "as a gate before the sweep (default: "
                               "$AUTOQ_REPRO_FUZZ_CORPUS when set); any replay failure "
                               "fails the campaign")
    campaign.add_argument("--faults", default=None, metavar="PLAN",
                          help="deterministic fault-injection plan for chaos testing: "
                               "inline JSON (starts with '{') or a JSON plan file "
                               "(default: $AUTOQ_REPRO_FAULTS when set; see "
                               "docs/robustness.md)")

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing of the engine: seeded mutants checked across "
             "modes against exact baselines, boolean TA layer against brute "
             "force; 'fuzz replay <dir>' re-verifies the regression corpus",
    )
    fuzz.add_argument("action", nargs="?", choices=("replay",), default=None,
                      help="'replay' re-executes every corpus entry as a regression "
                           "gate instead of fuzzing")
    fuzz.add_argument("corpus_path", nargs="?", default=None,
                      help="replay: the corpus directory to re-verify (default: "
                           "--corpus / $AUTOQ_REPRO_FUZZ_CORPUS)")
    fuzz.add_argument("--budget", type=float, default=10.0,
                      help="fuzzing time budget in seconds (default 10)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="run seed; the whole case stream is deterministic under it")
    fuzz.add_argument("--cases", type=int, default=None,
                      help="stop after this many cases even if budget remains")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="store minimized divergences in this corpus directory "
                           "(default: $AUTOQ_REPRO_FUZZ_CORPUS when set)")
    fuzz.add_argument("--checks", default=None,
                      help="comma-separated oracle families from "
                           "('boolean', 'cross-mode') (default: both)")
    fuzz.add_argument("--modes", default=None,
                      help="comma-separated engine modes for the cross-mode oracle "
                           f"from {AnalysisMode.ALL} (default: all)")
    fuzz.add_argument("--mutations", default=None,
                      help=f"comma-separated mutation kinds from {MUTATION_KINDS} "
                           "(default: the full taxonomy)")
    fuzz.add_argument("--max-qubits", type=int, default=4,
                      help="largest seed-circuit width to generate (default 4)")
    fuzz.add_argument("--max-gates", type=int, default=10,
                      help="largest seed-circuit gate count to generate (default 10)")
    fuzz.add_argument("--path-sum", action="store_true",
                      help="also evaluate the (slow) path-sum baseline in the "
                           "cross-mode oracle")

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain the on-disk caches: 'stats' reports the "
             "automaton store and campaign result cache, 'gc' shrinks the store "
             "to a byte budget, 'clear' drops every store entry",
    )
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: usage report; gc: evict least-recently-used "
                            "store entries down to --max-bytes; clear: delete "
                            "every automaton-store entry")
    cache.add_argument("--store-dir", default=None,
                       help="automaton store directory (default: "
                            "<--cache-dir>/store, else "
                            "$AUTOQ_REPRO_CACHE_DIR/store or "
                            "~/.cache/autoq-repro/store)")
    cache.add_argument("--cache-dir", default=None,
                       help="campaign result cache directory, reported by 'stats'; "
                            "the store is its store/ subdirectory unless "
                            "--store-dir says otherwise, as for 'campaign' "
                            "(default: $AUTOQ_REPRO_CACHE_DIR or "
                            "~/.cache/autoq-repro/campaign)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="gc: target store size in bytes (required for gc)")

    serve = subparsers.add_parser(
        "serve",
        help="run the verification service daemon: answer problem documents "
             "over HTTP + JSON from one warm runtime (see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: loopback only)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 binds an OS-assigned port, printed at startup)")
    serve.add_argument("--workers", type=int, default=4,
                       help="request worker threads sharing the warm runtime")
    serve.add_argument("--timeout", type=float, default=300.0,
                       help="per-request seconds before the daemon answers 504 "
                            "(the work still runs to completion)")
    serve.add_argument("--max-in-flight", type=int, default=8,
                       help="admission budget: concurrent requests beyond this "
                            "are refused with 429")
    serve.add_argument("--cache-dir", default=None,
                       help="campaign result cache directory (default: "
                            "$AUTOQ_REPRO_CACHE_DIR or ~/.cache/autoq-repro/campaign)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the campaign result cache (and the automaton "
                            "store, unless --store-dir is given)")
    serve.add_argument("--store-dir", default=None,
                       help="cross-process automaton store warmed by every request "
                            "(default: <cache-dir>/store)")
    serve.add_argument("--no-store", action="store_true",
                       help="disable the cross-process automaton store")

    for subparser in subparsers.choices.values():
        _add_json_flag(subparser)
    for name in ("verify", "simulate", "equivalence", "bughunt", "campaign"):
        subparsers.choices[name].add_argument(
            "--server", metavar="URL", default=None,
            help="send this problem to a running 'serve' daemon instead of "
                 "analysing in-process (default: $AUTOQ_REPRO_SERVER when set)",
        )
    return parser


def _format_phases(phase_seconds) -> str:
    """Render a per-phase timing dict as ``name=1.234s`` pairs, slowest first."""
    if not phase_seconds:
        return "(no per-phase timings recorded)"
    ordered = sorted(phase_seconds.items(), key=lambda item: (-item[1], item[0]))
    return "  ".join(f"{name}={seconds:.3f}s" for name, seconds in ordered)


def _print_record(record) -> None:
    """One streamed campaign verdict as a text line."""
    print(f"  [{record['job_id']}] {record['verdict']}")


def _answer(args, problem) -> Result:
    """The typed result of ``problem``: run in-process, or on the daemon that
    ``--server`` (else ``$AUTOQ_REPRO_SERVER``) names.  A daemon's ``error``
    document arrives as :class:`~repro.api.results.ServiceError`."""
    from .api.client import ServiceClient, default_server_url

    server = args.server or default_server_url()
    if server is None:
        with _session(args) as session:
            return session.run(problem)
    client = ServiceClient(server)
    if isinstance(problem, CampaignProblem):
        return client.run_campaign(problem, on_record=None if args.json else _print_record)
    return client.run(problem)


def _session(args) -> Session:
    """The session a command's runtime-configuration flags select."""
    faults = getattr(args, "faults", None)
    return Session(SessionConfig(
        cache_dir="" if getattr(args, "no_cache", False) else getattr(args, "cache_dir", None),
        store_dir="" if getattr(args, "no_store", False) else getattr(args, "store_dir", None),
        workers=getattr(args, "workers", 1),
        fault_plan=FaultPlan.parse(faults) if faults else None,
    ))


def _load_circuit(path: str):
    """The circuit in a QASM file; ``InvalidProblem`` when it cannot be read."""
    circuit, _ = CircuitSource.from_path(path).resolve()
    return circuit


# --------------------------------------------------------------- problem runs


def _command_verify(args) -> Result:
    result = _answer(args, VerifyProblem(
        circuit=CircuitSource.from_family(args.family, args.size), mode=args.mode
    ))
    if args.json:
        return result
    print(f"benchmark: {result.benchmark} ({result.description})")
    print(f"circuit:   {result.circuit_qubits} qubits, {result.circuit_gates} gates")
    print(f"pre  TA:   {result.precondition_summary}")
    print(f"output TA: {result.output_summary}")
    print(f"analysis:  {result.statistics.analysis_seconds:.2f}s, "
          f"comparison: {result.comparison_seconds:.2f}s")
    if args.profile:
        print(f"phases:    {_format_phases(result.statistics.phase_seconds)}")
    print(f"verdict:   {'HOLDS' if result.holds else 'VIOLATED'}")
    if result.witness is not None:
        print(f"witness ({result.witness_kind}): {result.witness}")
    return result


def _command_simulate(args) -> Result:
    result = _answer(args, SimulateProblem(
        circuit=CircuitSource.from_path(args.circuit), input_bits=args.input
    ))
    if args.json:
        return result
    print(f"circuit: {result.num_qubits} qubits, {result.num_gates} gates")
    for entry in result.amplitudes:
        approx = complex(entry["approx"][0], entry["approx"][1])
        print(f"  |{entry['basis']}>  {entry['amplitude']}   ({approx:.4f})")
    return result


def _command_equivalence(args) -> Result:
    inputs = None
    if args.single_input is not None:
        inputs = ConditionSpec(kind="basis", value=args.single_input)
    result = _answer(args, EquivalenceProblem(
        first=CircuitSource.from_path(args.first),
        second=CircuitSource.from_path(args.second),
        inputs=inputs,
        mode=args.mode,
    ))
    if args.json:
        return result
    print(f"analysis: {result.analysis_seconds:.2f}s, comparison: {result.comparison_seconds:.2f}s")
    if result.non_equivalent:
        print(f"NOT EQUIVALENT ({result.witness_side}); witness: {result.witness}")
    else:
        print("output sets coincide (circuits may be equivalent)")
    return result


def _command_bughunt(args) -> Result:
    if args.second is None and args.inject_seed is None:
        raise ValueError("provide a second circuit or --inject-seed")
    result = _answer(args, BugHuntProblem(
        reference=CircuitSource.from_path(args.first),
        candidate=None if args.second is None else CircuitSource.from_path(args.second),
        inject_seed=args.inject_seed if args.second is None else None,
        mode=args.mode,
        seed=args.seed,
        max_iterations=args.max_iterations,
    ))
    if args.json:
        return result
    if result.injected_mutation is not None:
        print(f"injected bug: {result.injected_mutation}")
    print(f"iterations: {result.iterations}, time: {result.total_seconds:.2f}s")
    if result.bug_found:
        print(f"BUG FOUND; witness ({result.witness_side}): {result.witness}")
    else:
        print("no difference found within the iteration budget")
    return result


# ------------------------------------------------------------- tool commands


def _command_generate(args) -> ToolResult:
    benchmark = build_family(args.family, args.size)
    save_qasm_file(benchmark.circuit, args.output)
    if not args.json:
        print(f"wrote {benchmark.name}: {benchmark.circuit.num_qubits} qubits, "
              f"{benchmark.circuit.num_gates} gates -> {args.output}")
    return ToolResult(tool="generate", data={
        "benchmark": benchmark.name,
        "family": args.family,
        "size": args.size,
        "qubits": benchmark.circuit.num_qubits,
        "gates": benchmark.circuit.num_gates,
        "output": args.output,
    })


def _command_inject(args) -> ToolResult:
    mutated, mutation = inject_random_gate(_load_circuit(args.circuit), seed=args.seed)
    save_qasm_file(mutated, args.output)
    if not args.json:
        print(f"injected bug: {mutation}")
        print(f"wrote mutated circuit ({mutated.num_gates} gates) -> {args.output}")
    return ToolResult(tool="inject", data={
        "mutation": str(mutation),
        "seed": args.seed,
        "gates": mutated.num_gates,
        "output": args.output,
    })


def _command_stats(args) -> ToolResult:
    summary = circuit_summary(_load_circuit(args.circuit))
    result = ToolResult(tool="stats", data={"circuit": args.circuit, **summary})
    if args.json:
        return result
    print(f"circuit:  {args.circuit}")
    print(f"qubits:   {summary['qubits']}")
    print(f"gates:    {summary['gates']}", end="")
    if summary["gates_decomposed"] != summary["gates"]:
        print(f"  ({summary['gates_decomposed']} after swap/cswap decomposition)")
    else:
        print()
    print(f"depth:    {summary['depth']}")
    print(f"T-count:  {summary['t_count']}   two-qubit gates: {summary['two_qubit_count']}")
    for kind, count in summary["histogram"].items():
        print(f"  {kind:<6} {count}")
    print(f"gates handled by the permutation-based encoding:  {summary['permutation_gates']}")
    print(f"gates needing the composition-based encoding:     {summary['composition_gates']}")
    return result


def _command_export_ta(args) -> ToolResult:
    benchmark = build_family(args.family, args.size)
    automaton = benchmark.precondition if args.which == "pre" else benchmark.postcondition
    save_timbuk(automaton, args.output, name=f"{args.family}_{args.size}_{args.which}")
    if not args.json:
        print(f"wrote {args.which}-condition TA of {benchmark.name} "
              f"({automaton.size_summary()}) -> {args.output}")
    return ToolResult(tool="export-ta", data={
        "benchmark": benchmark.name,
        "which": args.which,
        "summary": automaton.size_summary(),
        "states": automaton.num_states,
        "transitions": automaton.num_transitions,
        "output": args.output,
    })


def _command_baselines(args) -> ToolResult:
    first = _load_circuit(args.first)
    second = _load_circuit(args.second)
    data = {}
    any_difference = False

    pathsum = PathSumChecker().check_equivalence(first, second)
    data["pathsum"] = pathsum.verdict
    stabilizer = StabilizerChecker().check_equivalence(first, second)
    data["stabilizer"] = {"verdict": stabilizer.verdict.value, "reason": stabilizer.reason}
    stimuli = RandomStimuliChecker(num_stimuli=args.stimuli, seed=args.seed).check_equivalence(
        first, second
    )
    data["stimuli"] = stimuli.verdict
    data["unitary"] = None
    if max(first.num_qubits, second.num_qubits) <= 10:
        unitary = check_unitary_equivalence(first, second)
        data["unitary"] = "equal" if unitary.equivalent else "not_equal"
        any_difference |= not unitary.equivalent
    any_difference |= pathsum.verdict == "not_equal"
    any_difference |= stabilizer.verdict.value == "not_equal"
    any_difference |= stimuli.verdict == "not_equal"
    data["any_difference"] = any_difference
    if not args.json:
        print(f"path-sum:    {data['pathsum']}")
        print(f"stabilizer:  {data['stabilizer']['verdict']} ({data['stabilizer']['reason']})")
        print(f"stimuli:     {data['stimuli']}")
        if data["unitary"] is not None:
            print(f"unitary:     {data['unitary']}")
    return ToolResult(tool="baselines", data=data)


def _result_cache_entries(cache_dir: str) -> int:
    """The verdicts in a campaign result cache (0 when it does not exist)."""
    try:
        return sum(1 for name in os.listdir(cache_dir) if name.endswith(".json"))
    except OSError:
        return 0


def _command_cache(args) -> ToolResult:
    """``cache stats`` / ``cache gc --max-bytes`` / ``cache clear``."""
    # the store a campaign with the same --cache-dir/--store-dir would use
    store_dir = resolve_store_dir(args.cache_dir or None, args.store_dir or None)
    if args.action == "gc" and args.max_bytes is None:
        raise ValueError("cache gc needs --max-bytes <target size>")
    if args.action == "stats":
        # pure inspection: must not create directories, nor trigger the
        # schema-stamp invalidation that opening a store performs
        stats = AutomatonStore.disk_stats(store_dir)
        cache_dir = args.cache_dir or default_cache_dir()
        result_entries = _result_cache_entries(cache_dir)
        result = ToolResult(tool="cache-stats", data={
            "store": stats,
            "result_cache": {"directory": cache_dir, "entries": result_entries},
        })
        if args.json:
            return result
        print(f"store:        {stats['directory']}")
        print(f"schema:       store v{stats['store_schema']}, payload v{stats['payload_schema']}")
        if stats["disk_stamp"] is not None and stats["disk_stamp"] != {
            "store_schema": stats["store_schema"],
            "payload_schema": stats["payload_schema"],
        }:
            print(f"stamp:        {stats['disk_stamp']} (INCOMPATIBLE — next open wipes "
                  "the entries)")
        print(f"entries:      {stats['entries']} ({stats['total_bytes']} bytes"
              + (f", {stats['temp_files']} orphaned temp file(s)"
                 if stats["temp_files"] else "") + ")")
        if stats.get("quarantined_entries"):
            print(f"quarantine:   {stats['quarantined_entries']} corrupt entry(ies) "
                  "set aside (see <store>/quarantine/)")
        print(f"result cache: {cache_dir} ({result_entries} entry(ies))")
        return result
    store = AutomatonStore(store_dir)
    if args.action == "gc":
        outcome = store.gc(args.max_bytes)
        if not args.json:
            print(f"store:    {store_dir}")
            print(f"evicted:  {outcome['removed_entries']} entry(ies) "
                  f"({outcome['removed_bytes']} bytes)")
            print(f"remains:  {outcome['remaining_bytes']} bytes "
                  f"(budget {args.max_bytes})")
        return ToolResult(tool="cache-gc", data={
            "store": store_dir, "budget_bytes": args.max_bytes, **outcome,
        })
    removed = store.clear()
    if not args.json:
        print(f"store:    {store_dir}")
        print(f"cleared:  {removed} entry(ies)")
    return ToolResult(tool="cache-clear", data={
        "store": store_dir, "removed_entries": removed,
    })


# ----------------------------------------------------------------- campaigns


def _matrix_spec_from_args(args):
    """Assemble (spec, campaign_id, resume?) from a spec file, inline flags,
    and/or a manifest to resume (flags override the file; a bare ``--resume``
    rebuilds the spec from the manifest alone)."""
    overrides = {
        "families": args.families,
        "sizes": args.sizes,
        "modes": args.modes,
        "mutants": args.mutants,
        "mutations": args.mutations,
        "seed": args.seed,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.skip_reference:
        overrides["include_reference"] = False

    if args.matrix is None and "families" not in overrides:
        # no spec source except the manifest: plain resume
        if args.resume is None:
            raise ValueError(
                "campaign needs --family (single sweep), or --matrix/--families "
                "(matrix sweep), or --resume <id>"
            )
        if overrides:
            raise ValueError(
                f"cannot change {sorted(overrides)} while resuming from a manifest "
                "alone; pass the original --matrix spec if you must re-check it"
            )
        return None, args.resume, True

    if args.campaign_id and args.resume and args.campaign_id != args.resume:
        raise ValueError(
            f"--campaign-id {args.campaign_id!r} conflicts with --resume "
            f"{args.resume!r}; pass a single id"
        )
    mapping = MatrixSpec.from_file(args.matrix).to_dict() if args.matrix else {}
    mapping.update(overrides)
    spec = MatrixSpec.from_mapping(mapping)
    campaign_id = args.campaign_id or args.resume
    return spec, campaign_id, args.resume is not None


def _scheduler_options(args) -> dict:
    """The :class:`MatrixScheduler` keywords a sweep's or a joiner's flags select."""
    return dict(
        workers=args.workers,
        report_dir=args.report_dir,
        manifest_dir=args.manifest_dir,
        cache_dir="" if args.no_cache else args.cache_dir,
        store_dir="" if args.no_store else args.store_dir,
        fault_plan=FaultPlan.parse(args.faults) if args.faults else None,
    )


def _command_campaign_matrix(args) -> ToolResult:
    progress = (lambda message: None) if args.json else print
    spec, campaign_id, resume = _matrix_spec_from_args(args)
    if spec is None:
        scheduler = MatrixScheduler.resume(campaign_id, **_scheduler_options(args))
    else:
        scheduler = MatrixScheduler(spec, campaign_id=campaign_id, **_scheduler_options(args))
    progress(f"campaign:  {scheduler.campaign_id} "
             f"({len(scheduler.spec.cells())} cell(s), {args.workers} worker(s))")
    progress(f"manifest:  {scheduler.manifest_dir}")
    for family, mode in scheduler.spec.skipped_combinations():
        print(f"warning:   skipping {family} x {mode} (unsupported mode)", file=sys.stderr)
    result = scheduler.run(resume=resume, progress=progress)
    document = ToolResult(tool="campaign-matrix", data={
        "campaign_id": result.campaign_id,
        "manifest_path": result.manifest_path,
        "summary_path": result.summary_path,
        "cells": result.rows,
        "totals": result.totals,
        "reused_cells": result.reused_cells,
        "skipped_combinations": [list(pair) for pair in result.skipped_combinations],
        "wall_seconds": result.wall_seconds,
        "trustworthy": result.trustworthy,
    })
    if args.json:
        return document
    print(format_cell_table(result.rows, result.totals))
    if result.reused_cells:
        print(f"resumed:   {result.reused_cells} cell(s) reused from the queue")
    if result.totals.get("store_hits") or result.totals.get("store_publishes"):
        print(f"store:     {result.totals['store_hits']} hit(s), "
              f"{result.totals['store_misses']} miss(es), "
              f"{result.totals['store_publishes']} publish(es)")
    if (result.totals.get("faults_injected") or result.totals.get("retries")
            or result.totals.get("quarantined_entries")
            or result.totals.get("store_disabled")):
        degraded = (", store DISABLED after repeated faults"
                    if result.totals.get("store_disabled") else "")
        print(f"faults:    {result.totals.get('faults_injected', 0)} injected, "
              f"{result.totals.get('retries', 0)} retry(ies), "
              f"{result.totals.get('quarantined_entries', 0)} quarantined{degraded}")
    if args.profile:
        phase_totals: dict = {}
        for row in result.rows:
            for phase, seconds in (row.get("phase_seconds") or {}).items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
        print(f"phases:    {_format_phases(phase_totals)}")
    print(f"time:      {result.wall_seconds:.2f}s wall this run")
    print(f"reports:   {result.summary_path}")
    for row in result.rows:
        if row["reference_violated"]:
            print(f"warning:   {row['cell']}: the UNMUTATED reference circuit violates "
                  "the specification — its mutant verdicts are suspect", file=sys.stderr)
    return document


def _command_campaign_join(args) -> ToolResult:
    """``campaign --join <id>``: drain an existing campaign's fabric queue."""
    progress = (lambda message: None) if args.json else print
    scheduler = MatrixScheduler.join(args.join, **_scheduler_options(args))
    progress(f"join:      {scheduler.campaign_id} as worker "
             f"{os.getpid()} ({args.workers} worker(s))")
    progress(f"manifest:  {scheduler.manifest_dir}")
    result = scheduler.run_join(progress=progress)
    document = ToolResult(tool="campaign-join", data={
        "campaign_id": result.campaign_id,
        "manifest_path": result.manifest_path,
        "queue_dir": result.queue_dir,
        "cells": result.rows,
        "totals": result.totals,
        "counters": result.counters,
        "cells_executed": result.cells_executed,
        "wall_seconds": result.wall_seconds,
        "trustworthy": result.trustworthy,
    })
    if args.json:
        return document
    if result.rows:
        print(format_cell_table(result.rows, result.totals))
    else:
        print("no claimable cells: the campaign is complete or every "
              "remaining cell is held by another live worker")
    counters = result.counters
    print(f"fabric:    {counters.get('cells_claimed', 0)} claim(s), "
          f"{counters.get('cells_stolen', 0)} stolen, "
          f"{counters.get('lease_renewals', 0)} renewal(s), "
          f"{counters.get('duplicates', 0)} duplicate completion(s), "
          f"{counters.get('conflicts', 0)} conflict(s)")
    print(f"time:      {result.wall_seconds:.2f}s wall this run")
    if counters.get("conflicts"):
        print("warning:   conflicting completion fingerprints — deterministic "
              "verification should make this impossible; inspect the queue "
              f"records under {result.queue_dir}", file=sys.stderr)
    return document


def _campaign_ls_row(directory: str, campaign_id: str, cell_ids: list) -> dict:
    """One ``campaign ls`` row, read from the campaign's lease queue."""
    states = JobQueue(directory, campaign_id).cell_states(cell_ids)
    counts = {"done": 0, "held": 0, "interrupted": 0, "pending": 0}
    totals = {"jobs": 0, "holds": 0, "violated": 0, "unsupported": 0, "errors": 0}
    freshest = None  # (heartbeat, state) of the freshest claim on an unfinished cell
    for state in states.values():
        counts[state.status] += 1
        summary = (state.result or {}).get("summary") or {}
        for key in totals:
            totals[key] += int(summary.get(key, 0) or 0)
        if state.status in ("held", "interrupted") and state.lease:
            try:
                beat = float(state.lease["heartbeat"])
            except (KeyError, TypeError, ValueError):
                continue
            if freshest is None or beat > freshest[0]:
                freshest = (beat, state)
    owner = None
    if freshest is not None:
        lease = freshest[1].lease
        owner = f"{lease.get('pid', '?')}@{lease.get('host', '?')}"
    return {
        "campaign_id": campaign_id,
        "cells_done": counts["done"],
        "cells_total": len(states),
        "cells_running": counts["held"] + counts["interrupted"],
        "cells_pending": counts["pending"],
        "complete": counts["done"] == len(states),
        # fabric/lease columns: who holds the freshest claim, how stale its
        # heartbeat is, and the worst per-cell claim count
        "owner": owner,
        "heartbeat_age": (None if freshest is None
                          else max(0.0, time.time() - freshest[0])),
        "owner_live": freshest is not None and freshest[1].status == "held",
        "attempts": max((state.attempts for state in states.values()), default=0),
        **totals,
    }


def _campaign_listing(directory: str):
    """``(rows, unreadable)``: one ``campaign ls`` row per readable manifest,
    and ``(campaign_id, error)`` for each manifest that cannot be read."""
    rows, unreadable = [], []
    for campaign_id in list_campaign_ids(directory):
        try:
            manifest = CampaignManifest.load(directory, campaign_id)
        except ManifestError as error:
            unreadable.append((campaign_id, str(error)))
            continue
        rows.append(_campaign_ls_row(directory, campaign_id, manifest.cell_ids))
    return rows, unreadable


def _command_campaign_ls(args) -> ToolResult:
    """``campaign ls``: list every manifest with cell counts by verdict."""
    directory = args.manifest_dir or default_manifest_dir()
    listing, unreadable = _campaign_listing(directory)
    result = ToolResult(tool="campaign-ls", data={
        "manifest_dir": directory,
        "campaigns": listing,
        # corruption must be visible to document consumers, not stderr-only
        "unreadable": [
            {"campaign_id": campaign_id, "error": error}
            for campaign_id, error in unreadable
        ],
    })
    if args.json:
        for campaign_id, error in unreadable:
            print(f"{campaign_id:<24} (unreadable: {error})", file=sys.stderr)
        return result
    print(f"manifests: {directory}")
    if not listing and not unreadable:
        print("(no campaign manifests)")
        return result
    header = (f"{'campaign':<24} {'cells':>9} {'jobs':>7} {'holds':>7} "
              f"{'violated':>8} {'unsup':>6} {'errors':>6} {'owner':>16} "
              f"{'hb-age':>7} {'att':>4}  status")
    print(header)
    print("-" * len(header))
    for campaign_id, error in unreadable:
        print(f"{campaign_id:<24} (unreadable: {error})", file=sys.stderr)
    for row in listing:
        if row["complete"]:
            status = "complete"
        else:
            pieces = []
            if row["cells_running"]:
                label = "running" if row.get("owner_live") else "interrupted"
                pieces.append(f"{row['cells_running']} {label}")
            if row["cells_pending"]:
                pieces.append(f"{row['cells_pending']} pending")
            status = f"resumable ({', '.join(pieces)})"
        done_total = f"{row['cells_done']}/{row['cells_total']}"
        owner = row.get("owner") or "-"
        age = row.get("heartbeat_age")
        age_text = "-" if age is None else f"{age:.0f}s"
        print(f"{row['campaign_id']:<24} {done_total:>9} {row['jobs']:>7} "
              f"{row['holds']:>7} {row['violated']:>8} {row['unsupported']:>6} "
              f"{row['errors']:>6} {owner:>16} {age_text:>7} "
              f"{row.get('attempts', 0):>4}  {status}")
    return result


def _refuse_flags(args, flags, reason: str) -> None:
    """``ValueError`` naming every one of ``flags`` (option names) that was given."""
    given = [flag for flag in flags
             if getattr(args, flag.lstrip("-").replace("-", "_")) is not None]
    if given:
        raise ValueError(f"{reason}; drop {', '.join(given)}")


_SWEEP_FLAGS = ("--family", "--families", "--matrix", "--resume", "--sizes", "--modes",
                "--mutants", "--mutations", "--corpus")


def _command_campaign(args) -> Result:
    if args.action == "ls":
        _refuse_flags(args, _SWEEP_FLAGS + ("--join",), "campaign ls only lists manifests")
        return _command_campaign_ls(args)
    if args.join is not None:
        _refuse_flags(args, _SWEEP_FLAGS + ("--campaign-id", "--server"),
                      "--join attaches to an existing campaign (its spec comes from "
                      "the manifest)")
        return _command_campaign_join(args)
    if args.matrix or args.families or args.resume or args.sizes or args.modes:
        if args.family is not None:
            raise ValueError("--family selects a single campaign; use --families for a "
                             "matrix sweep")
        if args.corpus is not None:
            raise ValueError("--corpus gates single-family sweeps only; replay the corpus "
                             "with 'fuzz replay' before a matrix sweep")
        if args.server is not None:
            raise ValueError("matrix campaigns run locally (they own a manifest on this "
                             "host); --server only supports single-family sweeps")
        return _command_campaign_matrix(args)
    if args.family is None:
        raise ValueError("campaign needs --family (single sweep), or --matrix/--families "
                         "(matrix sweep), or --resume <id>")
    mutations = args.mutations if args.mutations is not None else "insert"
    from .fuzz.corpus import default_corpus_dir

    result = _answer(args, CampaignProblem(
        family=args.family,
        size=args.size,
        mutants=args.mutants if args.mutants is not None else 100,
        mutation_kinds=tuple(kind.strip() for kind in mutations.split(",") if kind.strip()),
        mode=args.mode,
        seed=args.seed if args.seed is not None else 0,
        include_reference=not args.skip_reference,
        report_path=args.report,
        corpus_dir=args.corpus or default_corpus_dir(),
    ))
    if args.json:
        return result
    print(f"campaign:  {result.benchmark} ({result.mode} mode, {result.workers} worker(s))")
    unsupported = f", unsupported: {result.unsupported}" if result.unsupported else ""
    print(f"jobs:      {result.jobs}  (holds: {result.holds}, violated: {result.violated}, "
          f"errors: {result.errors}{unsupported})")
    print(f"cache:     {result.cache_hits} hit(s)")
    if result.corpus_replayed or result.corpus_failures:
        print(f"corpus:    {result.corpus_replayed} entry(ies) replayed, "
              f"{result.corpus_failures} failed")
    if result.store_hits or result.store_misses or result.store_publishes:
        print(f"store:     {result.store_hits} hit(s), {result.store_misses} miss(es), "
              f"{result.store_publishes} publish(es)")
    if (result.faults_injected or result.retries or result.quarantined_entries
            or result.store_disabled):
        degraded = ", store DISABLED after repeated faults" if result.store_disabled else ""
        print(f"faults:    {result.faults_injected} injected, {result.retries} "
              f"retry(ies), {result.quarantined_entries} quarantined{degraded}")
    print(f"time:      {result.wall_seconds:.2f}s wall, "
          f"{result.analysis_seconds:.2f}s cumulative analysis")
    if args.profile:
        print(f"phases:    {_format_phases(result.phase_seconds)}")
    print(f"report:    {result.report_path}")
    if result.reference_violated:
        print("warning:   the UNMUTATED reference circuit violates the specification — "
              "every mutant verdict above is suspect", file=sys.stderr)
    return result


# ---------------------------------------------------------------------- fuzz


def _format_finding(row) -> str:
    """One human-readable findings line: the check, where, and what diverged."""
    pieces = [f"[{row['check']}]"]
    if row.get("mutation"):
        pieces.append(f"{row['mutation']}:")
    pieces.append(row.get("detail") or "(no detail)")
    if row.get("localised_gate") is not None:
        pieces.append(f"(localised to gate {row['localised_gate']})")
    if row.get("entry_id"):
        pieces.append(f"-> corpus {row['entry_id']}")
    return " ".join(pieces)


def _command_fuzz(args) -> Result:
    """``fuzz``: budgeted differential run; ``fuzz replay <dir>``: regression gate."""
    from .fuzz.corpus import default_corpus_dir

    corpus_dir = args.corpus or default_corpus_dir()
    if args.action == "replay":
        target = args.corpus_path or corpus_dir
        if target is None:
            raise ValueError("fuzz replay needs a corpus directory (positional, "
                             "--corpus, or $AUTOQ_REPRO_FUZZ_CORPUS)")
        problem = FuzzProblem(replay=True, corpus_dir=target)
    else:
        extra = {}
        if args.checks is not None:
            extra["checks"] = tuple(
                check.strip() for check in args.checks.split(",") if check.strip()
            )
        if args.modes is not None:
            extra["modes"] = tuple(
                mode.strip() for mode in args.modes.split(",") if mode.strip()
            )
        if args.mutations is not None:
            extra["mutation_kinds"] = tuple(
                kind.strip() for kind in args.mutations.split(",") if kind.strip()
            )
        problem = FuzzProblem(
            budget_seconds=args.budget,
            seed=args.seed,
            max_qubits=args.max_qubits,
            max_gates=args.max_gates,
            corpus_dir=corpus_dir,
            max_cases=args.cases,
            include_path_sum=args.path_sum,
            **extra,
        )
    with _session(args) as session:
        result = session.run(problem)
    if args.json:
        return result
    if result.replay:
        print(f"replayed:  {result.replayed} corpus entry(ies) "
              f"in {result.elapsed_seconds:.2f}s")
    else:
        print(f"fuzzed:    {result.cases} case(s) in {result.elapsed_seconds:.2f}s "
              f"(budget {result.budget_seconds:.0f}s, seed {result.seed})")
        print(f"triage:    {result.prefiltered} prefiltered before any automaton was built")
        if corpus_dir is not None:
            print(f"corpus:    {len(result.corpus_entries)} new entry(ies) -> {corpus_dir}")
    if result.divergences:
        label = "regressions" if result.replay else "divergences"
        print(f"{label}: {result.divergences}")
        for row in result.findings:
            print(f"  {_format_finding(row)}")
    elif result.replay:
        print("corpus clean: every entry re-verified on this tree")
    else:
        print("no divergences: every oracle agreed on every case")
    return result


# ------------------------------------------------------------------- service


def _command_serve(args) -> ToolResult:
    """``serve``: answer problem documents over HTTP from one warm runtime."""
    import signal

    from .service import ServiceConfig, ServiceServer

    # a plain Session only attaches a store when one is named explicitly, but
    # the daemon's whole point is a warm shared cache — resolve the campaign
    # default eagerly so every request (not just campaigns) hits the store
    cache_dir = "" if args.no_cache else args.cache_dir
    store_dir = resolve_store_dir(cache_dir, "" if args.no_store else args.store_dir)
    server = ServiceServer(ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        request_timeout=args.timeout,
        max_in_flight=args.max_in_flight,
        session=SessionConfig(
            cache_dir=cache_dir,
            store_dir="" if store_dir is None else store_dir,
        ),
    ))

    # the URL line is the daemon's startup contract: wrappers (the smoke
    # script, CI) pass --port 0 and parse it to discover the bound port
    if args.json:
        print(json.dumps({"serving": server.url}), flush=True)
    else:
        print(f"serving on {server.url}", flush=True)
        print("(ctrl-c to stop; in-flight requests drain before exit)", flush=True)

    def _on_sigterm(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop(drain=True)

    metrics = server.service.metrics
    if not args.json:
        served = sum(metrics.requests_total.values())
        failed = sum(metrics.failures_total.values())
        print(f"served:    {served} request(s), {failed} failure(s), "
              f"{metrics.rejected_total} rejected")
    return ToolResult(tool="serve", data={
        "url": server.url,
        "uptime_seconds": round(server.service.uptime_seconds, 3),
        "requests": dict(metrics.requests_total),
        "failures": dict(metrics.failures_total),
        "rejected": metrics.rejected_total,
        "timeouts": metrics.timeouts_total,
        "sse_records": metrics.sse_records_total,
    })


#: what each command was doing when the operating system refused it; the
#: entry prefixes an ``os-error`` message (formatted with the command's flags)
_OS_ERROR_CONTEXT = {
    "campaign": "cannot write report, cache, manifest or queue files",
    "fuzz": "cannot read or write the corpus",
    "cache": "cannot open the store",
    "serve": "cannot bind {host}:{port}",
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``autoq-repro`` console script.

    Every subcommand returns its typed result; this is the one place that
    prints the ``--json`` document, maps a failure to an ``error`` document
    (or an ``error: …`` stderr line) and picks the exit code, which is always
    the result's own.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _command_verify,
        "simulate": _command_simulate,
        "equivalence": _command_equivalence,
        "bughunt": _command_bughunt,
        "generate": _command_generate,
        "inject": _command_inject,
        "stats": _command_stats,
        "export-ta": _command_export_ta,
        "baselines": _command_baselines,
        "campaign": _command_campaign,
        "fuzz": _command_fuzz,
        "cache": _command_cache,
        "serve": _command_serve,
    }
    reason = None
    try:
        result = handlers[args.command](args)
    except ServiceError as error:  # the daemon's own error document, relayed
        result, reason = error.result, str(error)
    except ManifestError as error:  # a ValueError subclass: caught first
        result = ErrorResult("manifest-error", str(error))
    except ValueError as error:
        result = ErrorResult("invalid-request", str(error))
    except OSError as error:
        context = _OS_ERROR_CONTEXT.get(args.command)
        message = str(error) if context is None else f"{context.format(**vars(args))}: {error}"
        result = ErrorResult("os-error", message)
    if args.json:
        print(result.to_json())
    elif isinstance(result, ErrorResult):
        print(f"error: {reason or result.message}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
