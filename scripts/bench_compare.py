#!/usr/bin/env python3
"""Perf-regression harness: run a named bench set, write ``BENCH_PR<N>.json``,
and fail on regressions against the previous ``BENCH_*.json``.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_compare.py                  # default set
    PYTHONPATH=src python scripts/bench_compare.py --set kernel
    PYTHONPATH=src python scripts/bench_compare.py --output BENCH_PR4.json
    PYTHONPATH=src python scripts/bench_compare.py --baseline none  # measure only

Bench sets:

``kernel``
    the :mod:`benchmarks.bench_kernel` micro-benchmarks (``binary_operation``,
    ``restrict``, ``reduce`` at several qubit sizes);
``grover``
    Table 2 style end-to-end verification of Grover-Sing in hybrid and
    composition modes (the rows the PR-3 speedup target is judged on);
``campaign``
    one uncached hybrid-mode bug-hunting campaign row (10 mutants);
``store``
    the cross-process automaton store: the same campaign against a cold store
    (publish overhead included) and against a warm store with every
    per-process cache cleared (the fresh-worker / second-run case);
``service``
    the verification daemon: the same verify queries against a warm
    ``repro serve`` instance (HTTP round trips on a primed runtime) vs one
    cold ``python -m repro.cli`` subprocess per query;
``fabric``
    the distributed campaign fabric: one planned matrix sweep drained by
    1 / 2 / 4 real ``campaign --join`` worker subprocesses, with a cold
    per-joiner store and with one warm store directory shared by every
    joiner; the 2-joiner row must beat the 1-joiner row by at least
    :data:`FABRIC_MIN_SCALING` or the run fails;
``default``
    all of the above; ``smoke`` is a fast subset for CI.

Every workload is timed best-of-``repeat`` with per-process kernel caches
cleared by its setup, so numbers are comparable across kernels.  The previous
baseline is auto-discovered as the ``BENCH_PR<M>.json`` with the largest
``M`` below the output's own number (override with ``--baseline``); rows
slower than ``baseline * (1 + threshold)`` fail the run with exit code 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

SCHEMA_VERSION = 1
_PR_PATTERN = re.compile(r"BENCH_PR(\d+)\.json$")

#: minimum throughput gain 2 fabric joiners must show over 1 — anything less
#: means the lease queue's coordination overhead is eating the parallelism
FABRIC_MIN_SCALING = 1.6

#: workload name -> (repeat, setup, run); run(setup()) is the timed call
Workload = Tuple[int, Callable[[], object], Callable[[object], object]]


def _verify_workload(family: str, size: int, mode: str) -> Workload:
    from repro.benchgen import build_family
    from repro.core import verify_triple

    def setup():
        return build_family(family, size)

    def run(bench):
        result = verify_triple(
            bench.precondition, bench.circuit, bench.postcondition, mode=mode
        )
        if not result.holds:
            raise AssertionError(f"{bench.name} ({mode}) must hold during benchmarking")
        return result

    return (2, setup, run)


def _campaign_workload(family: str, mode: str, mutants: int) -> Workload:
    from repro.campaign import CampaignConfig, run_campaign

    def setup():
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", prefix="bench_campaign_", delete=False
        )
        handle.close()
        return CampaignConfig(
            family=family,
            mutants=mutants,
            mutation_kinds=("insert", "remove", "swap-operands"),
            mode=mode,
            workers=1,
            report_path=handle.name,
            cache_dir="",  # a cache hit would time dict lookups, not the kernel
        )

    def run(config):
        try:
            summary = run_campaign(config)
            if summary.errors:
                raise AssertionError(f"campaign benchmark had {summary.errors} error(s)")
            return summary
        finally:
            if os.path.exists(config.report_path):
                os.unlink(config.report_path)

    return (1, setup, run)


def _store_campaign_workload(family: str, mode: str, mutants: int, warm: bool) -> Workload:
    """Campaign against the cross-process automaton store, cold or warm.

    Cold: empty store, so the run pays fingerprinting + publish I/O on top of
    the verification work.  Warm: the store is pre-populated by an identical
    run; the measured run starts from a fresh gate memo, so it is the "fresh
    worker process / second campaign" case and should be store-bound.
    """
    import shutil

    from repro.campaign import CampaignConfig, run_campaign

    def make_config(scratch: str) -> "CampaignConfig":
        return CampaignConfig(
            family=family,
            mutants=mutants,
            mutation_kinds=("insert", "remove", "swap-operands"),
            mode=mode,
            workers=1,
            report_path=os.path.join(scratch, "report.jsonl"),
            cache_dir="",  # verdict-cache hits would bypass the store entirely
            store_dir=os.path.join(scratch, "store"),
        )

    def setup():
        scratch = tempfile.mkdtemp(prefix="bench_store_")
        if warm:
            run_campaign(make_config(scratch))  # populate the store
        return make_config(scratch)

    def run(config):
        scratch = os.path.dirname(config.report_path)
        try:
            summary = run_campaign(config)
            if summary.errors:
                raise AssertionError(f"store benchmark had {summary.errors} error(s)")
            if warm and not summary.store_hits:
                raise AssertionError("warm-store benchmark had no store hits")
            if not warm and not summary.store_publishes:
                raise AssertionError("cold-store benchmark published nothing")
            return summary
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    return (2 if warm else 1, setup, run)


def _service_workload(warm: bool, queries: int = 5) -> Workload:
    """The same verify queries against a warm daemon vs a cold CLI process.

    Warm: a ``ServiceServer`` is booted (and primed with one identical
    request) in setup, so the timed region is ``queries`` HTTP round trips
    answered from the shared gate memo.  Cold: each query is a fresh
    ``python -m repro.cli`` subprocess — interpreter start-up, imports, and
    an empty cache hierarchy every time, i.e. the workflow the daemon
    replaces.  The warm row should beat the cold row by a wide margin.
    """
    import subprocess

    family, size = "bv", 10

    if warm:

        def setup():
            from repro.api import CircuitSource, SessionConfig, VerifyProblem
            from repro.api.client import ServiceClient
            from repro.service import ServiceConfig, ServiceServer

            server = ServiceServer(ServiceConfig(
                port=0, session=SessionConfig(cache_dir="", store_dir="")
            )).start()
            client = ServiceClient(server.url)
            problem = VerifyProblem(circuit=CircuitSource.from_family(family, size))
            client.run(problem)  # prime the warm runtime
            return server, client, problem

        def run(state):
            server, client, problem = state
            try:
                for _ in range(queries):
                    if not client.run(problem).holds:
                        raise AssertionError("service verify unexpectedly failed")
            finally:
                server.stop()

        return (3, setup, run)

    def setup():
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("AUTOQ_REPRO_SERVER", None)  # a cold run must not find a daemon
        return env

    def run(env):
        for _ in range(queries):
            outcome = subprocess.run(
                [sys.executable, "-m", "repro.cli", "verify",
                 "--family", family, "--size", str(size)],
                capture_output=True, env=env, cwd=REPO_ROOT,
            )
            if outcome.returncode != 0:
                raise AssertionError(outcome.stderr.decode("utf-8", "replace"))

    return (1, setup, run)


def _fabric_workload(joiners: int, store: str = "cold") -> Workload:
    """Drain one planned matrix sweep with N ``campaign --join`` subprocesses.

    The timed region is the joiner fan-out: N real worker subprocesses attach
    to the planned campaign's lease queue (``docs/distributed.md``) and drain
    it concurrently; the run is over when the last joiner exits with every
    cell completed.  Every verification job carries a deterministic injected
    delay (the fault framework's ``delay`` kind), giving each cell a fixed
    latency floor — the rows measure the *fabric's* ability to overlap cells
    and the coordination overhead of claiming/completing them, not raw CPU
    parallelism, so the scaling floor holds on single-core CI runners too.
    ``store`` picks the store tier the joiners use — ``"cold"`` gives every
    joiner its own empty store directory (publish overhead included),
    ``"shared-warm"`` points every joiner at one store directory an
    identical sweep populated, the way joined hosts share a directory on the
    mount that holds the manifests, so joiners read shared verified prefixes
    instead of recomputing them.
    """
    import shutil
    import subprocess

    family, sizes, mutants = "bv", "4-11", 2
    job_delay = {"seed": 0, "sites": {"worker.cell": {
        "kind": "delay", "rate": 1.0, "delay_seconds": 0.35}}}

    def scheduler(scratch: str, campaign_id: str, store_dir=None):
        from repro.campaign import MatrixScheduler, MatrixSpec

        return MatrixScheduler(
            MatrixSpec.from_mapping(
                {"families": [family], "sizes": sizes, "mutants": mutants}
            ),
            workers=1,
            report_dir=os.path.join(scratch, "reports", campaign_id),
            manifest_dir=os.path.join(scratch, "manifests"),
            cache_dir=os.path.join(scratch, "cache", campaign_id),
            campaign_id=campaign_id,
            store_dir=store_dir,
        )

    def setup():
        scratch = tempfile.mkdtemp(prefix="bench_fabric_")
        state = {"scratch": scratch, "store_dir": None}
        if store == "shared-warm":
            state["store_dir"] = os.path.join(scratch, "shared_store")
            # populate the shared store with one identical sweep; the timed
            # joiners get fresh verdict caches, so every hit they score is a
            # store read, not a cached verdict
            scheduler(scratch, "warm", store_dir=state["store_dir"]).run()
        planner = scheduler(scratch, "fabric", store_dir=state["store_dir"])
        planner.plan()
        state["cells"] = len(planner.spec.cells())
        from repro.dist import RESULT_DIR, queue_dir_for

        state["result_dir"] = os.path.join(
            queue_dir_for(planner.manifest_dir, "fabric"), RESULT_DIR)
        return state

    def run(state):
        scratch = state["scratch"]
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("AUTOQ_REPRO_SERVER", None)
        try:
            workers = []
            for index in range(joiners):
                argv = [sys.executable, "-m", "repro.cli", "campaign",
                        "--join", "fabric", "--json", "--workers", "1",
                        "--faults", json.dumps(job_delay),
                        "--manifest-dir", os.path.join(scratch, "manifests"),
                        "--cache-dir", os.path.join(scratch, "cache", f"j{index}"),
                        "--report-dir", os.path.join(scratch, "reports", f"j{index}")]
                if state["store_dir"] is not None:
                    argv += ["--store-dir", state["store_dir"]]
                workers.append(subprocess.Popen(
                    argv, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True))
            for worker in workers:
                _stdout, stderr = worker.communicate(timeout=600)
                if worker.returncode != 0:
                    raise AssertionError(
                        f"fabric joiner exited {worker.returncode}: {stderr[:500]}")
            done = len(os.listdir(state["result_dir"]))
            if done != state["cells"]:
                raise AssertionError(
                    f"queue not drained: {done} of {state['cells']} cells done")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    return (1, setup, run)


def build_bench_set(name: str) -> Dict[str, Workload]:
    """Materialise a named bench set (imports repro lazily so ``--list`` is free)."""
    from bench_kernel import KERNEL_WORKLOADS

    kernel = {
        workload: (3, setup, run)
        for workload, (setup, run) in sorted(KERNEL_WORKLOADS.items())
    }
    grover = {
        f"table2/grover-single/n{size}/hybrid": _verify_workload("grover", size, "hybrid")
        for size in (3, 4, 5)
    }
    grover.update(
        {
            f"table2/grover-single/n{size}/composition": _verify_workload(
                "grover", size, "composition"
            )
            for size in (2, 3)
        }
    )
    campaign = {"campaign/grover/hybrid/m10": _campaign_workload("grover", "hybrid", 10)}
    store = {
        "campaign/grover/hybrid/m10/store-cold": _store_campaign_workload(
            "grover", "hybrid", 10, warm=False
        ),
        "campaign/grover/hybrid/m10/store-warm": _store_campaign_workload(
            "grover", "hybrid", 10, warm=True
        ),
    }
    service = {
        "service/verify-bv10-x5/warm-daemon": _service_workload(warm=True),
        "service/verify-bv10-x5/cold-cli": _service_workload(warm=False),
    }
    fabric = {
        "fabric/bv4-11/m2/joiners-1": _fabric_workload(1),
        "fabric/bv4-11/m2/joiners-2": _fabric_workload(2),
        "fabric/bv4-11/m2/joiners-4": _fabric_workload(4),
        "fabric/bv4-11/m2/joiners-2/store-shared-warm": _fabric_workload(
            2, store="shared-warm"
        ),
    }
    smoke = {
        key: value
        for key, value in {**kernel, **grover}.items()
        if key.endswith("/n5") or key == "table2/grover-single/n3/hybrid"
    }
    sets = {
        "kernel": kernel,
        "grover": grover,
        "campaign": campaign,
        "store": store,
        "service": service,
        "fabric": fabric,
        "smoke": smoke,
        "default": {**kernel, **grover, **campaign, **store, **service, **fabric},
    }
    if name not in sets:
        raise SystemExit(f"unknown bench set {name!r}; expected one of {sorted(sets)}")
    return sets[name]


def run_bench_set(workloads: Dict[str, Workload], quiet: bool = False) -> Dict[str, Dict]:
    results: Dict[str, Dict] = {}
    for name, (repeat, setup, run) in workloads.items():
        samples: List[float] = []
        for _ in range(repeat):
            state = setup()
            start = time.perf_counter()
            run(state)
            samples.append(time.perf_counter() - start)
        results[name] = {
            "seconds": min(samples),
            "repeat": repeat,
            "samples": [round(sample, 6) for sample in samples],
        }
        if not quiet:
            print(f"  {name:<44} {min(samples):9.4f}s  (best of {repeat})")
    return results


# --------------------------------------------------------------- baselines
def _pr_number(path: str) -> Optional[int]:
    match = _PR_PATTERN.search(os.path.basename(path))
    return int(match.group(1)) if match else None


def discover_baseline(output_path: str) -> Optional[str]:
    """The committed ``BENCH_PR<M>.json`` with the largest ``M`` below ours."""
    own_number = _pr_number(output_path)
    candidates = []
    for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")):
        if os.path.abspath(path) == os.path.abspath(output_path):
            continue
        number = _pr_number(path)
        if number is None:
            continue
        if own_number is None or number < own_number:
            candidates.append((number, path))
    if not candidates:
        return None
    return max(candidates)[1]


def compare_to_baseline(
    results: Dict[str, Dict], baseline_path: str, threshold: float
) -> Tuple[Dict[str, Dict], List[str]]:
    """Per-row speedups vs. the baseline file and the list of regressions."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_results = baseline.get("results", {})
    rows: Dict[str, Dict] = {}
    regressions: List[str] = []
    for name, entry in results.items():
        base = baseline_results.get(name)
        if base is None:
            continue
        base_seconds = float(base["seconds"])
        seconds = float(entry["seconds"])
        speedup = base_seconds / seconds if seconds > 0 else float("inf")
        rows[name] = {
            "baseline_seconds": base_seconds,
            "seconds": seconds,
            "speedup": round(speedup, 3),
        }
        if seconds > base_seconds * (1.0 + threshold):
            regressions.append(
                f"{name}: {seconds:.4f}s vs baseline {base_seconds:.4f}s "
                f"({seconds / base_seconds:.2f}x slower, threshold {1 + threshold:.2f}x)"
            )
    return rows, regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="bench_set", default="default",
                        help="bench set to run (kernel, grover, campaign, store, "
                             "service, fabric, smoke, default)")
    parser.add_argument("--output", default="BENCH_PR4.json",
                        help="result file, written at the repository root")
    parser.add_argument("--baseline", default="auto",
                        help="previous BENCH_*.json to compare against, 'auto' to "
                             "discover it, or 'none' to only measure")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional slowdown that counts as a regression (0.10 = 10%%)")
    parser.add_argument("--list", action="store_true", help="list workloads and exit")
    args = parser.parse_args(argv)

    workloads = build_bench_set(args.bench_set)
    if args.list:
        for name in workloads:
            print(name)
        return 0

    output_path = args.output
    if not os.path.isabs(output_path):
        output_path = os.path.join(REPO_ROOT, output_path)

    print(f"bench set {args.bench_set!r}: {len(workloads)} workload(s)")
    results = run_bench_set(workloads)

    payload = {
        "schema": SCHEMA_VERSION,
        "label": os.path.splitext(os.path.basename(output_path))[0],
        "set": args.bench_set,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }

    exit_code = 0
    solo = results.get("fabric/bv4-11/m2/joiners-1")
    duo = results.get("fabric/bv4-11/m2/joiners-2")
    if solo and duo:
        scaling = round(float(solo["seconds"]) / float(duo["seconds"]), 3)
        payload["fabric_scaling_n2"] = scaling
        print(f"\nfabric scaling: {scaling:.2f}x "
              f"(2 joiners vs 1, floor {FABRIC_MIN_SCALING:.1f}x)")
        if scaling < FABRIC_MIN_SCALING:
            print(f"REGRESSION: fabric 2-joiner scaling {scaling:.2f}x is below "
                  f"the {FABRIC_MIN_SCALING:.1f}x floor", file=sys.stderr)
            exit_code = 1

    if args.baseline == "none":
        baseline_path = None
    elif args.baseline == "auto":
        baseline_path = discover_baseline(output_path)
        if baseline_path is None:
            print("no previous BENCH_*.json found; writing a fresh baseline")
    else:
        baseline_path = args.baseline
        if not os.path.exists(baseline_path):
            print(f"error: baseline {baseline_path!r} does not exist", file=sys.stderr)
            return 2

    if baseline_path is not None:
        rows, regressions = compare_to_baseline(results, baseline_path, args.threshold)
        payload["baseline"] = {
            "path": os.path.relpath(baseline_path, REPO_ROOT),
            "threshold": args.threshold,
            "rows": rows,
            "regressions": regressions,
        }
        print(f"\ncomparison vs {os.path.basename(baseline_path)}:")
        for name, row in rows.items():
            print(f"  {name:<44} {row['speedup']:6.2f}x "
                  f"({row['baseline_seconds']:.4f}s -> {row['seconds']:.4f}s)")
        for problem in regressions:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if regressions:
            exit_code = 1

    output_dir = os.path.dirname(output_path)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    relative = os.path.relpath(output_path, REPO_ROOT)
    print(f"\nwrote {output_path if relative.startswith('..') else relative}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
