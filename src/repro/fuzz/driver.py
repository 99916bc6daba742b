"""The time-budgeted differential fuzz loop behind ``repro fuzz``.

:func:`run_fuzz` interleaves the enabled oracle families over their seeded
case streams until the time budget (or an explicit case cap) is exhausted:

1. generate the next case (deterministic under the run seed);
2. triage it through the LintQ-style :func:`~repro.fuzz.oracles.static_prefilter`
   (plus circuit-level deduplication) — discarded mutants never build an
   automaton;
3. run the differential oracle;
4. on divergence: shrink the reproduction to a local minimum, localise the
   injected fault against the seed circuit
   (:func:`repro.core.diagnosis.localise_mutation`), and store a
   content-addressed corpus entry.

:func:`replay_corpus` is the regression gate: it re-executes every stored
entry and reports entries that diverge *again* — on a healthy tree every
entry must pass, because each one captures a bug that has been fixed (or a
scenario pinned as correct).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..algebraic import AlgebraicNumber
from ..campaign.cache import fingerprint_qasm
from ..circuits.mutations import MUTATION_OPERATORS, MutationRecord
from ..circuits.qasm import parse_qasm, to_qasm
from ..core.diagnosis import localise_mutation
from ..core.engine import AnalysisMode, GateRuntime
from ..ta import serialization
from ..ta.construction import from_quantum_states
from .corpus import Corpus, CorpusError
from .generators import BooleanCase, FuzzCase, generate_boolean_cases, generate_cases
from .oracles import (
    OracleVerdict,
    boolean_oracle,
    cross_mode_oracle,
    static_prefilter,
)
from .shrink import shrink_circuit, shrink_states

__all__ = ["FUZZ_CHECKS", "FuzzOutcome", "FuzzSettings", "replay_corpus", "replay_entry", "run_fuzz"]

#: the oracle families the driver can run
FUZZ_CHECKS: Tuple[str, ...] = ("boolean", "cross-mode")


@dataclass(frozen=True)
class FuzzSettings:
    """Everything that determines one fuzz run (and makes it reproducible)."""

    budget_seconds: float = 10.0
    seed: int = 0
    #: widest cross-mode seed circuit; also bounds the boolean universe (at most 3)
    max_qubits: int = 4
    max_gates: int = 10
    checks: Tuple[str, ...] = FUZZ_CHECKS
    modes: Tuple[str, ...] = AnalysisMode.ALL
    mutation_kinds: Tuple[str, ...] = tuple(MUTATION_OPERATORS)
    corpus_dir: Optional[str] = None
    #: stop after this many cases even if budget remains (None = budget only)
    max_cases: Optional[int] = None
    #: also evaluate the (slow) path-sum baseline in the cross-mode oracle
    include_path_sum: bool = False

    def __post_init__(self) -> None:
        for check in self.checks:
            if check not in FUZZ_CHECKS:
                raise ValueError(f"unknown check {check!r}; expected one of {FUZZ_CHECKS}")
        if not self.checks:
            raise ValueError("at least one check is required")
        for mode in self.modes:
            if mode not in AnalysisMode.ALL:
                raise ValueError(f"unknown mode {mode!r}; expected one of {AnalysisMode.ALL}")
        if self.budget_seconds < 0:
            raise ValueError("budget_seconds must be non-negative")


@dataclass
class FuzzOutcome:
    """What one fuzz (or replay) run produced."""

    cases: int = 0
    prefiltered: int = 0
    findings: List[Dict] = field(default_factory=list)
    corpus_entries: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    replayed: int = 0

    @property
    def divergences(self) -> int:
        return len(self.findings)

    @property
    def ok(self) -> bool:
        return not self.findings


def _finding(verdict: OracleVerdict, **extra) -> Dict:
    """One findings-list row: the verdict flattened plus context fields."""
    row = {
        "check": verdict.check,
        "detail": verdict.detail,
        "mode": verdict.mode,
        "operation": verdict.operation,
        "gate_index": verdict.gate_index,
        "witness": verdict.witness,
        "entry_id": None,
        "case_seed": None,
        "mutation": None,
        "localised_gate": None,
    }
    row.update(extra)
    return row


def _amplitude_list(alphabet: Sequence[AlgebraicNumber]) -> List[List[int]]:
    return [list(amplitude.as_tuple()) for amplitude in alphabet]


def _alphabet_from_payload(values: Sequence[Sequence[int]]) -> Tuple[AlgebraicNumber, ...]:
    return tuple(AlgebraicNumber(*[int(v) for v in value]) for value in values)


def _run_cross_mode_case(
    case: FuzzCase,
    settings: FuzzSettings,
    outcome: FuzzOutcome,
    corpus: Optional[Corpus],
    runtime: Optional[GateRuntime],
    seen: set,
) -> None:
    reason = static_prefilter(case.reference, case.circuit, case.record)
    if reason is not None:
        outcome.prefiltered += 1
        return
    qasm = to_qasm(case.circuit)
    key = (fingerprint_qasm(qasm), case.input_bits)
    if key in seen:
        outcome.prefiltered += 1
        return
    seen.add(key)
    verdict = cross_mode_oracle(
        case.circuit,
        case.input_bits,
        modes=settings.modes,
        runtime=runtime,
        include_path_sum=settings.include_path_sum,
    )
    if verdict.ok:
        return

    def still_diverges(candidate) -> bool:
        return not cross_mode_oracle(
            candidate,
            case.input_bits,
            modes=settings.modes,
            runtime=runtime,
            include_path_sum=settings.include_path_sum,
        ).ok

    minimized = shrink_circuit(case.circuit, still_diverges)
    final = cross_mode_oracle(
        minimized,
        case.input_bits,
        modes=settings.modes,
        runtime=runtime,
        include_path_sum=settings.include_path_sum,
    )
    if final.ok:  # flaky shrink target; keep the unshrunk reproduction
        minimized, final = case.circuit, verdict
    localised = None
    if case.record is not None:
        localised = localise_mutation(case.reference, case.circuit)
    mutation = None if case.record is None else case.record.to_dict()
    entry = None
    payload = {
        "circuit_qasm": to_qasm(minimized),
        "reference_qasm": to_qasm(case.reference),
        "input_bits": "".join(map(str, case.input_bits)),
        "modes": list(settings.modes),
        "include_path_sum": settings.include_path_sum,
        "localised_gate": localised,
    }
    if corpus is not None:
        entry = corpus.add(
            "cross-mode", payload, seed=case.seed, detail=final.detail, mutation=mutation
        )
        outcome.corpus_entries.append(entry)
    outcome.findings.append(
        _finding(
            final,
            entry_id=entry,
            case_seed=case.seed,
            mutation=None if case.record is None else str(case.record),
            localised_gate=localised,
        )
    )


def _run_boolean_case(
    case: BooleanCase,
    outcome: FuzzOutcome,
    corpus: Optional[Corpus],
) -> None:
    left = from_quantum_states(list(case.left))
    right = from_quantum_states(list(case.right))
    verdict = boolean_oracle(left, right, case.alphabet)
    if verdict.ok:
        return
    operation = verdict.operation

    def diverges(left_states, right_states) -> bool:
        return not boolean_oracle(
            from_quantum_states(list(left_states)),
            from_quantum_states(list(right_states)),
            case.alphabet,
            operations=(operation,),
        ).ok

    left_min = shrink_states(case.left, lambda states: diverges(states, case.right))
    right_min = shrink_states(case.right, lambda states: diverges(left_min, states))
    left_ta = from_quantum_states(list(left_min))
    right_ta = from_quantum_states(list(right_min))
    final = boolean_oracle(left_ta, right_ta, case.alphabet, operations=(operation,))
    if final.ok:  # flaky shrink target; keep the unshrunk reproduction
        left_ta, right_ta = left, right
        final = verdict
    entry = None
    payload = {
        "num_qubits": case.num_qubits,
        "alphabet": _amplitude_list(case.alphabet),
        "left_ta": serialization.to_payload(left_ta),
        "right_ta": serialization.to_payload(right_ta),
        "operations": [operation],
        "witness": final.witness,
    }
    if corpus is not None:
        entry = corpus.add("boolean", payload, seed=case.seed, detail=final.detail)
        outcome.corpus_entries.append(entry)
    outcome.findings.append(_finding(final, entry_id=entry, case_seed=case.seed))


def run_fuzz(
    settings: FuzzSettings = FuzzSettings(),
    runtime: Optional[GateRuntime] = None,
) -> FuzzOutcome:
    """One budgeted fuzz run; deterministic case stream under ``settings.seed``."""
    outcome = FuzzOutcome()
    if runtime is None:
        # one private runtime for the run: fuzzing must neither poison a
        # caller's gate memo with divergent results nor be masked by warm entries
        runtime = GateRuntime()
    corpus = None if settings.corpus_dir is None else Corpus(settings.corpus_dir)
    streams: List[Tuple[str, Iterator]] = []
    if "boolean" in settings.checks:
        streams.append(
            ("boolean", generate_boolean_cases(settings.seed, max_qubits=settings.max_qubits)))
    if "cross-mode" in settings.checks:
        streams.append(
            (
                "cross-mode",
                generate_cases(
                    settings.seed,
                    max_qubits=settings.max_qubits,
                    max_gates=settings.max_gates,
                    mutation_kinds=settings.mutation_kinds,
                ),
            )
        )
    start = time.perf_counter()
    deadline = start + settings.budget_seconds
    seen: set = set()
    exhausted = False
    while not exhausted:
        for name, stream in streams:
            if time.perf_counter() >= deadline or (
                settings.max_cases is not None and outcome.cases >= settings.max_cases
            ):
                exhausted = True
                break
            case = next(stream)
            outcome.cases += 1
            if name == "boolean":
                _run_boolean_case(case, outcome, corpus)
            else:
                _run_cross_mode_case(case, settings, outcome, corpus, runtime, seen)
    outcome.elapsed_seconds = time.perf_counter() - start
    return outcome


def replay_entry(document: Dict, runtime: Optional[GateRuntime] = None) -> OracleVerdict:
    """Re-execute one corpus entry's oracle on the current tree."""
    check = document["check"]
    payload = document["payload"]
    if check == "cross-mode":
        circuit = parse_qasm(payload["circuit_qasm"])
        input_bits = tuple(int(bit) for bit in payload["input_bits"])
        return cross_mode_oracle(
            circuit,
            input_bits,
            modes=tuple(payload["modes"]),
            runtime=runtime,
            include_path_sum=bool(payload.get("include_path_sum", False)),
        )
    if check == "boolean":
        left = serialization.from_payload(payload["left_ta"])
        right = serialization.from_payload(payload["right_ta"])
        alphabet = _alphabet_from_payload(payload["alphabet"])
        return boolean_oracle(left, right, alphabet, operations=tuple(payload["operations"]))
    raise ValueError(f"unknown corpus check {check!r}")


def replay_corpus(
    corpus_dir: Union[str, Path],
    runtime: Optional[GateRuntime] = None,
) -> FuzzOutcome:
    """Re-verify every committed corpus entry; failures are regressions."""
    outcome = FuzzOutcome()
    if runtime is None:
        runtime = GateRuntime()
    corpus = Corpus(corpus_dir)
    if not corpus.root.is_dir():
        # a mistyped gate path must not silently pass as an empty corpus
        raise CorpusError(f"corpus directory {corpus.root} does not exist")
    start = time.perf_counter()
    for document in corpus.entries():
        outcome.replayed += 1
        verdict = replay_entry(document, runtime=runtime)
        if not verdict.ok:
            mutation = document.get("mutation")
            outcome.findings.append(
                _finding(
                    verdict,
                    entry_id=document["entry_id"],
                    case_seed=document.get("seed"),
                    mutation=(
                        None
                        if mutation is None
                        else str(MutationRecord.from_dict(mutation))
                    ),
                    localised_gate=document["payload"].get("localised_gate"),
                )
            )
    outcome.elapsed_seconds = time.perf_counter() - start
    return outcome
