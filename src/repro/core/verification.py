"""Verification of ``{P} C {Q}`` triples (the paper's core use case).

Given a pre-condition TA ``P``, a circuit ``C`` and a post-condition TA ``Q``,
the framework computes the TA of all states reachable by running ``C`` on any
state of ``P`` and compares it against ``Q`` — either for language equality or
for inclusion.  When the check fails, a witness quantum state (reachable but
not allowed, or allowed but not reachable) is reported for diagnosis, exactly
like the tool described in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..circuits.circuit import Circuit
from ..states import QuantumState
from ..ta import TreeAutomaton, check_equivalence, check_inclusion
from .engine import AnalysisMode, EngineStatistics, GateRuntime, run_circuit

__all__ = ["VerificationResult", "verify_triple"]


@dataclass
class VerificationResult:
    """Outcome of checking a ``{P} C {Q}`` triple."""

    holds: bool
    #: "equivalence" or "inclusion" depending on how Q was compared.
    check: str
    #: witness state demonstrating the violation (None when the triple holds)
    witness: Optional[QuantumState]
    #: "reachable-but-forbidden" (output \ Q) or "unreachable-but-required" (Q \ output)
    witness_kind: Optional[str]
    #: TA of the circuit's reachable output states
    output: TreeAutomaton
    #: analysis statistics from the engine
    statistics: EngineStatistics
    #: wall-clock seconds spent in the TA comparison (the paper's "=" column)
    comparison_seconds: float

    def __bool__(self) -> bool:
        return self.holds


def verify_triple(
    precondition: TreeAutomaton,
    circuit: Circuit,
    postcondition: TreeAutomaton,
    mode: str = AnalysisMode.HYBRID,
    inclusion_only: bool = False,
    reduce_after_each_gate: bool = True,
    runtime: Optional[GateRuntime] = None,
) -> VerificationResult:
    """Check the triple ``{precondition} circuit {postcondition}``.

    Args:
        precondition: TA of the allowed input states ``P``.
        circuit: the circuit ``C``.
        postcondition: TA of the allowed output states ``Q``.
        mode: engine setting (``hybrid`` or ``composition``).
        inclusion_only: check ``outputs ⊆ Q`` instead of ``outputs = Q``.
        reduce_after_each_gate: apply the lightweight reduction after each gate.
        runtime: gate memo/store to use (default: a private runtime with no store).
    """
    engine_result = run_circuit(
        circuit, precondition, mode=mode,
        reduce_after_each_gate=reduce_after_each_gate, runtime=runtime,
    )
    output = engine_result.output
    start = time.perf_counter()
    if inclusion_only:
        inclusion = check_inclusion(output, postcondition)
        elapsed = time.perf_counter() - start
        return VerificationResult(
            holds=inclusion.holds,
            check="inclusion",
            witness=inclusion.counterexample,
            witness_kind=None if inclusion.holds else "reachable-but-forbidden",
            output=output,
            statistics=engine_result.statistics,
            comparison_seconds=elapsed,
        )
    equivalence = check_equivalence(output, postcondition)
    elapsed = time.perf_counter() - start
    if equivalence.equivalent:
        witness_kind = None
    elif equivalence.side == "left-only":
        witness_kind = "reachable-but-forbidden"
    else:
        witness_kind = "unreachable-but-required"
    return VerificationResult(
        holds=equivalence.equivalent,
        check="equivalence",
        witness=equivalence.counterexample,
        witness_kind=witness_kind,
        output=output,
        statistics=engine_result.statistics,
        comparison_seconds=elapsed,
    )
