"""Circuit (non-)equivalence checking and incremental bug hunting (Section 7.2).

Two circuits are run over the same input TA; if the resulting output TAs have
different languages, the circuits are certainly not equivalent and a witness
output state (reachable in one circuit but not the other) is produced.  If the
languages coincide the circuits may or may not be equivalent — this is the
quick *under-approximation* of non-equivalence the paper advertises.

:class:`IncrementalBugHunter` reproduces the search strategy used for Table 3:
start from a TA with a single basis state (no top-down nondeterminism) and
gradually add nondeterministic transitions (one per iteration, by freeing one
more qubit of the input), re-running the analysis each time until the bug is
caught or the iteration budget is exhausted.  Because the output-*set*
comparison can miss bugs once the input set becomes closed under the injected
permutation (the paper's own caveat), the hunter restarts from a fresh random
basis state when every qubit has been freed and budget remains.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..circuits.circuit import Circuit
from ..states import QuantumState
from ..ta import TreeAutomaton, basis_product_ta, check_equivalence
from .engine import AnalysisMode, GateRuntime, run_circuit

__all__ = ["NonEquivalenceResult", "check_circuit_equivalence", "BugHuntResult", "IncrementalBugHunter"]


@dataclass
class NonEquivalenceResult:
    """Outcome of the output-set comparison of two circuits over one input TA."""

    #: True when the output languages differ (circuits are certainly non-equivalent).
    non_equivalent: bool
    witness: Optional[QuantumState]
    #: which circuit reaches the witness: "first-only" or "second-only"
    witness_side: Optional[str]
    analysis_seconds: float
    comparison_seconds: float

    def __bool__(self) -> bool:
        return self.non_equivalent


def check_circuit_equivalence(
    first: Circuit,
    second: Circuit,
    inputs: TreeAutomaton,
    mode: str = AnalysisMode.HYBRID,
    runtime: Optional[GateRuntime] = None,
) -> NonEquivalenceResult:
    """Compare the output-state sets of two circuits for the given input TA.

    Both circuits run on ``runtime``, or on one private runtime built for
    this call when it is ``None``, so the second run reuses the first's memo.
    """
    if first.num_qubits != second.num_qubits:
        raise ValueError("circuits must have the same number of qubits")
    if runtime is None:
        runtime = GateRuntime()
    start = time.perf_counter()
    first_result = run_circuit(first, inputs, mode=mode, runtime=runtime)
    second_result = run_circuit(second, inputs, mode=mode, runtime=runtime)
    analysis_seconds = time.perf_counter() - start
    start = time.perf_counter()
    equivalence = check_equivalence(first_result.output, second_result.output)
    comparison_seconds = time.perf_counter() - start
    if equivalence.equivalent:
        return NonEquivalenceResult(False, None, None, analysis_seconds, comparison_seconds)
    side = "first-only" if equivalence.side == "left-only" else "second-only"
    return NonEquivalenceResult(True, equivalence.counterexample, side, analysis_seconds, comparison_seconds)


@dataclass
class BugHuntResult:
    """Outcome of an incremental bug hunt between a circuit and its mutated copy."""

    bug_found: bool
    iterations: int
    total_seconds: float
    witness: Optional[QuantumState] = None
    witness_side: Optional[str] = None
    #: number of basis states represented by the input TA that caught the bug
    final_input_size: int = 0
    per_iteration_seconds: List[float] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.bug_found


class IncrementalBugHunter:
    """The paper's bug-hunting strategy: grow the input TA until a bug shows up.

    The input TA always has the "product form": every qubit independently
    ranges over a set of classical values.  Iteration 1 uses a single basis
    state; each further iteration frees one more (randomly chosen) qubit,
    which adds one nondeterministic transition to the input TA.  When every
    qubit is free and the bug is still unseen, the hunt restarts from a new
    random basis state (different partial input sets can expose bugs that the
    full basis set hides, because the set comparison cannot see permutations
    of a closed set).
    """

    def __init__(
        self,
        mode: str = AnalysisMode.HYBRID,
        seed: Optional[int] = None,
        max_iterations: Optional[int] = None,
        runtime: Optional[GateRuntime] = None,
    ):
        self.mode = mode
        self.seed = seed
        self.max_iterations = max_iterations
        self.runtime = runtime

    def hunt(
        self,
        reference: Circuit,
        candidate: Circuit,
        initial_basis: Optional[Sequence[int]] = None,
    ) -> BugHuntResult:
        """Search for an input set over which the two circuits' outputs differ.

        Every iteration runs on the hunter's runtime, or on one private
        runtime built for this hunt when the hunter has none.
        """
        if reference.num_qubits != candidate.num_qubits:
            raise ValueError("circuits must have the same number of qubits")
        runtime = self.runtime if self.runtime is not None else GateRuntime()
        num_qubits = reference.num_qubits
        rng = random.Random(self.seed)
        if initial_basis is None:
            initial_basis = [0] * num_qubits
        allowed = [{int(bit)} for bit in initial_basis]
        free_order = list(range(num_qubits))
        rng.shuffle(free_order)
        max_iterations = self.max_iterations or (num_qubits + 1)
        start = time.perf_counter()
        per_iteration: List[float] = []
        for iteration in range(1, max_iterations + 1):
            iteration_start = time.perf_counter()
            inputs = basis_product_ta(num_qubits, allowed)
            outcome = check_circuit_equivalence(
                reference, candidate, inputs, mode=self.mode, runtime=runtime
            )
            per_iteration.append(time.perf_counter() - iteration_start)
            if outcome.non_equivalent:
                input_size = 1
                for values in allowed:
                    input_size *= len(values)
                return BugHuntResult(
                    bug_found=True,
                    iterations=iteration,
                    total_seconds=time.perf_counter() - start,
                    witness=outcome.witness,
                    witness_side=outcome.witness_side,
                    final_input_size=input_size,
                    per_iteration_seconds=per_iteration,
                )
            # free one more qubit (add one nondeterministic transition)
            for qubit in free_order:
                if len(allowed[qubit]) == 1:
                    allowed[qubit] = {0, 1}
                    break
            else:
                # every qubit already free: restart from a fresh random basis state
                allowed = [{rng.randint(0, 1)} for _ in range(num_qubits)]
                rng.shuffle(free_order)
        return BugHuntResult(
            bug_found=False,
            iterations=len(per_iteration),
            total_seconds=time.perf_counter() - start,
            per_iteration_seconds=per_iteration,
        )
