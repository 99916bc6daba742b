"""Differential oracles: the engine against every independent semantics we have.

Two oracle families, each returning an :class:`OracleVerdict`:

* :func:`cross_mode_oracle` — run one circuit gate by gate through every
  engine :class:`~repro.core.engine.AnalysisMode` and the statevector,
  decision-diagram and (optionally) path-sum baselines, demanding exact
  agreement after every gate.  This is the harness of
  ``tests/test_differential.py`` promoted to a reusable library: the test
  module now imports :func:`assert_states_close`, :func:`evaluate_path_sum`
  and friends from here.
* :func:`boolean_oracle` — check the boolean TA layer
  (:mod:`repro.ta.boolean`) against brute-force enumeration of the full tree
  universe at small sizes: every tree over a finite leaf alphabet is tested
  for membership with :meth:`TreeAutomaton.accepts`, and the resulting
  languages must match set-for-set.

:func:`static_prefilter` is the LintQ-style cheap triage pass: mutants that a
syntactic check proves equivalent to their seed circuit (commuting
transpositions, symmetric-operand swaps) are discarded *before* any automaton
is constructed, so the fuzz budget is spent on mutants that can actually
teach us something.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..algebraic import AlgebraicNumber
from ..baselines import PathSumChecker
from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..circuits.mutations import MutationRecord
from ..core.engine import AnalysisMode, CircuitEngine, GateRuntime
from ..core.permutation import supports_permutation
from ..simulator.decision_diagram import DDState, DecisionDiagramSimulator
from ..simulator.statevector import StateVectorSimulator
from ..states import QuantumState, int_to_bits
from ..ta import boolean
from ..ta.automaton import TreeAutomaton
from ..ta.construction import basis_state_ta

__all__ = [
    "BOOLEAN_OPERATIONS",
    "DIAGONAL_GATES",
    "PERMUTATION_POOL",
    "OracleVerdict",
    "assert_states_close",
    "boolean_oracle",
    "boolean_universe",
    "brute_language",
    "cross_mode_oracle",
    "evaluate_path_sum",
    "prefix_path_sum_states",
    "random_permutation_circuit",
    "state_key",
    "states_close",
    "static_prefilter",
]

#: gates the permutation-based encoding supports with ascending operands
PERMUTATION_POOL: Tuple[str, ...] = ("x", "y", "z", "s", "sdg", "t", "tdg", "cx", "cz", "ccx")

#: gates whose matrix is diagonal — any two of these commute
DIAGONAL_GATES: FrozenSet[str] = frozenset(
    {"z", "s", "sdg", "t", "tdg", "cz", "cs", "csdg", "ct", "ctdg"}
)

#: boolean-layer operations the brute-force oracle can check
BOOLEAN_OPERATIONS: Tuple[str, ...] = ("union", "intersection", "complement", "difference")

#: gate kinds invariant under any permutation of (a subset of) their operands:
#: value maps to the slice of operand indices that may be freely reordered
_SYMMETRIC_OPERANDS: Dict[str, slice] = {
    "cz": slice(0, 2),
    "cs": slice(0, 2),
    "csdg": slice(0, 2),
    "ct": slice(0, 2),
    "ctdg": slice(0, 2),
    "swap": slice(0, 2),
    "ccx": slice(0, 2),  # the two controls commute; the target is fixed
}


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle run; ``ok`` means every semantics agreed."""

    ok: bool
    #: which oracle family ran ("cross-mode" or "boolean")
    check: str
    #: human-readable description of the divergence (empty when ok)
    detail: str = ""
    #: index of the (decomposed) gate after which semantics disagreed
    gate_index: Optional[int] = None
    #: engine mode / baseline name that disagreed ("hybrid", "path-sum", ...)
    mode: Optional[str] = None
    #: boolean operation that disagreed ("union", "complement", ...)
    operation: Optional[str] = None
    #: rendering of the distinguishing state / tree, when one exists
    witness: Optional[str] = None


# --------------------------------------------------------------------------
# promoted differential helpers (formerly private to tests/test_differential)
# --------------------------------------------------------------------------

def states_close(
    left: QuantumState, right: QuantumState, tolerance: float = 1e-9
) -> Optional[str]:
    """``None`` when two exact states denote the same vector, else a message."""
    if left.num_qubits != right.num_qubits:
        return f"state widths differ: {left.num_qubits} != {right.num_qubits}"
    keys = {bits for bits, _ in left.items()} | {bits for bits, _ in right.items()}
    for bits in keys:
        delta = abs(left[bits].to_complex() - right[bits].to_complex())
        if delta >= tolerance:
            return f"amplitudes differ at {bits}: {left[bits]} vs {right[bits]}"
    return None


def assert_states_close(
    left: QuantumState, right: QuantumState, tolerance: float = 1e-9
) -> None:
    """Assert two exact states denote (numerically) the same vector."""
    message = states_close(left, right, tolerance)
    assert message is None, message


def random_permutation_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """A random circuit every gate of which the permutation encoding handles."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits, name=f"perm_random_{seed}")
    pool = [
        kind
        for kind in PERMUTATION_POOL
        if num_qubits >= {"cx": 2, "cz": 2, "ccx": 3}.get(kind, 1)
    ]
    for _ in range(num_gates):
        kind = rng.choice(pool)
        arity = {"cx": 2, "cz": 2, "ccx": 3}.get(kind, 1)
        qubits = tuple(sorted(rng.sample(range(num_qubits), arity)))
        circuit.append(Gate(kind, qubits))
    return circuit


def _evaluate_bool(poly, environment) -> int:
    """Evaluate a path-sum Boolean polynomial (XOR of ANDs) over 0/1 values."""
    return sum(all(environment[v] for v in monomial) for monomial in poly.monomials) % 2


def evaluate_path_sum(path_sum, num_qubits: int, input_bits) -> QuantumState:
    """Sum a symbolic path sum over all path-variable assignments (exact)."""
    state = QuantumState(num_qubits)
    normalisation = AlgebraicNumber(1, 0, 0, 0, path_sum.sqrt2_factors)
    variables = list(path_sum.path_variables)
    base = {f"x{i}": bit for i, bit in enumerate(input_bits)}
    for assignment in itertools.product((0, 1), repeat=len(variables)):
        environment = dict(base)
        environment.update(zip(variables, assignment))
        bits = tuple(_evaluate_bool(poly, environment) for poly in path_sum.outputs)
        units = path_sum.global_phase
        for monomial, coefficient in path_sum.phase.terms.items():
            if all(environment[v] for v in monomial):
                units += coefficient
        amplitude = AlgebraicNumber.omega_power(units % 8) * normalisation
        state[bits] = state[bits] + amplitude
    return state


def prefix_path_sum_states(circuit: Circuit, input_bits) -> List[QuantumState]:
    """Path-sum-evaluated states after every gate of ``circuit``."""
    checker = PathSumChecker()
    states = []
    for length in range(1, circuit.num_gates + 1):
        path_sum = checker.symbolic_execution(circuit[:length])
        states.append(evaluate_path_sum(path_sum, circuit.num_qubits, input_bits))
    return states


# --------------------------------------------------------------------------
# cross-mode oracle
# --------------------------------------------------------------------------

def cross_mode_oracle(
    circuit: Circuit,
    input_bits: Sequence[int],
    modes: Sequence[str] = AnalysisMode.ALL,
    runtime: Optional[GateRuntime] = None,
    include_path_sum: bool = False,
) -> OracleVerdict:
    """Run every semantics gate by gate; first disagreement wins.

    The statevector simulator is the reference; each enabled engine mode, the
    decision-diagram simulator and (optionally, it is the slowest) the
    path-sum evaluator must reproduce its state after every decomposed gate.
    Permutation mode is silently skipped for circuits containing gates its
    encoding does not support.  Engine exceptions count as divergences — a
    crash is a bug the corpus should remember.
    """
    gates = list(circuit.decomposed())
    usable = [
        mode
        for mode in modes
        if mode != AnalysisMode.PERMUTATION or all(supports_permutation(g) for g in gates)
    ]
    engines = {
        mode: CircuitEngine(mode=mode, runtime=runtime) for mode in usable
    }
    simulator = StateVectorSimulator()
    dd_simulator = DecisionDiagramSimulator()
    state = QuantumState.basis_state(circuit.num_qubits, input_bits)
    diagram = DDState.basis_state(circuit.num_qubits, input_bits, dd_simulator.manager)
    automata = {
        mode: basis_state_ta(circuit.num_qubits, input_bits) for mode in usable
    }
    pathsum_states = (
        prefix_path_sum_states(circuit, input_bits) if include_path_sum else None
    )
    for position, gate in enumerate(gates):
        state = simulator.apply_gate(state, gate)
        for mode in usable:
            try:
                automata[mode] = engines[mode].apply_gate(automata[mode], gate)
                enumerated = automata[mode].enumerate_states(limit=4)
            except Exception as error:  # noqa: BLE001 - crashes are findings
                return OracleVerdict(
                    ok=False,
                    check="cross-mode",
                    detail=f"TA/{mode} raised {error!r} applying gate {position} ({gate})",
                    gate_index=position,
                    mode=mode,
                )
            if enumerated != [state]:
                return OracleVerdict(
                    ok=False,
                    check="cross-mode",
                    detail=(
                        f"TA/{mode} diverged from the simulator after gate "
                        f"{position} ({gate})"
                    ),
                    gate_index=position,
                    mode=mode,
                    witness=repr(state),
                )
        diagram = dd_simulator.apply_gate(diagram, gate)
        if diagram.to_quantum_state() != state:
            return OracleVerdict(
                ok=False,
                check="cross-mode",
                detail=(
                    f"decision diagram diverged from the simulator after gate "
                    f"{position} ({gate})"
                ),
                gate_index=position,
                mode="decision-diagram",
                witness=repr(state),
            )
        if pathsum_states is not None:
            message = states_close(pathsum_states[position], state)
            if message is not None:
                return OracleVerdict(
                    ok=False,
                    check="cross-mode",
                    detail=(
                        f"path sum diverged from the simulator after gate "
                        f"{position} ({gate}): {message}"
                    ),
                    gate_index=position,
                    mode="path-sum",
                    witness=repr(state),
                )
    return OracleVerdict(ok=True, check="cross-mode")


# --------------------------------------------------------------------------
# boolean brute-force oracle
# --------------------------------------------------------------------------

def state_key(state: QuantumState) -> Tuple:
    """A hashable canonical key for one quantum state (= one labelled tree)."""
    return tuple(sorted((bits, amplitude.as_tuple()) for bits, amplitude in state.items()))


def boolean_universe(
    num_qubits: int, alphabet: Sequence[AlgebraicNumber]
) -> List[QuantumState]:
    """Every full tree of height ``num_qubits`` with leaves from ``alphabet``.

    This is the (finite) universe the complement is defined against: all
    ``len(alphabet) ** 2**num_qubits`` leaf assignments, including the
    all-zero tree when zero is in the alphabet.  Keep it tiny — the point is
    an *independent* ground truth, not scale.
    """
    leaves = 1 << num_qubits
    universe = []
    for assignment in itertools.product(alphabet, repeat=leaves):
        state = QuantumState(num_qubits)
        for index, amplitude in enumerate(assignment):
            if not amplitude.is_zero():
                state[int_to_bits(index, num_qubits)] = amplitude
        universe.append(state)
    return universe


def brute_language(
    automaton: TreeAutomaton, universe: Iterable[QuantumState]
) -> FrozenSet[Tuple]:
    """The automaton's language restricted to ``universe``, by membership tests."""
    return frozenset(state_key(state) for state in universe if automaton.accepts(state))


def boolean_oracle(
    left: TreeAutomaton,
    right: TreeAutomaton,
    alphabet: Optional[Sequence[AlgebraicNumber]] = None,
    operations: Sequence[str] = BOOLEAN_OPERATIONS,
) -> OracleVerdict:
    """Check boolean TA operations against brute-force language enumeration.

    For each requested operation the constructed automaton's language (by
    :meth:`~repro.ta.automaton.TreeAutomaton.accepts` over the whole universe)
    must equal the set-theoretic combination of the operands' brute-forced
    languages.  Unary ``complement`` applies to ``left``.
    """
    if alphabet is None:
        alphabet = boolean.leaf_alphabet(left, right)
    alphabet = tuple(dict.fromkeys(alphabet))
    universe = boolean_universe(left.num_qubits, alphabet)
    universe_by_key = {state_key(state): state for state in universe}
    language_left = brute_language(left, universe)
    language_right = brute_language(right, universe)
    expectations = {
        "union": language_left | language_right,
        "intersection": language_left & language_right,
        "complement": frozenset(universe_by_key) - language_left,
        "difference": language_left - language_right,
    }
    for operation in operations:
        if operation not in expectations:
            raise ValueError(
                f"unknown boolean operation {operation!r}; expected one of {BOOLEAN_OPERATIONS}"
            )
        try:
            if operation == "union":
                combined = left.union(right)
            elif operation == "intersection":
                combined = boolean.intersection(left, right)
            elif operation == "complement":
                combined = boolean.complement(left, alphabet)
            else:
                combined = boolean.difference(left, right, alphabet)
        except Exception as error:  # noqa: BLE001 - crashes are findings
            return OracleVerdict(
                ok=False,
                check="boolean",
                detail=f"{operation} raised {error!r}",
                operation=operation,
            )
        actual = brute_language(combined, universe)
        expected = expectations[operation]
        if actual != expected:
            mismatch = next(iter(actual.symmetric_difference(expected)))
            witness = universe_by_key[mismatch]
            wrongly_accepted = mismatch in actual
            return OracleVerdict(
                ok=False,
                check="boolean",
                detail=(
                    f"{operation}: TA {'accepts' if wrongly_accepted else 'rejects'} "
                    f"a tree the brute-force enumeration "
                    f"{'rejects' if wrongly_accepted else 'accepts'} "
                    f"({len(actual.symmetric_difference(expected))} trees differ)"
                ),
                operation=operation,
                witness=repr(witness),
            )
    return OracleVerdict(ok=True, check="boolean")


# --------------------------------------------------------------------------
# LintQ-style static pre-filter
# --------------------------------------------------------------------------

def _symmetric_variant(reference_gate: Gate, mutant_gate: Gate) -> bool:
    """True when the gates differ only by reordering exchangeable operands."""
    if reference_gate.kind != mutant_gate.kind:
        return False
    window = _SYMMETRIC_OPERANDS.get(reference_gate.kind)
    if window is None:
        return False
    fixed = reference_gate.qubits[window.stop:] == mutant_gate.qubits[window.stop:]
    return fixed and sorted(reference_gate.qubits[window]) == sorted(mutant_gate.qubits[window])


def static_prefilter(
    reference: Circuit,
    mutant: Circuit,
    record: Optional[MutationRecord] = None,
) -> Optional[str]:
    """Cheap syntactic triage: a reason string when the mutant is provably boring.

    Inspired by LintQ's static analyses: before building a single automaton,
    discard mutants a syntactic argument proves equivalent to their seed
    circuit — exercising the engine on them duplicates the seed case.  Sound
    rules only; ``None`` means "worth fuzzing".
    """
    if mutant.num_qubits == reference.num_qubits and list(mutant.gates) == list(reference.gates):
        return "identical-circuit"
    if record is None:
        return None
    if record.kind == "transpose":
        position = record.position
        if position + 1 < mutant.num_gates:
            first, second = mutant[position], mutant[position + 1]
            if not (set(first.qubits) & set(second.qubits)):
                return "commuting-transpose"
            if first.kind in DIAGONAL_GATES and second.kind in DIAGONAL_GATES:
                return "commuting-transpose"
    if record.kind in ("swap-operands", "reorder-qubits"):
        if mutant.num_gates == reference.num_gates and all(
            mutant_gate == reference_gate or _symmetric_variant(reference_gate, mutant_gate)
            for reference_gate, mutant_gate in zip(reference.gates, mutant.gates)
        ):
            return "symmetric-operands"
    return None
