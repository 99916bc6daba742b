"""Tests for the controlled-phase gate extensions (cs, csdg, ct, ctdg).

These gates are not part of the paper's Table 1 but are diagonal controlled
phases that the framework supports without any new machinery: the permutation
based encoding treats them like CZ (a scaled |11> branch) and the composition
based encoding gets them from a three-term update formula.  They are used by
the approximate-QFT benchmark generator.
"""

from __future__ import annotations

import pytest

from repro.algebraic import ONE, AlgebraicNumber, gate_matrix, is_unitary, matvec
from repro.baselines import PathSumChecker, PathSumVerdict
from repro.circuits import Circuit, Gate
from repro.circuits.qasm import parse_qasm, to_qasm
from repro.core import (
    AnalysisMode,
    apply_composition_gate,
    apply_gate_to_state,
    apply_permutation_gate,
    run_circuit,
    supports_permutation,
)
from repro.simulator import StateVectorSimulator
from repro.states import QuantumState, bits_to_int, int_to_bits
from repro.ta import check_equivalence, from_quantum_state, from_quantum_states

NEW_GATES = ("cs", "csdg", "ct", "ctdg")

OMEGA = AlgebraicNumber(0, 1, 0, 0, 0)
OMEGA2 = AlgebraicNumber(0, 0, 1, 0, 0)


def _random_like_state(num_qubits: int) -> QuantumState:
    """A fixed, fully-populated unnormalised state with varied exact amplitudes."""
    state = QuantumState(num_qubits)
    for index in range(1 << num_qubits):
        bits = int_to_bits(index, num_qubits)
        state[bits] = AlgebraicNumber(index + 1, index % 3 - 1, (index * 7) % 5 - 2, -index % 4, index % 2)
    return state


# --------------------------------------------------------------------------- matrices
@pytest.mark.parametrize("kind", NEW_GATES)
def test_new_matrices_are_unitary(kind):
    assert is_unitary(gate_matrix(kind))


def test_cs_matrix_phase_entries():
    matrix = gate_matrix("cs")
    assert matrix[3][3] == OMEGA2
    assert gate_matrix("ct")[3][3] == OMEGA
    assert gate_matrix("csdg")[3][3] == -OMEGA2
    assert gate_matrix("ctdg")[3][3] == OMEGA.conjugate()
    for row in range(3):
        assert matrix[row][row] == ONE


def test_cs_equals_ct_squared_as_matrix():
    ct = gate_matrix("ct")
    from repro.algebraic import matmul

    assert matmul(ct, ct) == gate_matrix("cs")


# --------------------------------------------------------------------------- gate model
@pytest.mark.parametrize("kind", NEW_GATES)
def test_gate_model_accepts_new_kinds(kind):
    gate = Gate(kind, (0, 2))
    assert gate.target == 2
    assert gate.controls == (0,)
    assert supports_permutation(gate)


def test_dagger_pairs():
    assert Gate("cs", (0, 1)).dagger() == Gate("csdg", (0, 1))
    assert Gate("csdg", (0, 1)).dagger() == Gate("cs", (0, 1))
    assert Gate("ct", (1, 0)).dagger() == Gate("ctdg", (1, 0))
    assert Gate("ctdg", (1, 0)).dagger() == Gate("ct", (1, 0))


def test_duplicate_operands_rejected():
    with pytest.raises(ValueError):
        Gate("cs", (1, 1))


# --------------------------------------------------------------------------- semantics
@pytest.mark.parametrize("kind", NEW_GATES)
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 2), (2, 0)])
def test_formula_matches_matrix_semantics(kind, qubits, simulator):
    num_qubits = 3
    gate = Gate(kind, qubits)
    state = _random_like_state(num_qubits)
    via_formula = apply_gate_to_state(gate, state)
    via_matrix = simulator.apply_gate(state, gate)
    assert via_formula == via_matrix


@pytest.mark.parametrize("kind", NEW_GATES)
def test_controlled_phase_only_touches_11_branch(kind, simulator):
    gate = Gate(kind, (0, 1))
    for index in range(4):
        state = QuantumState.basis_state(2, index)
        result = simulator.apply_gate(state, gate)
        bits = int_to_bits(index, 2)
        if bits == (1, 1):
            phase = {"cs": OMEGA2, "csdg": -OMEGA2, "ct": OMEGA, "ctdg": OMEGA.conjugate()}[kind]
            assert result[bits] == phase
        else:
            assert result[bits] == ONE
        assert result.nonzero_count() == 1


@pytest.mark.parametrize("kind", NEW_GATES)
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (2, 0)])
def test_permutation_and_composition_agree(kind, qubits, simulator):
    gate = Gate(kind, qubits)
    assert supports_permutation(gate)
    inputs = [QuantumState.basis_state(3, i) for i in (0, 3, 5, 7)]
    automaton = from_quantum_states(inputs)
    via_permutation = apply_permutation_gate(automaton, gate)
    via_composition = apply_composition_gate(automaton, gate)
    assert check_equivalence(via_permutation.reduce(), via_composition.reduce()).equivalent
    expected = from_quantum_states([simulator.apply_gate(state, gate) for state in inputs])
    assert check_equivalence(via_permutation.reduce(), expected).equivalent


@pytest.mark.parametrize("mode", [AnalysisMode.HYBRID, AnalysisMode.COMPOSITION])
def test_gate_and_its_dagger_cancel_on_ta(mode):
    circuit = Circuit(2).add("h", 0).add("h", 1).add("cs", 0, 1).add("csdg", 0, 1)
    precondition = from_quantum_state(QuantumState.zero_state(2))
    reference = Circuit(2).add("h", 0).add("h", 1)
    got = run_circuit(circuit, precondition, mode=mode).output
    expected = run_circuit(reference, precondition, mode=mode).output
    assert check_equivalence(got, expected).equivalent


def test_cs_equals_two_ct_via_engine():
    lhs = Circuit(2).add("h", 0).add("h", 1).add("cs", 0, 1)
    rhs = Circuit(2).add("h", 0).add("h", 1).add("ct", 0, 1).add("ct", 0, 1)
    precondition = from_quantum_state(QuantumState.zero_state(2))
    left = run_circuit(lhs, precondition).output
    right = run_circuit(rhs, precondition).output
    assert check_equivalence(left, right).equivalent


def test_cs_differs_from_cz_on_superposition():
    lhs = Circuit(2).add("h", 0).add("h", 1).add("cs", 0, 1)
    rhs = Circuit(2).add("h", 0).add("h", 1).add("cz", 0, 1)
    precondition = from_quantum_state(QuantumState.zero_state(2))
    left = run_circuit(lhs, precondition).output
    right = run_circuit(rhs, precondition).output
    result = check_equivalence(left, right)
    assert not result.equivalent
    assert result.counterexample is not None


# --------------------------------------------------------------------------- integrations
def test_qasm_round_trip_with_new_gates():
    circuit = (
        Circuit(3, name="ext")
        .add("h", 0)
        .add("cs", 0, 1)
        .add("ct", 1, 2)
        .add("csdg", 2, 0)
        .add("ctdg", 0, 2)
    )
    text = to_qasm(circuit)
    parsed = parse_qasm(text)
    assert list(parsed) == list(circuit)


def test_pathsum_proves_cs_equals_ct_ct():
    lhs = Circuit(2).add("cs", 0, 1)
    rhs = Circuit(2).add("ct", 0, 1).add("ct", 0, 1)
    result = PathSumChecker().check_equivalence(lhs, rhs)
    assert result.verdict == PathSumVerdict.EQUAL


def test_pathsum_detects_cs_vs_csdg():
    lhs = Circuit(2).add("h", 0).add("h", 1).add("cs", 0, 1)
    rhs = Circuit(2).add("h", 0).add("h", 1).add("csdg", 0, 1)
    result = PathSumChecker().check_equivalence(lhs, rhs)
    assert result.verdict != PathSumVerdict.EQUAL


def test_dense_and_sparse_simulators_agree_on_new_gates():
    from repro.simulator.dense import simulate_dense

    circuit = Circuit(3).add("h", 0).add("h", 1).add("h", 2).add("cs", 0, 1).add("ct", 1, 2).add("csdg", 0, 2)
    sparse = StateVectorSimulator().run(circuit, QuantumState.zero_state(3))
    dense = simulate_dense(circuit)
    for index in range(8):
        bits = int_to_bits(index, 3)
        assert abs(sparse[bits].to_complex() - dense[bits_to_int(bits)]) < 1e-9
