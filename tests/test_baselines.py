"""Tests for the baseline equivalence checkers (path-sum, stimuli, unitary)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    PathSumChecker,
    PathSumVerdict,
    RandomStimuliChecker,
    StimuliVerdict,
    check_unitary_equivalence,
    unitaries_equal_up_to_phase,
)
from repro.baselines.pathsum import BoolPoly, PhasePoly
from repro.circuits import Circuit, inject_random_gate, random_circuit
from repro.simulator import circuit_unitary


class TestBoolPoly:
    def test_xor_and_and(self):
        a, b = BoolPoly.variable("a"), BoolPoly.variable("b")
        assert (a ^ a).is_zero()
        assert (a ^ BoolPoly.zero()) == a
        assert (a & BoolPoly.one()) == a
        assert (a & BoolPoly.zero()).is_zero()
        ab = a & b
        assert ab.variables() == frozenset({"a", "b"})

    def test_substitute(self):
        a, b, c = (BoolPoly.variable(name) for name in "abc")
        poly = (a & b) ^ c
        substituted = poly.substitute("b", c)
        # a*c ^ c
        assert substituted == ((a & c) ^ c)

    def test_is_variable(self):
        assert BoolPoly.variable("x0").is_variable() == "x0"
        assert (BoolPoly.variable("x0") ^ BoolPoly.one()).is_variable() is None

    def test_repr(self):
        assert repr(BoolPoly.zero()) == "0"
        assert "a" in repr(BoolPoly.variable("a"))


class TestPhasePoly:
    def test_add_term_mod_8(self):
        phase = PhasePoly.zero().add_term(4, BoolPoly.variable("a"))
        phase = phase.add_term(4, BoolPoly.variable("a"))
        assert phase.is_zero()

    def test_xor_lifting(self):
        # lift(a ^ b) = a + b - 2ab
        phase = PhasePoly.zero().add_term(1, BoolPoly.variable("a") ^ BoolPoly.variable("b"))
        assert phase.coefficient({"a"}) == 1
        assert phase.coefficient({"b"}) == 1
        assert phase.coefficient({"a", "b"}) == 6  # -2 mod 8

    def test_factor_out(self):
        phase = PhasePoly.zero().add_term(4, BoolPoly.variable("y") & BoolPoly.variable("x"))
        phase = phase.add_term(2, BoolPoly.variable("x"))
        quotient, remainder = phase.factor_out("y")
        assert quotient.coefficient({"x"}) == 4
        assert remainder.coefficient({"x"}) == 2


class TestPathSumChecker:
    def test_empty_circuit_is_identity(self):
        checker = PathSumChecker()
        path_sum = checker.symbolic_execution(Circuit(3))
        assert path_sum.is_identity(3)

    def test_self_equivalence_of_clifford_t_circuit(self):
        circuit = Circuit(2).add("h", 0).add("t", 0).add("cx", 0, 1).add("s", 1).add("h", 1)
        result = PathSumChecker().check_equivalence(circuit, circuit.copy())
        assert result.verdict == PathSumVerdict.EQUAL
        assert bool(result)

    def test_classical_circuits_get_definitive_answers(self):
        reference = Circuit(3).add("ccx", 0, 1, 2).add("cx", 0, 1)
        buggy = reference.copy().add("x", 2)
        assert PathSumChecker().check_equivalence(reference, reference.copy()).verdict == PathSumVerdict.EQUAL
        assert PathSumChecker().check_equivalence(reference, buggy).verdict == PathSumVerdict.NOT_EQUAL

    def test_phase_bug_in_classical_circuit_detected(self):
        reference = Circuit(2).add("cx", 0, 1)
        buggy = Circuit(2).add("cx", 0, 1).add("z", 0)
        assert PathSumChecker().check_equivalence(reference, buggy).verdict == PathSumVerdict.NOT_EQUAL

    def test_simple_hadamard_identities(self):
        double_h = Circuit(1).add("h", 0).add("h", 0)
        assert PathSumChecker().check_equivalence(double_h, Circuit(1)).verdict == PathSumVerdict.EQUAL

    def test_width_mismatch(self):
        result = PathSumChecker().check_equivalence(Circuit(2).add("x", 0), Circuit(3).add("x", 0))
        assert result.verdict == PathSumVerdict.NOT_EQUAL

    def test_rotation_adjoint_is_inconclusive(self):
        circuit = Circuit(1).add("rx", 0)
        result = PathSumChecker().check_equivalence(circuit, circuit.copy())
        assert result.verdict == PathSumVerdict.INCONCLUSIVE

    def test_monomial_budget_gives_inconclusive(self):
        checker = PathSumChecker(max_monomials=4)
        circuit = random_circuit(5, num_gates=30, seed=12)
        result = checker.check_equivalence(circuit, circuit.copy())
        assert result.verdict in (PathSumVerdict.INCONCLUSIVE, PathSumVerdict.EQUAL)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=20, deadline=None)
    def test_soundness_against_brute_force(self, seed):
        """'equal' and 'not_equal' verdicts must agree with the unitary ground truth."""
        import random

        rng = random.Random(seed)
        first = random_circuit(3, num_gates=10, seed=seed)
        if rng.random() < 0.5:
            second = first.copy()
        else:
            second, _ = inject_random_gate(first, seed=seed + 1000)
        verdict = PathSumChecker().check_equivalence(first, second).verdict
        if verdict == PathSumVerdict.INCONCLUSIVE:
            return
        truth = check_unitary_equivalence(first, second).equivalent
        assert (verdict == PathSumVerdict.EQUAL) == truth


class TestRandomStimuli:
    def test_equal_circuits_report_probably_equal(self):
        circuit = random_circuit(4, num_gates=12, seed=3)
        result = RandomStimuliChecker(num_stimuli=6, seed=0).check_equivalence(circuit, circuit.copy())
        assert result.verdict == StimuliVerdict.PROBABLY_EQUAL
        assert result.stimuli_tried >= 1
        assert not bool(result)

    def test_detects_classical_bug(self):
        reference = Circuit(3).add("cx", 0, 2)
        buggy = Circuit(3).add("cx", 0, 2).add("x", 1)
        result = RandomStimuliChecker(num_stimuli=8, seed=0).check_equivalence(reference, buggy)
        assert result.verdict == StimuliVerdict.NOT_EQUAL
        assert result.witness_input is not None

    def test_misses_phase_bug_on_basis_stimuli(self):
        # a CZ only changes the phase of |11>; basis stimuli outputs differ...
        # but a Z *after a Hadamard-free circuit* on |0> inputs is invisible:
        reference = Circuit(2)
        buggy = Circuit(2).add("cz", 0, 1)
        # with only the all-zero stimulus the difference cannot be observed
        checker = RandomStimuliChecker(num_stimuli=1, seed=0)
        result = checker.check_equivalence(reference, buggy)
        assert result.verdict == StimuliVerdict.PROBABLY_EQUAL

    def test_number_of_stimuli_is_bounded_by_basis_size(self):
        circuit = Circuit(2).add("x", 0)
        result = RandomStimuliChecker(num_stimuli=100, seed=1).check_equivalence(circuit, circuit.copy())
        assert result.stimuli_tried <= 4

    def test_width_mismatch(self):
        result = RandomStimuliChecker().check_equivalence(Circuit(2).add("x", 0), Circuit(3).add("x", 0))
        assert result.verdict == StimuliVerdict.NOT_EQUAL


class TestUnitaryBaseline:
    def test_equal_circuits(self):
        circuit = random_circuit(3, num_gates=9, seed=5)
        assert check_unitary_equivalence(circuit, circuit.copy()).equivalent

    def test_global_phase_is_ignored(self):
        reference = Circuit(1).add("x", 0)
        # Z X Z = -X: same unitary up to the global phase -1
        phased = Circuit(1).add("z", 0).add("x", 0).add("z", 0)
        assert check_unitary_equivalence(reference, phased).equivalent

    def test_detects_difference(self):
        reference = Circuit(2).add("h", 0)
        buggy = Circuit(2).add("h", 0).add("t", 0)
        result = check_unitary_equivalence(reference, buggy)
        assert not result.equivalent
        assert result.max_deviation > 0

    def test_size_limit(self):
        with pytest.raises(ValueError):
            check_unitary_equivalence(Circuit(13).add("x", 0), Circuit(13).add("x", 0))

    def test_unitaries_equal_up_to_phase_helper(self):
        import numpy as np

        unitary = circuit_unitary(Circuit(2).add("h", 0).add("cx", 0, 1))
        assert unitaries_equal_up_to_phase(unitary, unitary * np.exp(0.3j))
        assert not unitaries_equal_up_to_phase(unitary, np.eye(4, dtype=complex))
        assert not unitaries_equal_up_to_phase(unitary, unitary * 2.0)
        assert not unitaries_equal_up_to_phase(unitary, np.eye(8, dtype=complex))
