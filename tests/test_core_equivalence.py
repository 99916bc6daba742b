"""Tests for circuit non-equivalence checking and the incremental bug hunter."""

import pytest

from repro.benchgen import build_family
from repro.circuits import Circuit, inject_random_gate, random_circuit
from repro.core import IncrementalBugHunter, check_circuit_equivalence, verify_triple
from repro.core import equivalence as equivalence_module
from repro.core.engine import AnalysisMode, GateRuntime, default_gate_runtime
from repro.simulator import StateVectorSimulator
from repro.states import QuantumState
from repro.ta import all_basis_states_ta, basis_state_ta


class TestCheckCircuitEquivalence:
    def test_identical_circuits_have_equal_outputs(self):
        circuit = random_circuit(4, num_gates=12, seed=1)
        outcome = check_circuit_equivalence(circuit, circuit.copy(), basis_state_ta(4, "0000"))
        assert not outcome.non_equivalent
        assert outcome.witness is None
        assert not bool(outcome)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_circuit_equivalence(Circuit(2).add("x", 0), Circuit(3).add("x", 0), basis_state_ta(2, "00"))

    def test_detects_extra_x_gate(self):
        reference = Circuit(3).add("h", 0).add("cx", 0, 1)
        buggy = reference.copy().add("x", 2)
        outcome = check_circuit_equivalence(reference, buggy, basis_state_ta(3, "000"))
        assert outcome.non_equivalent
        assert outcome.witness is not None
        assert outcome.witness_side in ("first-only", "second-only")

    def test_witness_is_reachable_in_exactly_one_circuit(self, simulator):
        reference = random_circuit(3, num_gates=9, seed=4)
        buggy, _ = inject_random_gate(reference, seed=10)
        inputs = all_basis_states_ta(3)
        outcome = check_circuit_equivalence(reference, buggy, inputs)
        if outcome.non_equivalent:
            ref_outputs = [simulator.run(reference, s) for s in inputs.enumerate_states()]
            bug_outputs = [simulator.run(buggy, s) for s in inputs.enumerate_states()]
            in_ref = outcome.witness in ref_outputs
            in_bug = outcome.witness in bug_outputs
            assert in_ref != in_bug

    def test_phase_bug_invisible_to_measurement_is_caught(self):
        # a Z on a |+> state changes the state but not the measurement distribution
        reference = Circuit(2).add("h", 0)
        buggy = Circuit(2).add("h", 0).add("z", 0)
        outcome = check_circuit_equivalence(reference, buggy, basis_state_ta(2, "00"))
        assert outcome.non_equivalent

    def test_global_phase_difference_is_reported(self):
        # AutoQ compares state sets exactly, so a global phase does count as different
        reference = Circuit(1).add("x", 0)
        phased = Circuit(1).add("x", 0).add("z", 0).add("x", 0).add("z", 0).add("x", 0)
        outcome = check_circuit_equivalence(reference, phased, basis_state_ta(1, "0"))
        assert outcome.non_equivalent

    def test_timings_are_recorded(self):
        circuit = Circuit(2).add("h", 0)
        outcome = check_circuit_equivalence(circuit, circuit.copy(), basis_state_ta(2, "00"))
        assert outcome.analysis_seconds >= 0
        assert outcome.comparison_seconds >= 0


class TestIncrementalBugHunter:
    def test_finds_injected_bug(self):
        reference = random_circuit(4, num_gates=12, seed=21)
        buggy, _ = inject_random_gate(reference, seed=22)
        hunter = IncrementalBugHunter(seed=0)
        result = hunter.hunt(reference, buggy)
        assert result.bug_found
        assert result.iterations >= 1
        assert result.witness is not None
        assert result.final_input_size >= 1
        assert bool(result)

    def test_identical_circuits_yield_no_bug(self):
        reference = random_circuit(3, num_gates=9, seed=30)
        hunter = IncrementalBugHunter(seed=0, max_iterations=3)
        result = hunter.hunt(reference, reference.copy())
        assert not result.bug_found
        assert result.iterations == 3
        assert not bool(result)

    def test_iteration_budget_is_respected(self):
        reference = random_circuit(3, num_gates=9, seed=31)
        hunter = IncrementalBugHunter(seed=0, max_iterations=2)
        result = hunter.hunt(reference, reference.copy())
        assert result.iterations <= 2

    def test_width_mismatch_rejected(self):
        hunter = IncrementalBugHunter()
        with pytest.raises(ValueError):
            hunter.hunt(Circuit(2).add("x", 0), Circuit(3).add("x", 0))

    def test_initial_basis_can_be_chosen(self):
        reference = Circuit(2).add("cx", 0, 1)
        buggy = Circuit(2).add("cx", 0, 1).add("x", 1)
        hunter = IncrementalBugHunter(seed=0, max_iterations=1)
        result = hunter.hunt(reference, buggy, initial_basis=(1, 0))
        assert result.bug_found
        assert result.iterations == 1

    def test_bug_only_visible_on_non_initial_input_requires_iterations(self):
        # the bug (an extra CZ) only manifests when qubit 0 is |1> and qubit 1 is |1>
        reference = Circuit(2)
        buggy = Circuit(2).add("cz", 0, 1)
        hunter = IncrementalBugHunter(seed=3)
        result = hunter.hunt(reference, buggy, initial_basis=(0, 0))
        assert result.bug_found
        assert result.iterations > 1

    def test_per_iteration_times_recorded(self):
        reference = random_circuit(3, num_gates=6, seed=33)
        buggy, _ = inject_random_gate(reference, seed=34)
        result = IncrementalBugHunter(seed=1).hunt(reference, buggy)
        assert len(result.per_iteration_seconds) == result.iterations

    def test_composition_mode_hunt(self):
        reference = Circuit(2).add("h", 0).add("cx", 0, 1)
        buggy = Circuit(2).add("h", 0).add("cx", 0, 1).add("s", 1)
        result = IncrementalBugHunter(mode=AnalysisMode.COMPOSITION, seed=0).hunt(reference, buggy)
        assert result.bug_found


class TestRuntimeOwnership:
    """Runtime-less calls build one private runtime per comparison or hunt
    and never fall back to the campaign pool workers' runtime."""

    @staticmethod
    def _spy_on_run_circuit(monkeypatch):
        runtimes = []
        real = equivalence_module.run_circuit

        def spy(*args, **kwargs):
            runtimes.append(kwargs.get("runtime"))
            return real(*args, **kwargs)

        monkeypatch.setattr(equivalence_module, "run_circuit", spy)
        return runtimes

    def test_runtime_less_calls_leave_the_worker_runtime_cold(self):
        bench = build_family("bv", 3)
        verify_triple(bench.precondition, bench.circuit, bench.postcondition)
        reference = random_circuit(3, num_gates=9, seed=30)
        buggy, _ = inject_random_gate(reference, seed=22)
        check_circuit_equivalence(reference, buggy, all_basis_states_ta(3))
        IncrementalBugHunter(seed=0, max_iterations=3).hunt(reference, buggy)
        assert default_gate_runtime().memo_stats() == {"size": 0, "hits": 0, "misses": 0}

    def test_both_circuits_of_one_comparison_share_a_runtime(self, monkeypatch):
        runtimes = self._spy_on_run_circuit(monkeypatch)
        circuit = random_circuit(3, num_gates=9, seed=30)
        check_circuit_equivalence(circuit, circuit.copy(), all_basis_states_ta(3))
        check_circuit_equivalence(circuit, circuit.copy(), all_basis_states_ta(3))
        assert len(runtimes) == 4
        assert isinstance(runtimes[0], GateRuntime)
        assert runtimes[1] is runtimes[0]
        assert runtimes[3] is runtimes[2] is not runtimes[0]  # one per call

    def test_every_iteration_of_one_hunt_shares_a_runtime(self, monkeypatch):
        runtimes = self._spy_on_run_circuit(monkeypatch)
        reference = random_circuit(3, num_gates=9, seed=30)
        result = IncrementalBugHunter(seed=0, max_iterations=3).hunt(reference, reference.copy())
        assert len(runtimes) == 2 * result.iterations == 6
        assert isinstance(runtimes[0], GateRuntime)
        assert all(runtime is runtimes[0] for runtime in runtimes)
