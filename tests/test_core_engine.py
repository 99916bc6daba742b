"""Tests for the circuit execution engine (Hybrid / Composition / Permutation modes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, Gate, random_circuit
from repro.core.engine import AnalysisMode, CircuitEngine, GateRuntime, run_circuit
from repro.core.formulas import apply_gate_to_state
from repro.simulator import StateVectorSimulator
from repro.states import QuantumState
from repro.ta import basis_product_ta, basis_state_ta, check_equivalence, from_quantum_state, from_quantum_states


def reference_output(circuit, input_states):
    simulator = StateVectorSimulator()
    return from_quantum_states([simulator.run(circuit, state) for state in input_states])


class TestEngineConfiguration:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CircuitEngine(mode="turbo")

    def test_width_mismatch_rejected(self):
        engine = CircuitEngine()
        with pytest.raises(ValueError):
            engine.run(Circuit(3).add("h", 0), basis_state_ta(2, "00"))

    def test_swap_must_be_decomposed_for_apply_gate(self):
        engine = CircuitEngine()
        with pytest.raises(ValueError):
            engine.apply_gate(basis_state_ta(2, "00"), Gate("swap", (0, 1)))

    def test_run_accepts_swap_via_decomposition(self):
        circuit = Circuit(2).add("swap", 0, 1)
        result = run_circuit(circuit, basis_state_ta(2, "01"))
        assert result.output.accepts(QuantumState.basis_state(2, "10"))

    def test_permutation_mode_rejects_hadamard(self):
        from repro.core.permutation import PermutationUnsupported

        engine = CircuitEngine(mode=AnalysisMode.PERMUTATION)
        with pytest.raises(PermutationUnsupported):
            engine.run(Circuit(2).add("h", 0), basis_state_ta(2, "00"))


class TestStatistics:
    def test_statistics_counts_gate_kinds(self):
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1).add("t", 1)
        result = run_circuit(circuit, basis_state_ta(2, "00"), mode=AnalysisMode.HYBRID)
        stats = result.statistics
        assert stats.gates_total == 3
        assert stats.gates_permutation == 2  # cx and t
        assert stats.gates_composition == 1  # h
        assert len(stats.per_gate_seconds) == 3
        assert stats.max_states >= 1
        assert stats.analysis_seconds >= 0

    def test_composition_mode_uses_composition_for_everything(self):
        circuit = Circuit(2).add("x", 0).add("cx", 0, 1)
        result = run_circuit(circuit, basis_state_ta(2, "00"), mode=AnalysisMode.COMPOSITION)
        assert result.statistics.gates_composition == 2
        assert result.statistics.gates_permutation == 0

    def test_mode_is_recorded(self):
        result = run_circuit(Circuit(2).add("x", 0), basis_state_ta(2, "00"))
        assert result.mode == AnalysisMode.HYBRID

    def test_timing_accessors(self):
        from repro.core.engine import EngineStatistics

        stats = EngineStatistics()
        automaton = basis_state_ta(2, "00")
        for elapsed in (0.4, 0.1, 0.3, 0.2):
            stats.record(automaton, elapsed, used_permutation=True)
        assert stats.total_gate_seconds == pytest.approx(1.0)
        assert stats.mean_gate_seconds == pytest.approx(0.25)
        assert stats.percentile_gate_seconds(0) == pytest.approx(0.1)
        assert stats.percentile_gate_seconds(50) == pytest.approx(0.2)
        assert stats.percentile_gate_seconds(90) == pytest.approx(0.4)
        assert stats.percentile_gate_seconds(100) == pytest.approx(0.4)

    def test_percentile_exact_integer_ranks_do_not_overshoot(self):
        from repro.core.engine import EngineStatistics

        stats = EngineStatistics()
        automaton = basis_state_ta(2, "00")
        for value in range(1, 101):  # samples 0.01 .. 1.00
            stats.record(automaton, value / 100.0, used_permutation=True)
        # 55/100.0*100 floats to 55.000...01; the rank math must not overshoot
        for percentile in (7, 14, 28, 55, 56):
            assert stats.percentile_gate_seconds(percentile) == pytest.approx(percentile / 100.0)

    def test_timing_accessors_on_empty_statistics(self):
        from repro.core.engine import EngineStatistics

        stats = EngineStatistics()
        assert stats.total_gate_seconds == 0.0
        assert stats.mean_gate_seconds == 0.0
        assert stats.percentile_gate_seconds(50) == 0.0

    def test_percentile_range_is_validated(self):
        from repro.core.engine import EngineStatistics

        with pytest.raises(ValueError):
            EngineStatistics().percentile_gate_seconds(101)
        with pytest.raises(ValueError):
            EngineStatistics().percentile_gate_seconds(-1)

    def test_to_dict_is_json_ready(self):
        import json

        circuit = Circuit(2).add("h", 0).add("cx", 0, 1)
        result = run_circuit(circuit, basis_state_ta(2, "00"))
        payload = result.statistics.to_dict()
        assert payload["gates_total"] == 2
        assert payload["gates_permutation"] == 1
        assert payload["gates_composition"] == 1
        assert payload["total_gate_seconds"] == pytest.approx(
            result.statistics.analysis_seconds
        )
        assert payload["p50_gate_seconds"] <= payload["p90_gate_seconds"] <= payload["max_gate_seconds"]
        assert "per_gate_seconds" not in payload
        json.dumps(payload)  # must round-trip through JSON for the campaign report


class TestEngineCorrectness:
    def test_epr_circuit_produces_bell_state(self, epr_circuit, simulator):
        result = run_circuit(epr_circuit, basis_state_ta(2, "00"))
        expected = simulator.run(epr_circuit, QuantumState.zero_state(2))
        assert result.output.accepts(expected)
        assert len(result.output.enumerate_states()) == 1

    def test_ghz_circuit(self, ghz_circuit, simulator):
        result = run_circuit(ghz_circuit, basis_state_ta(3, "000"))
        expected = simulator.run(ghz_circuit, QuantumState.zero_state(3))
        assert check_equivalence(result.output, from_quantum_state(expected)).equivalent

    def test_hybrid_falls_back_for_reversed_cnot(self, simulator):
        circuit = Circuit(2).add("x", 1).add("cx", 1, 0)  # control below target
        result = run_circuit(circuit, basis_state_ta(2, "00"))
        expected = simulator.run(circuit, QuantumState.zero_state(2))
        assert result.output.accepts(expected)
        assert result.statistics.gates_composition >= 1

    def test_no_reduction_option_gives_same_language(self):
        circuit = random_circuit(3, num_gates=8, seed=5)
        reduced = run_circuit(circuit, basis_state_ta(3, "000"), reduce_after_each_gate=True)
        unreduced = run_circuit(circuit, basis_state_ta(3, "000"), reduce_after_each_gate=False)
        assert check_equivalence(reduced.output, unreduced.output).equivalent

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_hybrid_matches_simulator_on_random_circuits(self, seed):
        import random

        rng = random.Random(seed)
        num_qubits = rng.randint(2, 4)
        circuit = random_circuit(num_qubits, num_gates=10, seed=seed)
        allowed = [rng.choice([{0}, {1}, {0, 1}]) for _ in range(num_qubits)]
        inputs = basis_product_ta(num_qubits, allowed)
        input_states = inputs.enumerate_states()
        result = run_circuit(circuit, inputs, mode=AnalysisMode.HYBRID)
        assert check_equivalence(result.output, reference_output(circuit, input_states)).equivalent

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=8, deadline=None)
    def test_composition_matches_simulator_on_random_circuits(self, seed):
        circuit = random_circuit(3, num_gates=8, seed=seed)
        inputs = basis_state_ta(3, "000")
        result = run_circuit(circuit, inputs, mode=AnalysisMode.COMPOSITION)
        expected = reference_output(circuit, [QuantumState.zero_state(3)])
        assert check_equivalence(result.output, expected).equivalent

    def test_hybrid_and_composition_agree(self):
        circuit = random_circuit(3, num_gates=12, seed=77)
        inputs = basis_product_ta(3, [{0, 1}, {0}, {0, 1}])
        hybrid = run_circuit(circuit, inputs, mode=AnalysisMode.HYBRID)
        composition = run_circuit(circuit, inputs, mode=AnalysisMode.COMPOSITION)
        assert check_equivalence(hybrid.output, composition.output).equivalent


class TestPhaseTimings:
    """PR-3: the engine records per-phase wall-clock, not just per-gate."""

    def test_hybrid_run_records_phases(self):
        # runtime-less: a cold private memo, so no memo hit skips the phases
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1).add("t", 1)
        result = run_circuit(circuit, basis_state_ta(2, "00"))
        phases = result.statistics.phase_seconds
        # H goes through the composition pipeline, CX/T through permutation,
        # and every gate is reduced afterwards
        for name in ("tag", "terms", "bin", "untag", "permutation", "reduce"):
            assert name in phases, f"missing phase {name!r} in {sorted(phases)}"
            assert phases[name] >= 0.0
        assert "phase_seconds" in result.statistics.to_dict()

    def test_phase_total_is_bounded_by_analysis_time(self):
        circuit = Circuit(3).add("h", 0).add("cx", 0, 1).add("ccx", 0, 1, 2)
        result = run_circuit(circuit, basis_state_ta(3, "000"))
        statistics = result.statistics
        assert sum(statistics.phase_seconds.values()) <= statistics.analysis_seconds + 1e-6


class TestGateApplicationCache:
    """PR-3: repeated (automaton, gate) pairs are memoised per process."""

    def test_identical_applications_hit_the_cache(self):
        engine = CircuitEngine(mode=AnalysisMode.HYBRID)
        automaton = basis_state_ta(2, "00")
        gate = Gate("h", (0,))
        first = engine.apply_gate(automaton, gate)
        assert engine.runtime.memo_stats()["hits"] == 0
        second = engine.apply_gate(basis_state_ta(2, "00"), gate)
        assert engine.runtime.memo_stats()["hits"] == 1
        assert second is first  # the memo returns the shared reduced instance

    def test_cache_respects_engine_settings(self):
        runtime = GateRuntime()  # one memo for both engines
        automaton = basis_state_ta(2, "00")
        gate = Gate("h", (0,))
        hybrid = CircuitEngine(mode=AnalysisMode.HYBRID, runtime=runtime).apply_gate(
            automaton, gate)
        composition = CircuitEngine(mode=AnalysisMode.COMPOSITION, runtime=runtime).apply_gate(
            automaton, gate)
        assert runtime.memo_stats()["hits"] == 0  # different mode -> different key
        assert check_equivalence(hybrid, composition).equivalent

    def test_cached_result_is_correct_across_inputs(self):
        engine = CircuitEngine(mode=AnalysisMode.HYBRID)
        gate = Gate("h", (1,))
        for bits in ("00", "01", "10", "11", "00"):
            output = engine.apply_gate(basis_state_ta(2, bits), gate)
            expected = from_quantum_state(
                apply_gate_to_state(gate, QuantumState.basis_state(2, bits))
            )
            assert check_equivalence(output, expected).equivalent
