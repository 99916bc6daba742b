"""Ablation benchmarks for the design choices listed below.

* lightweight reduction after each gate — on vs. off,
* Hybrid vs. Composition engine settings on the same workload,
* incremental bug-hunting strategy vs. starting from the full basis-state set,
* sparse-map vs. decision-diagram state representation in the simulator,
* the stabilizer-tableau baseline vs. the TA-based check on a Clifford bug.

These are not rows of a paper table; they quantify the paper's qualitative
statements ("we use a lightweight reduction to keep the obtained TAs small",
"Hybrid is consistently faster than Composition", "running the analysis with a
TA representing all possible basis states might be too challenging").  The
inputs the reproduction builds in place of the paper's are listed in the
Substitutions section of docs/architecture.md.
"""

import pytest

from repro.baselines import StabilizerChecker, StabilizerVerdict
from repro.benchgen import bv_benchmark, ghz_circuit, grover_single_benchmark
from repro.circuits import inject_random_gate, random_circuit
from repro.core import (
    AnalysisMode,
    IncrementalBugHunter,
    check_circuit_equivalence,
    run_circuit,
    verify_triple,
)
from repro.ta import all_basis_states_ta


class TestReductionAblation:
    @pytest.mark.parametrize("reduce_after_each_gate", [True, False])
    def test_bv_with_and_without_reduction(self, benchmark, reduce_after_each_gate):
        bench = bv_benchmark(10)
        result = benchmark.pedantic(
            run_circuit,
            args=(bench.circuit, bench.precondition),
            kwargs={"reduce_after_each_gate": reduce_after_each_gate},
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info.update(
            {
                "reduction": reduce_after_each_gate,
                "max_states": result.statistics.max_states,
                "max_transitions": result.statistics.max_transitions,
            }
        )
        print(f"\n[reduction={reduce_after_each_gate}] max TA size "
              f"{result.statistics.max_states} states / {result.statistics.max_transitions} transitions")


class TestModeAblation:
    @pytest.mark.parametrize("mode", [AnalysisMode.HYBRID, AnalysisMode.COMPOSITION])
    def test_grover_mode_comparison(self, benchmark, mode):
        bench = grover_single_benchmark(3)
        result = benchmark.pedantic(
            verify_triple,
            args=(bench.precondition, bench.circuit, bench.postcondition),
            kwargs={"mode": mode},
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info.update(
            {
                "mode": mode,
                "permutation_gates": result.statistics.gates_permutation,
                "composition_gates": result.statistics.gates_composition,
            }
        )
        assert result.holds


class TestBugHuntStrategyAblation:
    def _workload(self):
        circuit = random_circuit(8, seed=123)
        buggy, _ = inject_random_gate(circuit, seed=124)
        return circuit, buggy

    def test_incremental_strategy(self, benchmark):
        circuit, buggy = self._workload()
        hunter = IncrementalBugHunter(seed=0)
        result = benchmark.pedantic(hunter.hunt, args=(circuit, buggy), rounds=1, iterations=1)
        benchmark.extra_info.update({"strategy": "incremental", "iterations": result.iterations})
        assert result.bug_found

    def test_full_basis_strategy(self, benchmark):
        """The paper's remark: starting from all basis states is usually slower."""
        circuit, buggy = self._workload()
        inputs = all_basis_states_ta(circuit.num_qubits)
        result = benchmark.pedantic(
            check_circuit_equivalence, args=(circuit, buggy, inputs), rounds=1, iterations=1
        )
        benchmark.extra_info.update({"strategy": "full-basis", "non_equivalent": result.non_equivalent})
        assert result.non_equivalent


class TestSimulatorRepresentationAblation:
    """Sparse map vs. decision-diagram state representation (the SliQSim argument).

    On structured states (GHZ over many qubits) the DD node count stays linear
    while the sparse map and the dense vector do not shrink below the number of
    non-zero amplitudes; on unstructured states the two are comparable.
    """

    def test_sparse_state_representation(self, benchmark):
        from repro.simulator import StateVectorSimulator
        from repro.states import QuantumState

        circuit = ghz_circuit(14)
        state = benchmark.pedantic(
            StateVectorSimulator().run, args=(circuit, QuantumState.zero_state(14)), rounds=1, iterations=1
        )
        benchmark.extra_info.update({"representation": "sparse-map", "entries": state.nonzero_count()})
        print(f"\n[sparse-map] nonzero entries: {state.nonzero_count()}")

    def test_decision_diagram_representation(self, benchmark):
        from repro.simulator import DDState, DecisionDiagramSimulator

        circuit = ghz_circuit(14)
        simulator = DecisionDiagramSimulator()
        state = benchmark.pedantic(
            simulator.run, args=(circuit, DDState.zero_state(14, simulator.manager)), rounds=1, iterations=1
        )
        benchmark.extra_info.update({"representation": "decision-diagram", "nodes": state.node_count()})
        print(f"\n[decision-diagram] nodes: {state.node_count()}")
        assert state.node_count() <= 3 * 14


class TestStabilizerBaselineAblation:
    """On a purely Clifford bug, the tableau baseline and the TA check must agree."""

    def _workload(self):
        circuit = ghz_circuit(12)
        buggy = circuit.copy(name="ghz_buggy").add("cz", 3, 9)
        return circuit, buggy

    def test_stabilizer_baseline(self, benchmark):
        circuit, buggy = self._workload()
        checker = StabilizerChecker()
        result = benchmark.pedantic(checker.check_equivalence, args=(circuit, buggy), rounds=1, iterations=1)
        benchmark.extra_info.update({"checker": "stabilizer", "verdict": result.verdict.value})
        assert result.verdict == StabilizerVerdict.NOT_EQUAL

    def test_ta_output_set_check(self, benchmark):
        circuit, buggy = self._workload()
        hunter = IncrementalBugHunter(seed=0)
        result = benchmark.pedantic(hunter.hunt, args=(circuit, buggy), rounds=1, iterations=1)
        benchmark.extra_info.update({"checker": "autoq-ta", "bug_found": result.bug_found})
        assert result.bug_found
