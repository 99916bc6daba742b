"""Tests for the benchmark circuit generators (BV, Grover, MCToffoli, RevLib, Feynman)."""

import pytest

from repro.benchgen import (
    VerificationBenchmark,
    append_multi_controlled_x,
    append_multi_controlled_z,
    bv_benchmark,
    bv_circuit,
    carry_lookahead_adder,
    controlled_increment,
    csum_mux,
    default_hidden_string,
    default_iterations,
    feynman_suite,
    gf2_multiplier,
    grover_all_benchmark,
    grover_single_benchmark,
    grover_single_circuit,
    hidden_weighted_bit_like,
    mctoffoli_benchmark,
    mctoffoli_circuit,
    mctoffoli_layout,
    parity_network,
    revlib_suite,
    ripple_carry_adder,
    unstructured_reversible,
)
from repro.circuits import Circuit
from repro.core import verify_triple
from repro.simulator import StateVectorSimulator
from repro.states import QuantumState, bits_to_int, int_to_bits


class TestMultiControlledHelpers:
    @pytest.mark.parametrize("num_controls", [0, 1, 2, 3, 4])
    def test_mcx_truth_table(self, num_controls, simulator):
        ancillas = list(range(num_controls + 1, num_controls + 1 + max(0, num_controls - 1)))
        total = num_controls + 1 + len(ancillas)
        circuit = Circuit(max(total, num_controls + 1))
        append_multi_controlled_x(circuit, list(range(num_controls)), num_controls, ancillas)
        for controls_value in range(1 << num_controls):
            bits = int_to_bits(controls_value, num_controls) + (0,) * (circuit.num_qubits - num_controls)
            output = simulator.run(circuit, QuantumState.basis_state(circuit.num_qubits, bits))
            expected_target = 1 if controls_value == (1 << num_controls) - 1 else 0
            expected_bits = list(bits)
            expected_bits[num_controls] = expected_target
            assert output == QuantumState.basis_state(circuit.num_qubits, tuple(expected_bits))

    def test_mcz_phase_semantics(self, simulator):
        circuit = Circuit(6)
        append_multi_controlled_z(circuit, [0, 1, 2], 3, [4, 5])
        all_ones = QuantumState.basis_state(6, (1, 1, 1, 1, 0, 0))
        assert simulator.run(circuit, all_ones) == all_ones.scaled(
            __import__("repro.algebraic", fromlist=["AlgebraicNumber"]).AlgebraicNumber(-1, 0, 0, 0, 0)
        )
        not_all_ones = QuantumState.basis_state(6, (1, 0, 1, 1, 0, 0))
        assert simulator.run(circuit, not_all_ones) == not_all_ones

    def test_mcx_rejects_target_in_controls(self):
        with pytest.raises(ValueError):
            append_multi_controlled_x(Circuit(3), [0, 1], 1, [2])

    def test_mcx_requires_enough_ancillas(self):
        with pytest.raises(ValueError):
            append_multi_controlled_x(Circuit(5), [0, 1, 2, 3], 4, [])


class TestBernsteinVazirani:
    def test_default_hidden_string(self):
        assert default_hidden_string(4) == "1010"

    def test_circuit_recovers_hidden_string(self, simulator):
        hidden = "1101"
        circuit = bv_circuit(hidden)
        output = simulator.run(circuit, QuantumState.zero_state(circuit.num_qubits))
        assert output == QuantumState.basis_state(5, hidden + "1")

    def test_benchmark_triple_holds(self):
        benchmark = bv_benchmark(5)
        assert isinstance(benchmark, VerificationBenchmark)
        assert benchmark.num_qubits == 6
        result = verify_triple(benchmark.precondition, benchmark.circuit, benchmark.postcondition)
        assert result.holds

    def test_benchmark_with_custom_hidden_string(self):
        benchmark = bv_benchmark(4, hidden="0110")
        assert verify_triple(benchmark.precondition, benchmark.circuit, benchmark.postcondition).holds

    def test_hidden_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bv_benchmark(4, hidden="01")

    def test_gate_count_is_linear(self):
        assert bv_circuit("1" * 10).num_gates == 2 * 10 + 3 + 10


class TestMCToffoli:
    def test_layout_shape(self):
        layout = mctoffoli_layout(5)
        assert layout["num_qubits"] == 10
        assert len(layout["controls"]) == 5
        assert len(layout["work"]) == 4

    def test_gate_count_matches_paper_formula(self):
        # Table 2 reports #G = 2n - 1 for the MCToffoli circuits
        for n in (4, 8, 10):
            assert mctoffoli_circuit(n).num_gates == 2 * n - 1

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            mctoffoli_layout(1)

    def test_semantics_on_basis_states(self, simulator):
        num_controls = 3
        layout = mctoffoli_layout(num_controls)
        circuit = mctoffoli_circuit(num_controls)
        for controls_value in range(1 << num_controls):
            bits = [0] * layout["num_qubits"]
            for position, control in enumerate(layout["controls"]):
                bits[control] = (controls_value >> (num_controls - 1 - position)) & 1
            state = QuantumState.basis_state(layout["num_qubits"], tuple(bits))
            output = simulator.run(circuit, state)
            expected = list(bits)
            if controls_value == (1 << num_controls) - 1:
                expected[layout["target"]] ^= 1
            assert output == QuantumState.basis_state(layout["num_qubits"], tuple(expected))

    def test_benchmark_triple_holds(self):
        benchmark = mctoffoli_benchmark(4)
        assert verify_triple(benchmark.precondition, benchmark.circuit, benchmark.postcondition).holds


class TestGrover:
    def test_default_iterations(self):
        assert default_iterations(2) == 1
        assert default_iterations(4) == 3

    def test_single_oracle_amplifies_the_secret(self, simulator):
        secret = "101"
        circuit = grover_single_circuit(3, secret)
        output = simulator.run(circuit, QuantumState.zero_state(circuit.num_qubits))
        tail = (0,) * 2 + (1,)
        secret_amp = abs(output[(1, 0, 1) + tail].to_complex()) ** 2
        other_amp = abs(output[(0, 0, 0) + tail].to_complex()) ** 2
        assert secret_amp > 0.8
        assert secret_amp > 10 * other_amp

    def test_single_benchmark_triple_holds(self):
        benchmark = grover_single_benchmark(2)
        assert verify_triple(benchmark.precondition, benchmark.circuit, benchmark.postcondition).holds

    def test_single_benchmark_with_secret(self):
        benchmark = grover_single_benchmark(3, secret="010")
        assert verify_triple(benchmark.precondition, benchmark.circuit, benchmark.postcondition).holds

    def test_all_oracle_benchmark_triple_holds(self):
        benchmark = grover_all_benchmark(2)
        assert verify_triple(benchmark.precondition, benchmark.circuit, benchmark.postcondition).holds
        assert benchmark.num_qubits == 6

    @pytest.mark.parametrize("num_work_qubits", [2, 3, 4, 5, 6])
    def test_single_postcondition_is_the_simulated_output(self, num_work_qubits, simulator):
        # the closed-form a_h/a_l against an exact state-vector run of the circuit
        m = num_work_qubits
        for secret in ((1,) * m, (0,) * m, tuple(i % 2 for i in range(m))):
            benchmark = grover_single_benchmark(m, secret)
            output = simulator.run(benchmark.circuit, QuantumState.zero_state(benchmark.num_qubits))
            assert list(benchmark.postcondition.enumerate_states()) == [output]

    @pytest.mark.parametrize("iterations", range(6))
    def test_single_postcondition_is_the_simulated_output_for_any_iteration_count(
        self, iterations, simulator
    ):
        benchmark = grover_single_benchmark(3, "101", iterations=iterations)
        output = simulator.run(benchmark.circuit, QuantumState.zero_state(benchmark.num_qubits))
        assert list(benchmark.postcondition.enumerate_states()) == [output]

    @pytest.mark.parametrize("num_work_qubits", [2, 3, 4])
    def test_all_oracle_postcondition_holds_the_simulated_outputs(self, num_work_qubits, simulator):
        m = num_work_qubits
        benchmark = grover_all_benchmark(m)
        expected = set(benchmark.postcondition.enumerate_states())
        assert len(expected) == 2 ** m
        for oracle in ((0,) * m, (1,) * m, tuple(i % 2 for i in range(m))):
            state = QuantumState.basis_state(benchmark.num_qubits,
                                             oracle + (0,) * (benchmark.num_qubits - m))
            assert simulator.run(benchmark.circuit, state) in expected

    def test_builders_do_not_run_the_simulator(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a Grover builder ran the state-vector simulator")

        monkeypatch.setattr(StateVectorSimulator, "run", refuse)
        assert grover_single_benchmark(8).num_qubits == 16
        assert grover_all_benchmark(4).num_qubits == 12

    def test_closed_form_postcondition_is_exact_beyond_the_simulator(self):
        # n = 12 is the paper's smallest Grover-Sing row (24 qubits): the closed
        # form must still give an exactly normalised state that puts almost all
        # of its weight on the secret
        for m in (8, 12):
            secret = tuple(i % 2 for i in range(m))
            [state] = grover_single_benchmark(m, secret).postcondition.enumerate_states()
            assert state.nonzero_count() == 2 ** m
            assert state.is_normalised()
            assert state[secret + (0,) * (m - 1) + (1,)].abs_squared().to_float() > 0.99

    def test_too_few_work_qubits_rejected(self):
        with pytest.raises(ValueError):
            grover_single_circuit(1, "1")

    def test_secret_length_validation(self):
        with pytest.raises(ValueError):
            grover_single_circuit(3, "10")


class TestRevLibGenerators:
    def test_ripple_adder_computes_sums(self, simulator):
        num_bits = 3
        circuit = ripple_carry_adder(num_bits)
        for a_value, b_value in ((1, 2), (3, 5), (7, 7), (0, 6)):
            bits = [0] * circuit.num_qubits
            a_bits = int_to_bits(a_value, num_bits)
            b_bits = int_to_bits(b_value, num_bits)
            for i in range(num_bits):
                bits[1 + i] = a_bits[num_bits - 1 - i]          # a register, LSB first
                bits[1 + num_bits + i] = b_bits[num_bits - 1 - i]  # b register, LSB first
            output = simulator.run(circuit, QuantumState.basis_state(circuit.num_qubits, tuple(bits)))
            ((out_bits, amplitude),) = list(output.items())
            total = sum(out_bits[1 + num_bits + i] << i for i in range(num_bits))
            carry = out_bits[-1]
            assert total + (carry << num_bits) == a_value + b_value

    def test_adders_are_reversible_and_classical(self):
        circuit = ripple_carry_adder(4)
        assert all(gate.kind in ("cx", "ccx") for gate in circuit)

    def test_controlled_increment_wraps_around(self, simulator):
        circuit = controlled_increment(2, num_controls=1)
        # control=1, register=11 (MSBF order register[0] is LSB internally)
        state = QuantumState.basis_state(circuit.num_qubits, (1, 1, 1) + (0,) * (circuit.num_qubits - 3))
        output = simulator.run(circuit, state)
        ((bits, _),) = list(output.items())
        assert bits[1] == 0 and bits[2] == 0  # 3 + 1 == 0 mod 4

    def test_parity_network_structure(self):
        circuit = parity_network(9)
        assert circuit.num_qubits > 9
        assert circuit.count_kind("cx") > 0
        with pytest.raises(ValueError):
            parity_network(2)

    def test_unstructured_reversible_is_deterministic(self):
        assert unstructured_reversible(5, 20, seed=3) == unstructured_reversible(5, 20, seed=3)
        assert unstructured_reversible(5, 20, seed=3) != unstructured_reversible(5, 20, seed=4)

    def test_hidden_weighted_bit_like_uses_fredkin_structure(self):
        circuit = hidden_weighted_bit_like(4)
        assert circuit.count_kind("cswap") > 0
        with pytest.raises(ValueError):
            hidden_weighted_bit_like(2)

    def test_revlib_suite_names_and_sizes(self):
        suite = revlib_suite()
        assert len(suite) >= 8
        for name, circuit in suite.items():
            assert circuit.num_gates > 0
            assert circuit.num_qubits >= 2


class TestFeynmanGenerators:
    def test_gf2_multiplier_matches_classical_multiplication(self, simulator):
        degree = 3
        circuit = gf2_multiplier(degree)

        def gf2_mult(a: int, b: int) -> int:
            # multiply polynomials over GF(2), reduce modulo x^3 + x + 1
            product = 0
            for i in range(degree):
                if (a >> i) & 1:
                    product ^= b << i
            for power in range(2 * degree - 2, degree - 1, -1):
                if (product >> power) & 1:
                    product ^= (0b1011 << (power - degree))
            return product & ((1 << degree) - 1)

        for a_value, b_value in ((1, 1), (3, 5), (7, 6), (2, 4)):
            bits = [0] * circuit.num_qubits
            for i in range(degree):
                bits[i] = (a_value >> i) & 1          # a_i corresponds to x^i
                bits[degree + i] = (b_value >> i) & 1
            output = simulator.run(circuit, QuantumState.basis_state(circuit.num_qubits, tuple(bits)))
            ((out_bits, _),) = list(output.items())
            result = sum(out_bits[2 * degree + i] << i for i in range(degree))
            assert result == gf2_mult(a_value, b_value), (a_value, b_value)

    def test_gf2_multiplier_validation(self):
        with pytest.raises(ValueError):
            gf2_multiplier(1)

    def test_csum_mux_selects_between_words(self, simulator):
        circuit = csum_mux(2)
        assert circuit.num_qubits == 8
        assert circuit.count_kind("ccx") == 2

    def test_carry_lookahead_adder_structure(self):
        circuit = carry_lookahead_adder(4)
        assert circuit.count_kind("ccx") > 0
        with pytest.raises(ValueError):
            carry_lookahead_adder(1)

    def test_feynman_suite(self):
        suite = feynman_suite()
        assert any(name.startswith("gf2^") for name in suite)
        assert all(circuit.num_gates > 0 for circuit in suite.values())
