"""Tests for the circuit IR: gates, circuits, QASM I/O, random circuits, mutations."""

import pytest

from repro.circuits import (
    Circuit,
    Gate,
    QasmError,
    inject_random_gate,
    parse_qasm,
    random_benchmark_suite,
    random_circuit,
    remove_random_gate,
    swap_random_operands,
    to_qasm,
)


class TestGate:
    def test_basic_construction(self):
        gate = Gate("cx", (0, 1))
        assert gate.kind == "cx"
        assert gate.controls == (0,)
        assert gate.target == 1

    def test_kind_is_lowercased(self):
        assert Gate("H", (0,)).kind == "h"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("frobnicate", (0,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (0,))
        with pytest.raises(ValueError):
            Gate("h", (0, 1))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))

    def test_negative_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("x", (-1,))

    def test_swap_and_cswap_controls(self):
        assert Gate("swap", (0, 1)).controls == ()
        assert Gate("cswap", (2, 0, 1)).controls == (2,)

    def test_dagger(self):
        assert Gate("s", (0,)).dagger().kind == "sdg"
        assert Gate("tdg", (0,)).dagger().kind == "t"
        assert Gate("cx", (0, 1)).dagger() == Gate("cx", (0, 1))
        with pytest.raises(ValueError):
            Gate("rx", (0,)).dagger()

    def test_shift_and_remap(self):
        gate = Gate("ccx", (0, 1, 2))
        assert gate.shift(3).qubits == (3, 4, 5)
        assert gate.remap({0: 2, 2: 0}).qubits == (2, 1, 0)

    def test_str(self):
        assert str(Gate("cx", (0, 1))) == "cx q[0], q[1]"


class TestCircuit:
    def test_append_and_len(self):
        circuit = Circuit(3)
        circuit.add("h", 0).add("cx", 0, 1).add("ccx", 0, 1, 2)
        assert len(circuit) == 3
        assert circuit.num_gates == 3
        assert circuit.count_kind("cx") == 1

    def test_append_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2).add("x", 2)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_iteration_and_indexing(self):
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1)
        gates = list(circuit)
        assert gates[0].kind == "h"
        assert circuit[1].kind == "cx"
        assert isinstance(circuit[0:1], Circuit)
        assert circuit[0:1].num_gates == 1

    def test_used_qubits(self):
        circuit = Circuit(5).add("cx", 1, 3)
        assert circuit.used_qubits() == frozenset({1, 3})

    def test_copy_and_equality(self):
        circuit = Circuit(2).add("h", 0)
        clone = circuit.copy()
        assert clone == circuit
        clone.add("x", 1)
        assert clone != circuit

    def test_inverse_roundtrip_structure(self):
        circuit = Circuit(2).add("h", 0).add("t", 0).add("cx", 0, 1)
        inverse = circuit.inverse()
        assert [g.kind for g in inverse] == ["cx", "tdg", "h"]

    def test_concatenated(self):
        first = Circuit(2).add("h", 0)
        second = Circuit(2).add("x", 1)
        combined = first.concatenated(second)
        assert combined.num_gates == 2
        with pytest.raises(ValueError):
            first.concatenated(Circuit(3))

    def test_insert_and_without_gate(self):
        circuit = Circuit(2).add("h", 0).add("x", 1)
        circuit.insert(1, Gate("z", (0,)))
        assert [g.kind for g in circuit] == ["h", "z", "x"]
        trimmed = circuit.without_gate(1)
        assert [g.kind for g in trimmed] == ["h", "x"]

    def test_decomposed_expands_swap_and_cswap(self):
        circuit = Circuit(3).add("swap", 0, 1).add("cswap", 0, 1, 2)
        decomposed = circuit.decomposed()
        assert all(g.kind in ("cx", "ccx") for g in decomposed)
        assert decomposed.num_gates == 6

    def test_summary_and_repr(self):
        circuit = Circuit(2, name="demo").add("h", 0)
        assert "demo" in circuit.summary()
        assert "num_gates=1" in repr(circuit)


class TestQasm:
    def test_roundtrip(self):
        circuit = Circuit(3, name="roundtrip")
        circuit.add("h", 0).add("cx", 0, 1).add("ccx", 0, 1, 2).add("t", 2).add("rx", 1)
        parsed = parse_qasm(to_qasm(circuit))
        assert [g.kind for g in parsed] == [g.kind for g in circuit]
        assert [g.qubits for g in parsed] == [g.qubits for g in circuit]

    def test_parse_basic_program(self):
        program = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        // a comment
        cx q[0], q[1];
        barrier q[0], q[1];
        """
        circuit = parse_qasm(program)
        assert circuit.num_qubits == 2
        assert [g.kind for g in circuit] == ["h", "cx"]

    def test_multiple_registers_are_concatenated(self):
        program = 'OPENQASM 2.0;\nqreg a[1];\nqreg b[2];\ncx a[0], b[1];\n'
        circuit = parse_qasm(program)
        assert circuit.num_qubits == 3
        assert circuit[0].qubits == (0, 2)

    def test_missing_header_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1];\nx q[0];")

    def test_measure_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];")

    def test_unsupported_gate_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nu3(0,0,0) q[0];")

    def test_non_pi_over_2_rotation_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(0.3) q[0];")

    def test_out_of_range_reference_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[1];")

    def test_unknown_register_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx r[0];")

    def test_file_roundtrip(self, tmp_path):
        from repro.circuits import load_qasm_file, save_qasm_file

        circuit = Circuit(2).add("h", 0).add("cz", 0, 1)
        path = tmp_path / "circuit.qasm"
        save_qasm_file(circuit, str(path))
        loaded = load_qasm_file(str(path))
        assert [g.kind for g in loaded] == ["h", "cz"]


class TestRandomAndMutations:
    def test_random_circuit_respects_ratio(self):
        circuit = random_circuit(10, seed=1)
        assert circuit.num_qubits == 10
        assert circuit.num_gates == 30

    def test_random_circuit_is_deterministic_per_seed(self):
        assert random_circuit(6, seed=42) == random_circuit(6, seed=42)
        assert random_circuit(6, seed=42) != random_circuit(6, seed=43)

    def test_random_circuit_small_registers(self):
        assert all(g.kind != "ccx" for g in random_circuit(2, seed=0, num_gates=20))
        assert all(len(g.qubits) == 1 for g in random_circuit(1, seed=0, num_gates=10))

    def test_random_benchmark_suite_names(self):
        suite = random_benchmark_suite(5, count=3)
        assert [c.name for c in suite] == ["5a", "5b", "5c"]

    def test_inject_random_gate(self):
        circuit = random_circuit(5, seed=3)
        buggy, record = inject_random_gate(circuit, seed=11)
        assert buggy.num_gates == circuit.num_gates + 1
        assert record.kind == "insert"
        assert 0 <= record.position <= circuit.num_gates
        assert str(record)

    def test_remove_random_gate(self):
        circuit = random_circuit(5, seed=3)
        buggy, record = remove_random_gate(circuit, seed=11)
        assert buggy.num_gates == circuit.num_gates - 1
        assert record.kind == "remove"

    def test_remove_from_empty_circuit_rejected(self):
        with pytest.raises(ValueError):
            remove_random_gate(Circuit(2))

    def test_swap_random_operands(self):
        circuit = Circuit(3).add("cx", 0, 1).add("h", 2)
        buggy, record = swap_random_operands(circuit, seed=0)
        assert buggy.num_gates == circuit.num_gates
        assert record.kind == "swap-operands"
        assert buggy[record.position].qubits == (1, 0)

    def test_swap_requires_multi_qubit_gate(self):
        with pytest.raises(ValueError):
            swap_random_operands(Circuit(2).add("h", 0))
