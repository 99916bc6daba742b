"""Tests for the plain-text TA serialization format."""

import pytest

from repro.core.tagging import tag
from repro.states import QuantumState
from repro.ta import all_basis_states_ta, basis_state_ta, check_equivalence, from_quantum_state
from repro.ta import serialization
from repro.algebraic import SQRT2_INV


class TestSerialization:
    def test_roundtrip_single_basis_state(self):
        automaton = basis_state_ta(3, "101")
        loaded = serialization.loads(serialization.dumps(automaton))
        assert check_equivalence(automaton, loaded).equivalent
        assert loaded.num_qubits == 3

    def test_roundtrip_all_basis_states(self):
        automaton = all_basis_states_ta(4)
        loaded = serialization.loads(serialization.dumps(automaton))
        assert check_equivalence(automaton, loaded).equivalent

    def test_roundtrip_with_amplitudes(self):
        bell = QuantumState(2, {(0, 0): SQRT2_INV, (1, 1): SQRT2_INV})
        automaton = from_quantum_state(bell)
        loaded = serialization.loads(serialization.dumps(automaton))
        assert loaded.accepts(bell)

    def test_file_roundtrip(self, tmp_path):
        automaton = all_basis_states_ta(3)
        path = tmp_path / "automaton.ta"
        serialization.save(automaton, str(path))
        loaded = serialization.load(str(path))
        assert check_equivalence(automaton, loaded).equivalent

    def test_comments_and_blank_lines_are_ignored(self):
        text = serialization.dumps(basis_state_ta(2, "01"))
        decorated = "# header comment\n\n" + text + "\n# trailing\n"
        loaded = serialization.loads(decorated)
        assert loaded.accepts(QuantumState.basis_state(2, "01"))

    def test_tagged_automata_are_rejected(self):
        tagged = tag(basis_state_ta(2, "00"))
        with pytest.raises(ValueError):
            serialization.dumps(tagged)

    def test_missing_qubits_declaration_rejected(self):
        with pytest.raises(ValueError):
            serialization.loads("roots 0\nleaf 0 1 0 0 0 0\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ValueError):
            serialization.loads("qubits 1\nroots 0\nbogus 1 2 3\n")

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            serialization.loads("qubits 1\nroots 0\ntrans 0 z0 1 2\n")

    def test_short_line_is_a_value_error_naming_the_line(self):
        with pytest.raises(ValueError, match="'qubits'"):
            serialization.loads("qubits\n")
        with pytest.raises(ValueError, match="'trans 0 x0 1'"):
            serialization.loads("qubits 1\nroots 0\ntrans 0 x0 1\n")
