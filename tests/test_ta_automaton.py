"""Tests for the tree-automaton data structure and its basic algorithms."""

import pytest

from repro.algebraic import ONE, SQRT2_INV, ZERO, AlgebraicNumber
from repro.states import QuantumState
from repro.ta import (
    TreeAutomaton,
    all_basis_states_ta,
    basis_product_ta,
    basis_state_ta,
    from_quantum_state,
    from_quantum_states,
    make_symbol,
    symbol_qubit,
    symbol_tags,
)


def bell_state() -> QuantumState:
    return QuantumState(2, {(0, 0): SQRT2_INV, (1, 1): SQRT2_INV})


def two_depth_automaton() -> TreeAutomaton:
    """A 2-qubit automaton whose leaf state 3 is reachable at depths 1 and 2."""
    return TreeAutomaton(
        2,
        {0},
        {0: [(make_symbol(0), 1, 3)], 1: [(make_symbol(1), 3, 4)]},
        {3: ONE, 4: ZERO},
    )


class TestSymbols:
    def test_make_and_project(self):
        symbol = make_symbol(3, (7,))
        assert symbol_qubit(symbol) == 3
        assert symbol_tags(symbol) == (7,)
        assert symbol_tags(make_symbol(2)) == ()


class TestBasicProperties:
    def test_single_basis_state_structure(self):
        automaton = basis_state_ta(3, "010")
        automaton.validate()
        assert automaton.num_qubits == 3
        assert automaton.accepts(QuantumState.basis_state(3, "010"))
        assert not automaton.accepts(QuantumState.basis_state(3, "011"))

    def test_size_summary_format(self):
        automaton = basis_state_ta(2, "00")
        summary = automaton.size_summary()
        assert "(" in summary and summary.endswith(")")

    def test_states_and_transitions_counts(self):
        automaton = all_basis_states_ta(3)
        # Example 3.1: 2n + 1 states (+ a zero leaf) and ~3n + 1 transitions
        assert automaton.num_states <= 2 * 3 + 2
        assert automaton.num_transitions <= 3 * 3 + 2

    def test_transitions_at(self):
        automaton = all_basis_states_ta(3)
        for qubit in range(3):
            assert all(
                symbol_qubit(symbol) == qubit
                for _p, symbol, _l, _r in automaton.transitions_at(qubit)
            )

    def test_next_free_state_is_fresh(self):
        automaton = all_basis_states_ta(2)
        assert automaton.next_free_state() not in automaton.states

    def test_is_tagged(self):
        automaton = all_basis_states_ta(2)
        assert not automaton.is_tagged()

    def test_structural_equality(self):
        assert basis_state_ta(2, "01") == basis_state_ta(2, "01")
        assert basis_state_ta(2, "01") != basis_state_ta(2, "10")

    def test_validate_rejects_misplaced_leaf(self):
        misplaced = TreeAutomaton(
            2,
            {0},
            {0: [(make_symbol(0), 1, 1)]},
            {1: ONE},  # leaf at depth 1 instead of 2
        )
        for broken in (misplaced, two_depth_automaton()):
            with pytest.raises(ValueError):
                broken.validate()

    def test_validate_rejects_state_that_is_both_leaf_and_internal(self):
        broken = TreeAutomaton(
            1,
            {0},
            {0: [(make_symbol(0), 1, 1)], 1: [(make_symbol(0), 1, 1)]},
            {1: ONE},
        )
        with pytest.raises(ValueError):
            broken.validate()


class TestLanguageOperations:
    def test_membership_bell_state(self):
        automaton = from_quantum_state(bell_state())
        assert automaton.accepts(bell_state())
        assert not automaton.accepts(QuantumState.basis_state(2, "00"))

    def test_enumerate_single_state(self):
        automaton = from_quantum_state(bell_state())
        assert automaton.enumerate_states() == [bell_state()]

    def test_enumerate_all_basis_states(self):
        automaton = all_basis_states_ta(3)
        states = automaton.enumerate_states()
        assert len(states) == 8
        assert QuantumState.basis_state(3, 5) in states

    def test_enumerate_limit(self):
        automaton = all_basis_states_ta(4)
        with pytest.raises(ValueError):
            automaton.enumerate_states(limit=3)

    def test_union(self):
        left = basis_state_ta(2, "00")
        right = basis_state_ta(2, "11")
        union = left.union(right)
        assert union.accepts(QuantumState.basis_state(2, "00"))
        assert union.accepts(QuantumState.basis_state(2, "11"))
        assert not union.accepts(QuantumState.basis_state(2, "01"))
        with pytest.raises(ValueError):
            left.union(basis_state_ta(3, "000"))

    def test_is_empty(self):
        automaton = basis_state_ta(2, "00")
        assert not automaton.is_empty()
        empty = TreeAutomaton(2, set(), {}, {})
        assert empty.is_empty()

    def test_membership_on_large_sparse_state(self):
        # the sparse membership check must not blow up for 30 qubits
        automaton = basis_state_ta(30, (0,) * 30)
        assert automaton.accepts(QuantumState.basis_state(30, (0,) * 30))
        assert not automaton.accepts(QuantumState.basis_state(30, (0,) * 29 + (1,)))


class TestReductionAndTransformations:
    def test_reduce_merges_duplicate_structure(self):
        duplicated = basis_state_ta(3, "000").union(basis_state_ta(3, "000"))
        reduced = duplicated.reduce()
        assert reduced.enumerate_states() == [QuantumState.basis_state(3, "000")]
        assert reduced.num_states <= basis_state_ta(3, "000").num_states

    def test_reduce_refuses_a_non_layered_automaton(self):
        # leaf state 3 sits at depths 1 and 2: there is no layer to sweep
        with pytest.raises(ValueError, match="non-layered"):
            two_depth_automaton().reduce()

    def test_reduce_preserves_language(self):
        states = [QuantumState.basis_state(3, i) for i in (0, 3, 5)]
        automaton = from_quantum_states(states, reduce=False)
        reduced = automaton.reduce()
        assert sorted(map(hash, reduced.enumerate_states())) == sorted(map(hash, states))

    def test_remove_useless_drops_unreachable(self):
        automaton = basis_state_ta(2, "01")
        orphan_id = automaton.next_free_state()
        internal = dict(automaton.internal)
        leaves = dict(automaton.leaves)
        leaves[orphan_id] = AlgebraicNumber(5, 0, 0, 0, 0)
        bloated = TreeAutomaton(2, automaton.roots, internal, leaves)
        cleaned = bloated.remove_useless()
        assert orphan_id not in cleaned.states

    def test_relabelled_is_language_preserving(self):
        automaton = from_quantum_states(
            [QuantumState.basis_state(2, "01"), bell_state()]
        )
        relabelled = automaton.relabelled()
        assert set(relabelled.states) == set(range(relabelled.num_states))
        assert relabelled.accepts(bell_state())
        assert relabelled.accepts(QuantumState.basis_state(2, "01"))

    def test_map_leaves(self):
        automaton = basis_state_ta(2, "00")
        scaled = automaton.map_leaves(lambda amp: amp * AlgebraicNumber(0, 0, 1, 0, 0))
        scaled_states = scaled.enumerate_states()
        assert scaled_states[0]["00"] == AlgebraicNumber(0, 0, 1, 0, 0)

    def test_shifted_preserves_language(self):
        automaton = basis_state_ta(2, "10")
        shifted = automaton.shifted(100)
        assert shifted.accepts(QuantumState.basis_state(2, "10"))
        assert min(shifted.states) >= 100

    def test_untagged_is_identity_on_untagged(self):
        automaton = all_basis_states_ta(2)
        assert automaton.untagged() == automaton


class TestConstructionHelpers:
    def test_basis_product_ta(self):
        automaton = basis_product_ta(3, [{0, 1}, {0}, {1}])
        automaton.validate()
        accepted = automaton.enumerate_states()
        assert len(accepted) == 2
        assert QuantumState.basis_state(3, "001") in accepted
        assert QuantumState.basis_state(3, "101") in accepted

    def test_basis_product_validation(self):
        with pytest.raises(ValueError):
            basis_product_ta(2, [{0, 1}])
        with pytest.raises(ValueError):
            basis_product_ta(2, [{0, 1}, {2}])

    def test_all_basis_states_is_linear_sized(self):
        automaton = all_basis_states_ta(20)
        assert automaton.num_states <= 2 * 20 + 2
        assert automaton.num_transitions <= 3 * 20 + 2

    def test_from_quantum_state_shares_zero_subtrees(self):
        state = QuantumState.basis_state(10, (0,) * 10)
        automaton = from_quantum_state(state)
        assert automaton.num_states <= 3 * 10 + 2

    def test_from_quantum_states_rejects_empty_and_mixed_width(self):
        with pytest.raises(ValueError):
            from_quantum_states([])
        with pytest.raises(ValueError):
            from_quantum_states([QuantumState.zero_state(2), QuantumState.zero_state(3)])


class TestCompactFormAndCaches:
    """The kernel substrate: structure keys and cached indexes."""

    def test_pair_index_groups_transitions(self):
        automaton = all_basis_states_ta(2)
        index = automaton.pair_index()
        total = sum(len(children) for children in index.values())
        assert total == sum(len(ts) for ts in automaton.internal.values())
        for (parent, symbol), children in index.items():
            for left, right in children:
                assert (symbol, left, right) in automaton.internal[parent]
        assert automaton.pair_index() is index  # cached on the instance

    def test_structure_key_distinguishes_structure(self):
        left = basis_state_ta(2, "01")
        right = basis_state_ta(2, "10")
        assert left.structure_key() != right.structure_key()
        assert left.structure_key() == basis_state_ta(2, "01").structure_key()

    def test_transitions_by_qubit_index_is_complete(self):
        automaton = all_basis_states_ta(3)
        index = automaton.transitions_by_qubit()
        total = sum(len(entries) for entries in index.values())
        assert total == sum(len(ts) for ts in automaton.internal.values())
        for qubit, entries in index.items():
            via_iterator = {(p, l, r) for p, _s, l, r in automaton.transitions_at(qubit)}
            assert set(entries) == via_iterator

    def test_remove_useless_worklist_handles_deep_chains(self):
        # a chain of states where productivity propagates through many levels:
        # the worklist must converge without quadratic re-sweeps and keep the
        # language intact
        base = basis_state_ta(6, "010101")
        bloated = base.union(base.shifted(base.next_free_state() + 3))
        cleaned = bloated.remove_useless()
        assert cleaned.accepts(QuantumState.basis_state(6, "010101"))
        # drop one leaf to make a whole branch unproductive
        crippled = TreeAutomaton(
            base.num_qubits, base.roots,
            dict(base.internal),
            {state: amp for state, amp in list(base.leaves.items())[:1]},
        )
        pruned = crippled.remove_useless()
        assert pruned.num_states < base.num_states


class TestEqualityFastPath:
    def test_eq_short_circuits_on_cached_structure_keys(self):
        left = basis_state_ta(4, 9)
        right = basis_state_ta(4, 9)
        # warm both caches, then make the slow path unreachable: equal cached
        # keys must answer True without touching the transition tables
        assert left.structure_key() == right.structure_key()
        sabotaged = dict(right.internal)
        right.internal.clear()
        try:
            assert left == right
        finally:
            right.internal.update(sabotaged)

    def test_eq_with_cold_caches_still_compares_structurally(self):
        left = basis_state_ta(3, 5)
        right = basis_state_ta(3, 5)
        assert left._skey is None and right._skey is None
        assert left == right

    def test_unequal_keys_fall_through_to_order_insensitive_comparison(self):
        # same transitions in a different dict order: structure keys differ
        # but __eq__ must still report equality (it compares frozensets)
        base = basis_state_ta(2, 1).union(basis_state_ta(2, 2)).relabelled()
        reordered = TreeAutomaton(
            base.num_qubits,
            base.roots,
            {s: tuple(reversed(ts)) for s, ts in base.internal.items()},
            dict(base.leaves),
        )
        if base.structure_key() != reordered.structure_key():
            assert base == reordered

    def test_eq_rejects_different_structure(self):
        left = basis_state_ta(3, 1)
        right = basis_state_ta(3, 2)
        left.structure_key(), right.structure_key()
        assert left != right
