"""Tests for the tree-automaton data structure and its basic algorithms."""

import hashlib
import json

import pytest

from repro.algebraic import ONE, SQRT2_INV, ZERO, AlgebraicNumber
from repro.states import QuantumState
from repro.ta import (
    TreeAutomaton,
    all_basis_states_ta,
    basis_product_ta,
    basis_state_ta,
    check_inclusion,
    complement,
    count_language,
    determinize,
    from_quantum_state,
    from_quantum_states,
    intersection,
    leaf_alphabet,
    make_symbol,
    symbol_qubit,
    symbol_tags,
)
from repro.ta.serialization import to_payload


HALF = AlgebraicNumber(1, 0, 0, 0, 2)


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


def misplaced_leaf_automaton() -> TreeAutomaton:
    """A 2-qubit automaton whose only leaf sits at depth 1 instead of 2."""
    return TreeAutomaton(2, {0}, {0: [(make_symbol(0), 1, 1)]}, {1: ONE})


#: automata that break the one layering rule, each in a different way
NON_LAYERED = {
    "misplaced-leaf": misplaced_leaf_automaton,
    "two-depths": two_depth_automaton,
    "leaf-and-internal": lambda: TreeAutomaton(
        1, {0}, {0: [(make_symbol(0), 1, 1)], 1: [(make_symbol(0), 1, 1)]}, {1: ONE}),
    "root-reads-qubit-1": lambda: TreeAutomaton(
        2, {0}, {0: [(make_symbol(1), 1, 1)]}, {1: ONE}),
    "two-qubits-in-one-state": lambda: TreeAutomaton(
        2, {0},
        {0: [(make_symbol(0), 1, 1), (make_symbol(1), 2, 2)], 1: [(make_symbol(1), 2, 2)]},
        {2: ONE}),
}


#: every language operation that reads the level index, applied to ``broken``
LANGUAGE_OPERATIONS = {
    "accepts": lambda broken: broken.accepts(QuantumState.zero_state(broken.num_qubits)),
    "check_inclusion-left": lambda broken: check_inclusion(
        broken, all_basis_states_ta(broken.num_qubits)),
    "check_inclusion-right": lambda broken: check_inclusion(
        basis_state_ta(broken.num_qubits, 0), broken),
    "determinize": determinize,
    "complement": complement,
    "intersection": lambda broken: intersection(broken, all_basis_states_ta(broken.num_qubits)),
    "count_language": count_language,
}


def useless_states_automaton() -> TreeAutomaton:
    """A 3-qubit basis set plus a root whose branch ends in a state without
    rules (unproductive) and a qubit-1 state nothing points at (unreachable)."""
    base = basis_product_ta(3, [{0, 1}, {0}, {1}])
    fresh = base.next_free_state()
    internal = dict(base.internal)
    internal[fresh] = ((make_symbol(0), fresh + 1, fresh + 1),)
    internal[fresh + 1] = ((make_symbol(1), fresh + 2, fresh + 3),)
    internal[fresh + 2] = ((make_symbol(2), fresh + 4, fresh + 4),)
    internal[fresh + 5] = ((make_symbol(1), fresh + 2, fresh + 2),)
    leaves = dict(base.leaves)
    leaves[fresh + 4] = ONE
    return TreeAutomaton(3, set(base.roots) | {fresh}, internal, leaves)


#: automata with states remove_useless drops, each kind on its own and all together
WITH_USELESS_STATES = {
    "unreachable-leaf": lambda: TreeAutomaton(
        1, {0}, {0: [(make_symbol(0), 1, 1)]}, {1: ONE, 2: ZERO}),
    "unproductive-branch": lambda: TreeAutomaton(
        2, {0},
        {0: [(make_symbol(0), 1, 2), (make_symbol(0), 1, 1)], 1: [(make_symbol(1), 3, 3)],
         2: [(make_symbol(1), 4, 4)]},
        {3: ONE}),
    "dangling-child": lambda: TreeAutomaton(
        1, {0}, {0: [(make_symbol(0), 1, 1), (make_symbol(0), 1, 2)]}, {1: ONE}),
    "all-kinds": useless_states_automaton,
}


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
        for broken in (misplaced_leaf_automaton(), two_depth_automaton()):
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


class TestLevels:
    def test_levels_group_states_by_the_qubit_they_read(self):
        automaton = all_basis_states_ta(3)
        levels = automaton.levels()
        assert len(levels) == 4
        assert set(levels[3]) == set(automaton.leaves)
        for qubit in range(3):
            assert {parent for parent, symbol, _l, _r in automaton.transitions()
                    if symbol_qubit(symbol) == qubit} == set(levels[qubit])
        assert set().union(*levels) == automaton.states

    def test_a_child_without_rules_has_no_level_and_produces_nothing(self):
        dangling = TreeAutomaton(1, {0}, {0: [(make_symbol(0), 1, 2)]}, {1: ONE})
        assert dangling.levels() == ((0,), (1,))
        assert dangling.is_empty()

    @pytest.mark.parametrize("build", list(NON_LAYERED.values()), ids=list(NON_LAYERED))
    @pytest.mark.parametrize("operation", ["validate", "reduce", "remove_useless", "is_empty"])
    def test_every_pass_refuses_what_validate_refuses(self, build, operation):
        with pytest.raises(ValueError, match="non-layered"):
            getattr(build(), operation)()

    @pytest.mark.parametrize("build", list(NON_LAYERED.values()), ids=list(NON_LAYERED))
    @pytest.mark.parametrize("operation", list(LANGUAGE_OPERATIONS))
    def test_every_language_operation_refuses_what_validate_refuses(self, build, operation):
        with pytest.raises(ValueError, match="non-layered"):
            LANGUAGE_OPERATIONS[operation](build())

    @pytest.mark.parametrize("build", list(WITH_USELESS_STATES.values()),
                             ids=list(WITH_USELESS_STATES))
    def test_remove_useless_hands_its_result_the_level_index(self, build):
        cleaned = build().remove_useless()
        assert cleaned._levels is not None
        fresh = TreeAutomaton(cleaned.num_qubits, cleaned.roots, cleaned.internal, cleaned.leaves)
        assert cleaned._levels == fresh.levels()

    @pytest.mark.parametrize("build", list(WITH_USELESS_STATES.values()),
                             ids=list(WITH_USELESS_STATES))
    def test_one_reduce_builds_the_level_index_once(self, build, monkeypatch):
        bloated = build()
        built = []
        levels = TreeAutomaton.levels

        def counting_levels(automaton):
            if automaton._levels is None:
                built.append(automaton)
            return levels(automaton)

        monkeypatch.setattr(TreeAutomaton, "levels", counting_levels)
        reduced = bloated.reduce()
        assert reduced is not bloated
        assert len(built) == 1 and built[0] is bloated


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


class TestLevelWiseConstructionsAreStable:
    """Outputs of the subset construction and the product, pinned bit for bit."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: (basis_state_ta(2, "00").union(basis_state_ta(2, "11")),
                  all_basis_states_ta(2)),
         "7ff00add21fa0463cf594ee6712c192e183fdd0863712f38c2dab2d91b2a960c"),
        (lambda: (from_quantum_states([bell_state(), QuantumState.basis_state(2, "01")],
                                      reduce=False),
                  from_quantum_states([bell_state()])),
         "33d2af4bd3c8cc4d96a924219e287f89d00806576d5d02fd43aa99806f4d28d0"),
        (lambda: (useless_states_automaton(), all_basis_states_ta(3)),
         "e99c0107da04b80c8084058c81986bbb8770d27e96d2a0ac96b3e6d6cf4f32ad"),
        (lambda: (from_quantum_states([QuantumState(1, {(0,): HALF, (1,): HALF}),
                                       QuantumState.basis_state(1, 1)], reduce=False),
                  all_basis_states_ta(1)),
         "e7daa32120e334286c83cbfbd6d2d84bd2d8b61e4aba04e14dbf43581bc75a13"),
    ], ids=["basis-union", "superposed", "useless-states", "mixed-alphabet"])
    def test_golden_outputs(self, build, digest):
        # state ids and transition order are pinned too; the widened alphabet
        # holds two amplitudes the automaton lacks, which share the empty macro
        left, right = build()
        outputs = [
            determinize(left),
            complement(left),
            complement(left, leaf_alphabet(left, right) + (SQRT2_INV, HALF)),
            intersection(left, right),
        ]
        material = json.dumps([to_payload(output) for output in outputs], sort_keys=True)
        assert hashlib.sha256(material.encode()).hexdigest() == digest
