"""Tests for the composition-based gate encoding (Section 6, Theorems 6.6 - 6.12)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic import AlgebraicNumber, ONE, SQRT2_INV, ZERO
from repro.circuits import Gate
from repro.core.composition import (
    apply_composition_gate,
    backward_swap,
    binary_operation,
    forward_swap,
    multiply,
    projection,
    restrict,
    subtree_copy,
)
from repro.core.formulas import apply_gate_to_state
from repro.core.tagging import tag, untag
from repro.states import QuantumState
from repro.ta import (
    TreeAutomaton,
    all_basis_states_ta,
    basis_product_ta,
    basis_state_ta,
    check_equivalence,
    from_quantum_state,
    from_quantum_states,
)
from repro.ta.automaton import make_symbol

ALL_GATE_KINDS = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry"]
AMPLITUDES = [ZERO, ONE, -ONE, SQRT2_INV, AlgebraicNumber(0, 1, 0, 0, 0)]


@st.composite
def state_sets(draw):
    """1-4 random states on 2-5 qubits, amplitudes from a small alphabet.

    Two to four draws (a repeat leaves fewer distinct states) with at most
    two non-zero positions each, so members often share a half: over half
    of the draws then give :func:`factored_ta` a nondeterministic state
    below the root.
    """
    num_qubits = draw(st.integers(min_value=2, max_value=5))
    basis = st.tuples(*[st.integers(min_value=0, max_value=1)] * num_qubits)
    amplitudes = st.dictionaries(basis, st.sampled_from(AMPLITUDES), min_size=1, max_size=2)
    return [QuantumState(num_qubits, amps) for amps in draw(st.lists(amplitudes, min_size=2, max_size=4))]


def factored_ta(states) -> TreeAutomaton:
    """A TA for exactly ``states`` whose states below the root are nondeterministic.

    ``from_quantum_states`` gives every state a single transition.  Here a set
    of subtrees is one state with a transition per distinct value of its
    less varied half, whose other child generates every half that goes with
    it — so members that share a half make that child nondeterministic.
    """
    num_qubits = states[0].num_qubits
    internal, leaves, ids = {}, {}, {}

    def build(depth, subtrees):
        key = (depth, subtrees)
        if key in ids:
            return ids[key]
        state = ids[key] = len(ids)
        if depth == num_qubits:
            ((amplitude,),) = subtrees
            leaves[state] = amplitude
            return state
        half = len(next(iter(subtrees))) // 2
        pairs = {(tree[:half], tree[half:]) for tree in subtrees}
        by_left = len({left for left, _ in pairs}) <= len({right for _, right in pairs})
        groups = {}
        for left, right in pairs:
            shared, other = (left, right) if by_left else (right, left)
            groups.setdefault(shared, set()).add(other)
        transitions = []
        for shared, others in groups.items():
            # a leaf state holds one amplitude, so the last level cannot share
            for other in ([others] if depth < num_qubits - 1 else [{o} for o in others]):
                shared_state = build(depth + 1, frozenset([shared]))
                other_state = build(depth + 1, frozenset(other))
                pair = (shared_state, other_state) if by_left else (other_state, shared_state)
                transitions.append((make_symbol(depth), *pair))
        internal[state] = transitions
        return state

    vectors = frozenset(
        tuple(state[bits] for bits in itertools.product((0, 1), repeat=num_qubits))
        for state in states
    )
    return TreeAutomaton(num_qubits, {build(0, vectors)}, internal, leaves)


def tagged_language(automaton):
    """Every tree of a small automaton, tags included, as nested tuples.

    ``check_equivalence`` only sees untagged trees, where a zipped subtree
    no longer shows whose tags it follows; ``binary_operation`` pairs terms
    by exactly those tags (Thm 6.12).
    """
    memo = {}

    def trees(state):
        if state not in memo:
            if state in automaton.leaves:
                memo[state] = frozenset([automaton.leaves[state]])
            else:
                memo[state] = frozenset(
                    (symbol, left_tree, right_tree)
                    for symbol, left, right in automaton.internal.get(state, ())
                    for left_tree in trees(left)
                    for right_tree in trees(right)
                )
        return memo[state]

    return frozenset().union(*(trees(root) for root in automaton.roots))


def swap_chain_projection(automaton, qubit, bit):
    """The paper's Prj (Eq. 13, Algs. 6-8): swap the qubit down, copy, swap back.

    The intermediates are not reduced: a forward swap puts qubit ``q + 1`` at
    depth ``q``, off its level, and ``reduce()`` refuses a non-layered
    automaton.
    """
    depth_moves = automaton.num_qubits - 1 - qubit
    result = automaton
    for _ in range(depth_moves):
        result = forward_swap(result, qubit)
    result = subtree_copy(result, qubit, bit)
    for _ in range(depth_moves):
        result = backward_swap(result, qubit)
    return result


def expected_automaton(automaton, gate):
    states = automaton.enumerate_states(limit=64)
    return from_quantum_states([apply_gate_to_state(gate, s) for s in states])


def plus_state() -> QuantumState:
    return QuantumState(2, {(0, 0): SQRT2_INV, (1, 0): SQRT2_INV})


class TestTagging:
    def test_tagging_assigns_unique_tags(self):
        tagged = tag(all_basis_states_ta(3))
        tags = [symbol[1] for _p, symbol, _l, _r in tagged.transitions()]
        assert all(len(t) == 1 for t in tags)
        assert len(set(tags)) == len(tags)

    def test_tagging_twice_rejected(self):
        tagged = tag(all_basis_states_ta(2))
        with pytest.raises(ValueError):
            tag(tagged)

    def test_untag_restores_plain_symbols(self):
        automaton = all_basis_states_ta(3)
        assert check_equivalence(untag(tag(automaton)), automaton).equivalent

    def test_tagging_preserves_language(self):
        automaton = basis_product_ta(3, [{0, 1}, {1}, {0, 1}])
        assert check_equivalence(untag(tag(automaton)), automaton).equivalent


class TestRestriction:
    """Theorem 6.6: Res zeroes the branch selected by the bit."""

    def test_restrict_single_state(self):
        automaton = tag(from_quantum_state(plus_state()))
        kept_one = untag(restrict(automaton, 0, 1))
        states = kept_one.enumerate_states()
        assert len(states) == 1
        assert states[0][(1, 0)] == SQRT2_INV and states[0][(0, 0)] == ZERO

    def test_restrict_keeps_zero_branch(self):
        automaton = tag(from_quantum_state(plus_state()))
        kept_zero = untag(restrict(automaton, 0, 0))
        states = kept_zero.enumerate_states()
        assert states[0][(0, 0)] == SQRT2_INV and states[0][(1, 0)] == ZERO

    def test_restrict_set_semantics(self):
        # Theorem 6.6: L(Res(A, x_1, 1)) = { B_{x_1} . T | T in L(A) } — as a set,
        # every basis state with the qubit at 0 collapses to the all-zero function.
        automaton = tag(all_basis_states_ta(3))
        restricted = untag(restrict(automaton, 1, 1))
        results = restricted.enumerate_states()
        assert len(results) == 5
        assert QuantumState(3) in results  # the all-zero function
        assert QuantumState.basis_state(3, "011") in results
        assert QuantumState.basis_state(3, "001") not in results


class TestMultiplication:
    """Theorem 6.7: Mult scales every amplitude."""

    def test_multiply_by_omega(self):
        automaton = tag(basis_state_ta(2, "01"))
        scaled = untag(multiply(automaton, AlgebraicNumber(0, 1, 0, 0, 0)))
        states = scaled.enumerate_states()
        assert states[0]["01"] == AlgebraicNumber(0, 1, 0, 0, 0)

    def test_multiply_by_inverse_sqrt2(self):
        automaton = tag(basis_state_ta(2, "11"))
        scaled = untag(multiply(automaton, SQRT2_INV))
        assert scaled.enumerate_states()[0]["11"] == SQRT2_INV


class TestSwapsAndProjection:
    def test_forward_then_backward_swap_is_identity_on_language(self):
        automaton = tag(all_basis_states_ta(3))
        swapped = forward_swap(automaton, 0)
        restored = backward_swap(swapped, 0)
        assert check_equivalence(untag(restored), untag(automaton)).equivalent

    def test_forward_swap_at_leaf_layer_rejected(self):
        automaton = tag(all_basis_states_ta(2))
        with pytest.raises(ValueError):
            forward_swap(automaton, 1)  # qubit 1 sits directly above the leaves

    def test_subtree_copy_at_bottom_layer(self):
        automaton = tag(from_quantum_state(QuantumState.basis_state(2, "01")))
        copied = untag(subtree_copy(automaton, 1, 1))
        states = copied.enumerate_states()
        assert states[0][(0, 0)] == ONE and states[0][(0, 1)] == ONE

    @staticmethod
    def projected_state(state, qubit, bit):
        result = QuantumState(state.num_qubits)
        for bits in itertools.product((0, 1), repeat=state.num_qubits):
            source = list(bits)
            source[qubit] = bit
            result[bits] = state[tuple(source)]
        return result

    @pytest.mark.parametrize("qubit,bit", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    def test_projection_matches_tree_semantics(self, qubit, bit):
        state = QuantumState(
            3,
            {
                (0, 0, 1): ONE,
                (1, 0, 1): AlgebraicNumber(0, 1, 0, 0, 0),
                (1, 1, 0): SQRT2_INV,
            },
        )
        automaton = tag(from_quantum_state(state))
        projected = untag(projection(automaton, qubit, bit)).reduce()
        expected = self.projected_state(state, qubit, bit)
        assert check_equivalence(projected, from_quantum_state(expected)).equivalent

    def test_projection_on_a_set_of_states(self):
        automaton = tag(all_basis_states_ta(3))
        for qubit in range(3):
            for bit in (0, 1):
                projected = untag(projection(automaton, qubit, bit)).reduce()
                expected_states = [
                    self.projected_state(QuantumState.basis_state(3, index), qubit, bit)
                    for index in range(8)
                ]
                expected = from_quantum_states(expected_states)
                assert check_equivalence(projected, expected).equivalent, (qubit, bit)

    @given(state_sets())
    @settings(max_examples=40, deadline=None)
    def test_projection_agrees_with_the_swap_chain(self, states):
        automaton = factored_ta(states)
        assert check_equivalence(automaton, from_quantum_states(states)).equivalent
        tagged = tag(automaton)
        for qubit in range(automaton.num_qubits):
            for bit in (0, 1):
                direct = projection(tagged, qubit, bit)
                chain = swap_chain_projection(tagged, qubit, bit)
                assert check_equivalence(untag(direct), untag(chain)).equivalent, (qubit, bit)
                assert tagged_language(direct) == tagged_language(chain), (qubit, bit)

    def test_projection_keeps_runs_of_a_nondeterministic_child_apart(self):
        # the root's left (kept) child generates |01> or |10>: each run must
        # carry its own leaves onto the zipped right side, never the other's
        states = [QuantumState.basis_state(3, "001"), QuantumState.basis_state(3, "010")]
        automaton = factored_ta(states)
        (root_transition,) = automaton.internal[next(iter(automaton.roots))]
        assert len(automaton.internal[root_transition[1]]) == 2
        projected = untag(projection(tag(automaton), 0, 0)).reduce()
        expected = [self.projected_state(state, 0, 0) for state in states]
        assert check_equivalence(projected, from_quantum_states(expected)).equivalent

    def test_projection_rejects_a_cyclic_automaton(self):
        cyclic = TreeAutomaton(
            2, {0}, {0: [(make_symbol(0), 1, 1)], 1: [(make_symbol(1), 1, 2)]}, {2: ONE}
        )
        with pytest.raises(ValueError):
            projection(cyclic, 0, 1)

    def test_projection_builds_no_useless_state(self):
        tagged = tag(all_basis_states_ta(4))
        for qubit in range(4):
            for bit in (0, 1):
                projected = projection(tagged, qubit, bit)
                assert projected.remove_useless() is projected


class TestBinaryOperation:
    """Theorem 6.12: Bin combines only trees with equal tags."""

    def test_sum_of_projections_reconstructs_x_gate(self):
        # X(T) = B_{x̄} T_x + B_x T_x̄ on a single state
        state = plus_state()
        tagged = tag(from_quantum_state(state))
        term1 = restrict(projection(tagged, 0, 1), 0, 0)
        term2 = restrict(projection(tagged, 0, 0), 0, 1)
        combined = untag(binary_operation(term1, term2))
        expected = from_quantum_state(apply_gate_to_state(Gate("x", (0,)), state))
        assert check_equivalence(combined, expected).equivalent

    def test_subtraction(self):
        automaton = tag(basis_state_ta(2, "00"))
        difference = untag(binary_operation(automaton, automaton, subtract=True))
        states = difference.enumerate_states()
        assert len(states) == 1
        assert states[0].nonzero_count() == 0

    def test_tags_prevent_cross_pairing(self):
        # two different basis states: Bin must pair each with itself, not cross-pair
        automaton = tag(from_quantum_states(
            [QuantumState.basis_state(2, "00"), QuantumState.basis_state(2, "11")], reduce=False
        ))
        doubled = untag(binary_operation(automaton, automaton))
        two = AlgebraicNumber(2, 0, 0, 0, 0)
        expected = from_quantum_states(
            [
                QuantumState(2, {(0, 0): two}),
                QuantumState(2, {(1, 1): two}),
            ]
        )
        assert check_equivalence(doubled, expected).equivalent

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            binary_operation(tag(basis_state_ta(2, "00")), tag(basis_state_ta(3, "000")))


class TestFullGateApplication:
    @pytest.mark.parametrize("kind", ALL_GATE_KINDS)
    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_all_single_qubit_gates_on_basis_sets(self, kind, target):
        automaton = all_basis_states_ta(3)
        gate = Gate(kind, (target,))
        result = apply_composition_gate(automaton, gate).reduce()
        assert check_equivalence(result, expected_automaton(automaton, gate)).equivalent

    @pytest.mark.parametrize("gate", [
        Gate("cx", (0, 1)), Gate("cx", (1, 0)), Gate("cz", (1, 0)),
        Gate("ccx", (0, 1, 2)), Gate("ccx", (2, 1, 0)),
    ])
    def test_controlled_gates_any_orientation(self, gate):
        automaton = all_basis_states_ta(3)
        result = apply_composition_gate(automaton, gate).reduce()
        assert check_equivalence(result, expected_automaton(automaton, gate)).equivalent

    @given(state_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_gates_on_nondeterministic_sets(self, states, rng):
        automaton = factored_ta(states)
        qubits = range(automaton.num_qubits)
        gates = [Gate(kind, (target,)) for kind in ("x", "y", "h", "rx", "ry") for target in qubits]
        gates += [Gate("cx", (control, target)) for control in qubits for target in qubits
                  if control != target]
        if automaton.num_qubits >= 3:
            gates.append(Gate("ccx", tuple(rng.sample(qubits, 3))))
        for gate in gates:
            result = apply_composition_gate(automaton, gate).reduce()
            expected = from_quantum_states([apply_gate_to_state(gate, state) for state in states])
            assert check_equivalence(result, expected).equivalent, gate

    def test_projection_handles_deep_automata(self):
        # one worklist, no recursion frame per level: 1500 levels would
        # overflow the interpreter stack (the input and oracle builders
        # recurse, so the check is structural)
        num_qubits = 1500
        automaton = basis_product_ta(num_qubits, [{0}] * num_qubits)
        result = apply_composition_gate(automaton, Gate("h", (0,))).reduce()
        assert result.num_states == 2 * num_qubits
        assert set(result.leaves.values()) == {ZERO, SQRT2_INV}

    def test_result_is_untagged(self):
        automaton = all_basis_states_ta(2)
        result = apply_composition_gate(automaton, Gate("h", (0,)))
        assert not result.is_tagged()

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_composition_agrees_with_permutation_where_both_apply(self, seed):
        import random

        from repro.core.permutation import apply_permutation_gate, supports_permutation

        rng = random.Random(seed)
        num_qubits = rng.randint(2, 4)
        allowed = [rng.choice([{0}, {1}, {0, 1}]) for _ in range(num_qubits)]
        automaton = basis_product_ta(num_qubits, allowed)
        kind = rng.choice(["x", "y", "z", "s", "t", "cx", "cz", "ccx"])
        arity = {"cx": 2, "cz": 2, "ccx": 3}.get(kind, 1)
        if arity > num_qubits:
            kind, arity = "z", 1
        qubits = tuple(sorted(rng.sample(range(num_qubits), arity)))
        gate = Gate(kind, qubits)
        assert supports_permutation(gate)
        via_permutation = apply_permutation_gate(automaton, gate).reduce()
        via_composition = apply_composition_gate(automaton, gate).reduce()
        assert check_equivalence(via_permutation, via_composition).equivalent


class TestRestrictFusion:
    """PR-3 regression: Res must build only the zeroed subtrees it redirects,
    not a full offset-shifted copy of the automaton."""

    def test_restrict_no_full_copy_blowup(self):
        automaton = tag(all_basis_states_ta(8))
        # restricting the LAST qubit redirects only leaf children, so the
        # result may add at most the leaf layer again — a full copy would
        # roughly double the state count
        restricted = restrict(automaton, 7, 1)
        assert restricted.num_states <= automaton.num_states + len(automaton.leaves) + 1

    def test_restrict_result_needs_no_pruning(self):
        automaton = tag(all_basis_states_ta(5))
        for qubit in range(5):
            restricted = restrict(automaton, qubit, 1)
            # every state of the fused construction is reachable and
            # productive: remove_useless must be the identity
            assert restricted.remove_useless() is restricted

    def test_restrict_midlevel_copies_only_the_lower_subtree(self):
        automaton = tag(all_basis_states_ta(6))
        restricted = restrict(automaton, 3, 0)
        # only states strictly below qubit 3 may be duplicated
        below = set().union(*automaton.levels()[4:])
        assert restricted.num_states <= automaton.num_states + len(below)
        kept_one = untag(restricted)
        assert kept_one.num_qubits == 6


class TestBinaryOperationProduct:
    """The worklist product must stay pruned without a post-hoc pass."""

    def test_tight_product_needs_no_pruning(self):
        tagged = tag(all_basis_states_ta(4))
        left = restrict(tagged, 0, 1)
        right = restrict(tagged, 0, 0)
        product = binary_operation(left, right)
        assert product.remove_useless() is product

    def test_product_prunes_dead_pairs(self):
        # operands with disjoint tags produce only dead pairs below the roots
        first = tag(all_basis_states_ta(2))
        second = tag(all_basis_states_ta(2))
        shifted = second.shifted(first.next_free_state())
        product = binary_operation(first, shifted)
        # no matching root tags -> empty language, and no dangling states
        assert product.is_empty() or product.remove_useless() is product
