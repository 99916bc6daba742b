"""Property tests: the reduction preserves the language and never grows the TA.

Randomized product-form automata (per-qubit classical constraints, the shape
used by the bug hunter) and explicit-state automata (finite sets of quantum
states with algebraic amplitudes) are bloated with redundant copies;
``reduce()`` must return an automaton with the same language (``accepts`` /
``enumerate_states`` unchanged) and at most the original number of states
and transitions.  The identity fast paths are
pinned too: reducing an already-reduced automaton returns it unchanged.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic import AlgebraicNumber
from repro.states import QuantumState
from repro.ta import basis_product_ta, from_quantum_states

_AMPLITUDES = [
    AlgebraicNumber(1, 0, 0, 0, 0),   # 1
    AlgebraicNumber(-1, 0, 0, 0, 0),  # -1
    AlgebraicNumber(0, 1, 0, 0, 0),   # w
    AlgebraicNumber(1, 0, 0, 0, 1),   # 1/sqrt(2)
    AlgebraicNumber(0, 0, 1, 0, 1),   # i/sqrt(2)
]


def _product_form_ta(seed: int):
    rng = random.Random(seed)
    num_qubits = rng.randint(1, 4)
    allowed = [rng.choice([{0}, {1}, {0, 1}]) for _ in range(num_qubits)]
    return basis_product_ta(num_qubits, allowed)


def _explicit_states_ta(seed: int):
    rng = random.Random(seed)
    num_qubits = rng.randint(1, 3)
    states = []
    for _ in range(rng.randint(1, 3)):
        state = QuantumState(num_qubits)
        for bits in range(2 ** num_qubits):
            if rng.random() < 0.4:
                assignment = tuple((bits >> i) & 1 for i in reversed(range(num_qubits)))
                state[assignment] = rng.choice(_AMPLITUDES)
        if state:
            states.append(state)
    if not states:
        states.append(QuantumState.zero_state(num_qubits))
    return from_quantum_states(states, reduce=False)


def _language(automaton):
    return frozenset(automaton.enumerate_states(limit=64))


def _bloat(automaton):
    """A language-preserving automaton with duplicated structure to merge."""
    return automaton.union(automaton.shifted(automaton.next_free_state() + 17))


def _check_reduction(original, reduce_fn):
    bloated = _bloat(original)
    reduced = reduce_fn(bloated)
    assert reduced.num_states <= bloated.num_states
    assert reduced.num_transitions <= bloated.num_transitions
    assert _language(reduced) == _language(bloated) == _language(original)
    for state in _language(original):
        assert reduced.accepts(state)


class TestReducePreservesLanguage:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_product_form(self, seed):
        _check_reduction(_product_form_ta(seed), lambda a: a.reduce())

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_explicit_states(self, seed):
        _check_reduction(_explicit_states_ta(seed), lambda a: a.reduce())

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_reduce_merges_the_duplicated_copy(self, seed):
        original = _product_form_ta(seed).reduce()
        bloated = _bloat(original)
        assert bloated.reduce().num_states <= original.num_states


class TestHashConsing:
    def test_reduce_of_reduced_automaton_is_identity(self):
        automaton = _bloat(_product_form_ta(42))
        reduced = automaton.reduce()
        assert reduced.reduce() is reduced

    def test_remove_useless_without_useless_states_is_identity(self):
        automaton = _product_form_ta(7)
        assert automaton.remove_useless() is automaton

    def test_states_cache_matches_recomputation(self):
        automaton = _bloat(_explicit_states_ta(3))
        expected = set(automaton.roots) | set(automaton.internal) | set(automaton.leaves)
        for transitions in automaton.internal.values():
            for _symbol, left, right in transitions:
                expected.add(left)
                expected.add(right)
        assert automaton.states == frozenset(expected)
        assert automaton.states is automaton.states  # cached object
