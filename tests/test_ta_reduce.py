"""Tests for ``TreeAutomaton.reduce()``, the package's one reduction.

Hand-built automata pin which states the layered sweep merges (equal
signatures) and which it keeps apart (different amplitudes, or one language
strictly inside another).  Random basis-state sets, unions and engine outputs
check the language with the antichain checker (``check_equivalence``) and
the counting checker (``count_language``); ``tests/test_ta_properties.py``
checks it by state enumeration.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic import ONE, AlgebraicNumber
from repro.core import run_circuit, zero_state_precondition
from repro.states import QuantumState
from repro.ta import (
    all_basis_states_ta,
    basis_state_ta,
    check_equivalence,
    count_language,
    from_quantum_states,
)
from repro.ta.automaton import TreeAutomaton, make_symbol

ZERO = AlgebraicNumber(0, 0, 0, 0, 0)
HALF = AlgebraicNumber(1, 0, 0, 0, 2)  # 1/2


def _random_basis_sets(num_qubits: int, count: int, seed: int):
    rng = random.Random(seed)
    population = list(range(1 << num_qubits))
    chosen = rng.sample(population, min(count, len(population)))
    return [QuantumState.basis_state(num_qubits, index) for index in chosen]


def _language(automaton):
    return frozenset(automaton.enumerate_states(limit=64))


# --------------------------------------------------------------------------- merging
def test_reduce_merges_sibling_leaves_with_equal_amplitudes():
    automaton = TreeAutomaton(
        1,
        roots={0},
        internal={0: [(make_symbol(0), 1, 2)]},
        leaves={1: ONE, 2: ONE},
    )
    reduced = automaton.reduce()
    assert reduced.num_states == 2
    assert _language(reduced) == _language(automaton)


def test_reduce_keeps_leaves_with_different_amplitudes_apart():
    automaton = TreeAutomaton(
        1,
        roots={0},
        internal={0: [(make_symbol(0), 1, 2)]},
        leaves={1: ONE, 2: HALF},
    )
    reduced = automaton.reduce()
    assert reduced.num_states == 3
    expected = QuantumState(1)
    expected[(0,)] = ONE
    expected[(1,)] = HALF
    assert reduced.accepts(expected)


def test_reduce_keeps_a_state_whose_language_contains_another():
    # state 1 generates only the all-zero pair, state 2 generates that pair
    # and one more: their signatures differ, so neither absorbs the other
    automaton = TreeAutomaton(
        2,
        roots={0},
        internal={
            0: [(make_symbol(0), 1, 2)],
            1: [(make_symbol(1), 3, 3)],
            2: [(make_symbol(1), 3, 3), (make_symbol(1), 4, 3)],
        },
        leaves={3: ZERO, 4: ONE},
    )
    reduced = automaton.reduce()
    assert reduced.num_states == automaton.num_states
    assert _language(reduced) == _language(automaton)


def test_reduce_of_empty_automaton_is_empty():
    assert TreeAutomaton(2, set(), {}, {}).reduce().is_empty()


def test_reduce_folds_a_relabelled_copy_into_one():
    single = basis_state_ta(3, 0)
    doubled = single.union(single.relabelled().shifted(50))
    reduced = doubled.reduce()
    assert check_equivalence(single, reduced).equivalent
    assert reduced.num_states <= single.num_states
    assert reduced.num_transitions <= single.num_transitions


def test_reduce_of_union_with_a_contained_basis_state():
    automaton = all_basis_states_ta(4).union(basis_state_ta(4, 5))
    reduced = automaton.reduce()
    assert reduced.num_states < automaton.num_states
    assert check_equivalence(automaton, reduced).equivalent
    assert count_language(reduced) == 16


# --------------------------------------------------------------------------- language
@pytest.mark.parametrize("num_qubits,count,seed", [(2, 2, 1), (3, 4, 2), (3, 6, 3), (4, 5, 4)])
def test_reduce_preserves_language_of_basis_sets(num_qubits, count, seed):
    states = _random_basis_sets(num_qubits, count, seed)
    automaton = from_quantum_states(states, reduce=False)
    reduced = automaton.reduce()
    assert check_equivalence(automaton, reduced).equivalent
    assert count_language(reduced) == len(states)


@pytest.mark.parametrize("circuit_fixture", ["epr_circuit", "ghz_circuit"])
def test_engine_output_is_already_reduced(request, circuit_fixture):
    # the engine reduces after every gate, so its output is a fixed point
    circuit = request.getfixturevalue(circuit_fixture)
    output = run_circuit(circuit, zero_state_precondition(circuit.num_qubits)).output
    assert output.reduce() is output
    assert count_language(output) == 1


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
)
def test_property_reduce_preserves_count(num_qubits, indices):
    indices = {index % (1 << num_qubits) for index in indices}
    states = [QuantumState.basis_state(num_qubits, index) for index in sorted(indices)]
    automaton = from_quantum_states(states, reduce=False)
    reduced = automaton.reduce()
    assert count_language(reduced) == len(states)
    assert check_equivalence(automaton, reduced).equivalent
