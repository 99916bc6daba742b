"""Analysis queries over tree automata representing sets of quantum states.

Once a circuit has been run over a pre-condition (producing a TA ``A`` of all
reachable output states), the verification question of the paper is
equivalence/inclusion against a post-condition.  Many useful diagnoses do not
need a second automaton though, and this module answers them directly on the
structure of ``A``:

* :func:`amplitudes_at_basis` — which amplitudes can the output assign to a
  given computational-basis position?
* :func:`possible_support` — which basis positions can carry a non-zero
  amplitude in *some* output state?
* :func:`constant_output` — does the circuit map every input of the
  pre-condition to one and the same output state (the paper's "finding
  constants" use case)?
* :func:`outcome_is_certain` / :func:`measurement_probability_bounds` —
  what can be said about measuring one qubit of the outputs?
* :func:`post_measurement_automaton` — the TA of (un-normalised)
  post-measurement states, which is exactly the paper's restriction
  operation applied outside of a gate formula.

All structural queries work on the reachable, productive part of the
automaton, so every reported value is realised by at least one accepted state.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from ..algebraic import AlgebraicNumber
from ..simulator.measurement import measurement_probability
from ..states import QuantumState
from ..ta.automaton import TreeAutomaton
from ..ta.determinization import count_language
from .composition import restrict

__all__ = [
    "amplitudes_at_basis",
    "possible_support",
    "constant_output",
    "outcome_is_certain",
    "measurement_probability_bounds",
    "post_measurement_automaton",
]


def amplitudes_at_basis(automaton: TreeAutomaton, basis) -> FrozenSet[AlgebraicNumber]:
    """All amplitudes that accepted states can assign to the given basis position.

    The query walks the automaton top-down along the path selected by the
    basis bits; every leaf state reachable on that path (through useful
    states) belongs to at least one accepted tree, so the returned set is
    exactly ``{T(basis) | T ∈ L(A)}``.
    """
    automaton = automaton.remove_useless()
    bits = QuantumState._normalise_basis(basis, automaton.num_qubits)
    frontier: Set[int] = set(automaton.roots)
    for bit in bits:
        next_frontier: Set[int] = set()
        for state in frontier:
            for _symbol, left, right in automaton.internal.get(state, ()):
                next_frontier.add(right if bit else left)
        frontier = next_frontier
    return frozenset(automaton.leaves[state] for state in frontier if state in automaton.leaves)


def possible_support(automaton: TreeAutomaton, limit: Optional[int] = 4096) -> FrozenSet[Tuple[int, ...]]:
    """Basis positions that carry a non-zero amplitude in at least one accepted state.

    The traversal only descends into subtrees that can produce a non-zero
    leaf, so sparse languages (e.g. the output of Bernstein–Vazirani over all
    hidden strings) are handled without touching all ``2^n`` positions.
    ``limit`` bounds the number of returned positions; exceeding it raises
    :class:`ValueError`.
    """
    automaton = automaton.remove_useless()

    # states that can reach a non-zero leaf, decided level by level upward
    levels = automaton.levels()
    fruitful: Set[int] = {
        state for state in levels[-1] if not automaton.leaves[state].is_zero()
    }
    for level in reversed(levels[:-1]):
        for state in level:
            if any(left in fruitful or right in fruitful
                   for _symbol, left, right in automaton.internal[state]):
                fruitful.add(state)

    support: Set[Tuple[int, ...]] = set()
    stack: List[Tuple[int, Tuple[int, ...]]] = [
        (root, ()) for root in automaton.roots if root in fruitful
    ]
    seen: Set[Tuple[int, Tuple[int, ...]]] = set()
    while stack:
        state, prefix = stack.pop()
        if (state, prefix) in seen:
            continue
        seen.add((state, prefix))
        if state in automaton.leaves:
            if not automaton.leaves[state].is_zero():
                support.add(prefix)
                if limit is not None and len(support) > limit:
                    raise ValueError(f"support exceeds the enumeration limit {limit}")
            continue
        for _symbol, left, right in automaton.internal.get(state, ()):
            if left in fruitful:
                stack.append((left, prefix + (0,)))
            if right in fruitful:
                stack.append((right, prefix + (1,)))
    return frozenset(support)


def constant_output(automaton: TreeAutomaton) -> Optional[QuantumState]:
    """The unique accepted state if the language is a singleton, else ``None``.

    This answers the paper's "finding constants" question: a circuit is
    constant over the pre-condition iff the TA of outputs accepts exactly one
    quantum state.
    """
    if count_language(automaton) != 1:
        return None
    states = automaton.enumerate_states(limit=1)
    return states[0] if states else None


def outcome_is_certain(automaton: TreeAutomaton, qubit: int, value: int) -> bool:
    """True iff measuring ``qubit`` yields ``value`` with certainty for every accepted state.

    Certainty is a structural property: every leaf reachable through the
    complementary branch of ``qubit`` must carry the zero amplitude.  (For
    normalised states this is equivalent to the measurement probability being
    exactly 1.)
    """
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    automaton = automaton.remove_useless()
    frontier: Set[int] = set(automaton.roots)
    for depth in range(qubit + 1):
        next_frontier: Set[int] = set()
        for state in frontier:
            for _symbol, left, right in automaton.internal.get(state, ()):
                if depth == qubit:
                    # descend into the branch of the *other* outcome
                    next_frontier.add(left if value else right)
                else:
                    next_frontier.add(left)
                    next_frontier.add(right)
        frontier = next_frontier
    # every leaf reachable below the complementary branch must be zero
    stack = list(frontier)
    visited: Set[int] = set()
    while stack:
        state = stack.pop()
        if state in visited:
            continue
        visited.add(state)
        if state in automaton.leaves:
            if not automaton.leaves[state].is_zero():
                return False
            continue
        for _symbol, left, right in automaton.internal.get(state, ()):
            stack.append(left)
            stack.append(right)
    return True


def measurement_probability_bounds(
    automaton: TreeAutomaton, qubit: int, value: int, limit: int = 256
) -> Tuple[float, float]:
    """Minimum and maximum probability of measuring ``value`` on ``qubit`` over all accepted states.

    The accepted states are enumerated (up to ``limit``) and the exact
    per-state probabilities compared; use :func:`outcome_is_certain` for the
    common certainty question, which does not enumerate.
    """
    states = automaton.enumerate_states(limit=limit)
    if not states:
        raise ValueError("the automaton accepts no states")
    probabilities = [measurement_probability(state, qubit, value) for state in states]
    return (min(probabilities), max(probabilities))


def post_measurement_automaton(
    automaton: TreeAutomaton, qubit: int, outcome: int
) -> TreeAutomaton:
    """TA of the (un-normalised) post-measurement states after observing ``outcome`` on ``qubit``.

    This is the restriction operation of the composition-based encoding
    (Algorithm 4) applied as a standalone transformer: amplitudes of the other
    outcome are zeroed and the rest are kept verbatim.  Renormalisation by
    ``1/sqrt(prob)`` is generally not expressible per-state inside one TA, so
    the result is left un-normalised (exactly like the paper's treatment of
    measurement in Section 2.1 before normalisation).
    """
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    return restrict(automaton, qubit, outcome).reduce()
