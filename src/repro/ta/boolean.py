"""Boolean language operations on quantum-state tree automata.

The pre- and post-conditions of the verification problem ``{P} C {Q}`` are
*sets* of quantum states, so it is natural to combine them with set
operations.  This module provides the classical tree-automata constructions,
specialised to the layered full-binary-tree languages used by the framework:

* :func:`intersection` — product construction (``L(A) ∩ L(B)``) probing the
  right operand's cached :meth:`~repro.ta.automaton.TreeAutomaton.pair_index`,
  the index ``Bin`` probes,
* :func:`complement` — :func:`repro.ta.determinization.subset_construction`,
  the one layered subset construction, run complete against an explicit
  universe of leaf amplitudes, then root complementation,
* :func:`difference` — ``L(A) \\ L(B)`` via intersection with a complement,
* :func:`union` is already available as :meth:`TreeAutomaton.union`.

The *universe* of the complement is the set of all full binary trees of the
automaton's height whose leaves are labelled with amplitudes from a given
finite alphabet (by default the amplitudes appearing in the involved
automata).  This matches how specifications are written in practice — the
interesting alphabet is always finite and known — and keeps the operation
decidable without symbolic leaf constraints.

Complementation determinizes and can therefore blow up exponentially; it is
meant for composing *condition* automata (which are small), not for the large
intermediate automata produced inside circuit analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algebraic import AlgebraicNumber
from .automaton import InternalTransition, TreeAutomaton
from .determinization import subset_construction

__all__ = ["intersection", "complement", "difference", "leaf_alphabet"]


def leaf_alphabet(*automata: TreeAutomaton) -> Tuple[AlgebraicNumber, ...]:
    """The sorted tuple of distinct leaf amplitudes appearing in the given automata."""
    seen: Dict[AlgebraicNumber, None] = {}
    for automaton in automata:
        for amplitude in automaton.leaves.values():
            seen.setdefault(amplitude, None)
    return tuple(sorted(seen, key=lambda amplitude: amplitude.as_tuple()))


def intersection(left: TreeAutomaton, right: TreeAutomaton) -> TreeAutomaton:
    """Product automaton recognizing ``L(left) ∩ L(right)``."""
    if left.num_qubits != right.num_qubits:
        raise ValueError("cannot intersect automata of different widths")
    left = left.remove_useless()
    right = right.remove_useless()

    pair_ids: Dict[Tuple[int, int], int] = {}

    def pair_id(pair: Tuple[int, int]) -> int:
        if pair not in pair_ids:
            pair_ids[pair] = len(pair_ids)
        return pair_ids[pair]

    # the right operand's cached (state, symbol) index, the one Bin probes:
    # condition automata are untagged, so a symbol is just its qubit
    right_index = right.pair_index()

    internal: Dict[int, List[InternalTransition]] = {}
    leaves: Dict[int, AlgebraicNumber] = {}
    roots = set()
    stack: List[Tuple[int, int]] = []
    visited = set()
    for left_root in left.roots:
        for right_root in right.roots:
            roots.add(pair_id((left_root, right_root)))
            stack.append((left_root, right_root))
    while stack:
        pair = stack.pop()
        if pair in visited:
            continue
        visited.add(pair)
        left_state, right_state = pair
        if left_state in left.leaves or right_state in right.leaves:
            left_amplitude = left.leaves.get(left_state)
            right_amplitude = right.leaves.get(right_state)
            if left_amplitude is not None and left_amplitude == right_amplitude:
                leaves[pair_id(pair)] = left_amplitude
            continue
        bucket = internal.setdefault(pair_id(pair), [])
        for symbol, l_left, l_right in left.internal.get(left_state, ()):
            for r_left, r_right in right_index.get((right_state, symbol), ()):
                child_left = (l_left, r_left)
                child_right = (l_right, r_right)
                bucket.append((symbol, pair_id(child_left), pair_id(child_right)))
                stack.append(child_left)
                stack.append(child_right)
    result = TreeAutomaton(left.num_qubits, roots, internal, leaves)
    return result.remove_useless()


def complement(
    automaton: TreeAutomaton,
    alphabet: Optional[Iterable[AlgebraicNumber]] = None,
) -> TreeAutomaton:
    """Automaton for the complement of ``L(automaton)`` within the leaf-alphabet universe.

    The universe consists of all full binary trees of the automaton's height
    whose leaves carry amplitudes from ``alphabet`` (default: the amplitudes
    appearing in the automaton itself).  The construction is the complete
    :func:`~repro.ta.determinization.subset_construction` — every tree of the
    universe reaches exactly one macro-state per level — whose roots are the
    top-level macro-states holding no root of ``automaton``.
    """
    symbols = leaf_alphabet(automaton) if alphabet is None else tuple(dict.fromkeys(alphabet))
    if not symbols:
        raise ValueError("the leaf alphabet of the complement universe must not be empty")
    automaton = automaton.remove_useless()
    leaves, internal, top = subset_construction(automaton, symbols, complete=True)
    roots = {identifier for macro, identifier in top if automaton.roots.isdisjoint(macro)}
    return TreeAutomaton(automaton.num_qubits, roots, internal, leaves).remove_useless()


def difference(
    left: TreeAutomaton,
    right: TreeAutomaton,
    alphabet: Optional[Sequence[AlgebraicNumber]] = None,
) -> TreeAutomaton:
    """Automaton for ``L(left) \\ L(right)``.

    The complement universe defaults to the union of both automata's leaf
    alphabets, which is sufficient because every tree of ``L(left)`` only uses
    ``left``'s amplitudes.
    """
    if alphabet is None:
        alphabet = leaf_alphabet(left, right)
    return intersection(left, complement(right, alphabet))
