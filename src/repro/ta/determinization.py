"""Bottom-up determinization of quantum-state tree automata.

The paper leans on the classical tree-automata toolbox (VATA, TATA) for
language operations; this module provides the textbook bottom-up subset
construction specialised to the layered automata used throughout the library.
:func:`subset_construction` sweeps the input's
:meth:`~repro.ta.automaton.TreeAutomaton.levels` from the leaves upward; it
is the one copy of the construction, which :func:`determinize` runs as is and
:func:`repro.ta.boolean.complement` runs complete (every empty parent set
kept).  A bottom-up deterministic automaton has at most one state reachable
for every subtree, which makes several operations straightforward:

* exact counting of the number of accepted trees (quantum states) without
  enumerating them (:func:`count_language`),
* a canonical form (together with :mod:`repro.ta.minimization`) useful for
  hashing / caching sets of states,
* an alternative equivalence-check path used to cross-validate the
  antichain-based algorithm of :mod:`repro.ta.inclusion` in the test suite.

Determinization can blow up exponentially in the worst case; for the automata
produced by the gate transformers it typically stays close to the input size.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..algebraic import AlgebraicNumber
from .automaton import InternalTransition, TreeAutomaton, make_symbol

__all__ = ["determinize", "is_deterministic", "count_language"]


def is_deterministic(automaton: TreeAutomaton) -> bool:
    """True iff the automaton is bottom-up deterministic.

    Bottom-up determinism means: no two leaf states carry the same amplitude,
    and no two transitions share the same ``(symbol, left, right)`` triple with
    different parents.
    """
    amplitudes = list(automaton.leaves.values())
    if len(set(amplitudes)) != len(amplitudes):
        return False
    seen: Dict[Tuple, int] = {}
    for parent, symbol, left, right in automaton.transitions():
        key = (symbol, left, right)
        if key in seen and seen[key] != parent:
            return False
        seen[key] = parent
    return True


def subset_construction(
    automaton: TreeAutomaton,
    alphabet: Iterable[AlgebraicNumber],
    complete: bool,
) -> Tuple[Dict[int, AlgebraicNumber], Dict[int, List[InternalTransition]],
           List[Tuple[FrozenSet[int], int]]]:
    """The layered bottom-up subset construction over a useless-free automaton.

    Each amplitude of ``alphabet`` gets its own leaf state, for the macro of
    leaf states carrying it.  Level by level upward, each pair of macros of
    the level below then gets a transition to the macro of parents that
    connect their members; an empty parent macro is dropped unless
    ``complete``.  Macro ids are keyed by ``(level, macro)``, in order of
    appearance.  Returns the leaves, the transitions and the top-level
    ``(macro, id)`` entries; the caller picks the roots among them.
    """
    num_qubits = automaton.num_qubits
    macro_ids: Dict[Tuple[int, FrozenSet[int]], int] = {}

    def macro_id(level: int, macro: FrozenSet[int]) -> int:
        return macro_ids.setdefault((level, macro), len(macro_ids))

    by_amplitude: Dict[AlgebraicNumber, Set[int]] = {}
    for state, amplitude in automaton.leaves.items():
        by_amplitude.setdefault(amplitude, set()).add(state)
    leaves: Dict[int, AlgebraicNumber] = {}
    entries: List[Tuple[FrozenSet[int], int]] = []
    for amplitude in alphabet:
        macro = frozenset(by_amplitude.get(amplitude, ()))
        identifier = macro_id(num_qubits, macro)
        if identifier in leaves:  # two amplitudes the automaton lacks share the empty macro
            identifier = macro_id(num_qubits, frozenset({-1 - len(leaves)}) | macro)
        leaves[identifier] = amplitude
        entries.append((macro, identifier))

    levels = automaton.levels()
    internal: Dict[int, List[InternalTransition]] = {}
    for qubit in range(num_qubits - 1, -1, -1):
        level_transitions = [
            (parent, left, right)
            for parent in levels[qubit]
            for _symbol, left, right in automaton.internal[parent]
        ]
        next_entries: Dict[int, FrozenSet[int]] = {}
        for left_macro, left_id in entries:
            for right_macro, right_id in entries:
                parents = frozenset(
                    parent
                    for parent, left, right in level_transitions
                    if left in left_macro and right in right_macro
                )
                if not parents and not complete:
                    continue
                parent_id = macro_id(qubit, parents)
                next_entries[parent_id] = parents
                internal.setdefault(parent_id, []).append((make_symbol(qubit), left_id, right_id))
        entries = [(macro, identifier) for identifier, macro in next_entries.items()]
    return leaves, internal, entries


def determinize(automaton: TreeAutomaton) -> TreeAutomaton:
    """Return a bottom-up deterministic automaton with the same language.

    The construction is :func:`subset_construction` starting with "all leaf
    states carrying amplitude c" for every amplitude c; a top-level macro is
    a root iff it holds a root of the input.
    """
    automaton = automaton.remove_useless()
    leaves, internal, top = subset_construction(
        automaton, dict.fromkeys(automaton.leaves.values()), complete=False)
    roots = {identifier for macro, identifier in top if macro & automaton.roots}
    return TreeAutomaton(automaton.num_qubits, roots, internal, leaves).remove_useless()


def count_language(automaton: TreeAutomaton) -> int:
    """Exactly count the number of distinct quantum states (trees) accepted.

    Counting runs of a *nondeterministic* automaton over-counts trees with
    multiple runs, so the automaton is determinized first; in a bottom-up
    deterministic automaton every tree has exactly one run, and the count is
    one sweep of its levels from the leaves upward.
    """
    det = determinize(automaton)
    levels = det.levels()
    counts: Dict[int, int] = dict.fromkeys(levels[-1], 1)
    for level in reversed(levels[:-1]):
        for state in level:
            counts[state] = sum(
                counts[left] * counts[right] for _symbol, left, right in det.internal[state]
            )
    return sum(counts[root] for root in det.roots)
