"""Tree tagging for the composition-based gate encoding (Section 6.1).

Tagging assigns every internal transition of a TA a unique number, embedded in
the transition's symbol.  After tagging, every non-single-valued tree in the
language has a unique tag (Lemma 6.3), which lets the later binary (product)
operation combine only trees that originate from the same source tree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ta.automaton import (
    InternalTransition,
    TreeAutomaton,
    make_symbol,
    symbol_qubit,
)

__all__ = ["tag", "untag"]


def tag(automaton: TreeAutomaton) -> TreeAutomaton:
    """Return a tagged copy: every internal transition gets a unique tag number.

    The input must be untagged (plain symbols); leaf transitions are unchanged
    (Algorithm 3).
    """
    if automaton.is_tagged():
        raise ValueError("automaton is already tagged")
    counter = 0
    internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    for parent in sorted(automaton.internal):
        tagged_transitions: List[InternalTransition] = []
        for symbol, left, right in automaton.internal[parent]:
            counter += 1
            tagged_transitions.append(
                (make_symbol(symbol_qubit(symbol), (counter,)), left, right)
            )
        internal[parent] = tuple(tagged_transitions)
    return TreeAutomaton._make(
        automaton.num_qubits, automaton.roots, internal, automaton.leaves
    )


def untag(automaton: TreeAutomaton) -> TreeAutomaton:
    """Strip all tags from internal symbols (the final step of a gate application)."""
    return automaton.untagged()
