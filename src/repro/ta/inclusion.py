"""Language inclusion and equivalence checking with counterexample extraction.

This replaces the role of the VATA library in the paper's pipeline: after the
circuit has been executed over the pre-condition TA, the resulting TA is
compared against the post-condition TA (equivalence or inclusion) and, if the
check fails, a *witness* quantum state accepted by one side but not the other
is returned for diagnosis.

The algorithm is an antichain-style bottom-up product exploration specialised
to the layered, acyclic automata produced by this library (a depth-``d``
state of ``A`` is matched against the level-``d`` transitions of ``B``, read
from :meth:`~repro.ta.automaton.TreeAutomaton.levels`):

* for every state ``q`` of ``A`` we compute the set of *macro-states*
  ``S ⊆ Q_B`` such that some tree ``t`` is generated by ``q`` in ``A`` and
  ``S`` is exactly the set of ``B``-states generating ``t``;
* only ⊆-minimal macro-states are kept (smaller sets witness non-inclusion at
  least as well as larger ones);
* ``L(A) ⊆ L(B)`` fails iff some root of ``A`` carries a macro-state disjoint
  from the roots of ``B``; the tree that produced it is the counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..algebraic import ZERO, AlgebraicNumber
from ..states import QuantumState
from .automaton import TreeAutomaton

__all__ = ["InclusionResult", "EquivalenceResult", "check_inclusion", "check_equivalence"]

# A witness subtree is represented sparsely as a tuple of (suffix_bits, amplitude)
# pairs; only non-zero amplitudes are stored.
_SparseTree = Tuple[Tuple[Tuple[int, ...], AlgebraicNumber], ...]


@dataclass(frozen=True)
class InclusionResult:
    """Outcome of an inclusion check ``L(A) ⊆ L(B)``."""

    holds: bool
    counterexample: Optional[QuantumState] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check ``L(A) = L(B)``."""

    equivalent: bool
    counterexample: Optional[QuantumState] = None
    #: "left-only" when the witness is accepted by A but not B, "right-only" otherwise.
    side: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equivalent


def check_inclusion(left: TreeAutomaton, right: TreeAutomaton) -> InclusionResult:
    """Check ``L(left) ⊆ L(right)``; return a counterexample state if it fails."""
    if left.num_qubits != right.num_qubits:
        raise ValueError("automata must have the same number of qubits")
    left = left.remove_useless()
    right = right.remove_useless()
    if not left.roots:
        return InclusionResult(True)

    right_leaf_states: Dict[AlgebraicNumber, FrozenSet[int]] = {}
    for state, amplitude in right.leaves.items():
        right_leaf_states[amplitude] = right_leaf_states.get(amplitude, frozenset()) | {state}
    # the right operand's transitions per level, flattened once per call
    right_by_level = [
        [(parent, l_state, r_state)
         for parent in level for _symbol, l_state, r_state in right.internal[parent]]
        for level in right.levels()[:-1]
    ]

    # pairs[q] maps a minimal macro-state S to a witness subtree generated by q
    # whose set of generating right-states is S.
    pairs_cache: Dict[int, Dict[FrozenSet[int], _SparseTree]] = {}

    def insert_minimal(
        bucket: Dict[FrozenSet[int], _SparseTree], macro: FrozenSet[int], witness: _SparseTree
    ) -> None:
        for existing in list(bucket):
            if existing <= macro:
                return
            if macro < existing:
                del bucket[existing]
        bucket[macro] = witness

    def pairs(state: int, depth: int) -> Dict[FrozenSet[int], _SparseTree]:
        if state in pairs_cache:
            return pairs_cache[state]
        bucket: Dict[FrozenSet[int], _SparseTree] = {}
        if state in left.leaves:
            amplitude = left.leaves[state]
            macro = right_leaf_states.get(amplitude, frozenset())
            witness: _SparseTree = () if amplitude.is_zero() else (((), amplitude),)
            insert_minimal(bucket, macro, witness)
        else:
            candidates = right_by_level[depth]
            for symbol, left_child, right_child in left.internal.get(state, ()):
                left_pairs = pairs(left_child, depth + 1)
                right_pairs = pairs(right_child, depth + 1)
                for left_macro, left_witness in left_pairs.items():
                    for right_macro, right_witness in right_pairs.items():
                        macro = frozenset(
                            parent
                            for parent, l_state, r_state in candidates
                            if l_state in left_macro and r_state in right_macro
                        )
                        witness = tuple(
                            ((0,) + suffix, amplitude) for suffix, amplitude in left_witness
                        ) + tuple(((1,) + suffix, amplitude) for suffix, amplitude in right_witness)
                        insert_minimal(bucket, macro, witness)
        pairs_cache[state] = bucket
        return bucket

    for root in sorted(left.roots):
        for macro, witness in pairs(root, 0).items():
            if not (macro & right.roots):
                counterexample = QuantumState(left.num_qubits, dict(witness))
                return InclusionResult(False, counterexample)
    return InclusionResult(True)


def check_equivalence(left: TreeAutomaton, right: TreeAutomaton) -> EquivalenceResult:
    """Check ``L(left) = L(right)``; return a one-sided counterexample if it fails."""
    forward = check_inclusion(left, right)
    if not forward.holds:
        return EquivalenceResult(False, forward.counterexample, "left-only")
    backward = check_inclusion(right, left)
    if not backward.holds:
        return EquivalenceResult(False, backward.counterexample, "right-only")
    return EquivalenceResult(True)
