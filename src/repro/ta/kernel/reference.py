"""The pure-Python TA kernel: product, useless-state removal and reduction.

These are the three tree-automaton operations every gate transformer comes
down to.  The functions are deterministic down to the state ids they assign
and the order of the transition tuples they build, so equal inputs give
automata with equal ``structure_key()`` fingerprints; the reduce cache, the
gate memo and the on-disk store all rely on that.

:class:`ReferenceBackend` exposes the functions as methods of one instance
(:func:`repro.ta.kernel.active_backend`);
``TreeAutomaton.remove_useless``/``TreeAutomaton.reduce`` and
``repro.core.composition.binary_operation`` call through it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...algebraic import AlgebraicNumber
from ..automaton import InternalTransition, TreeAutomaton, intern_transition

__all__ = [
    "ReferenceBackend",
    "binary_operation",
    "reduce_fixpoint",
    "reduce_layered",
    "remove_useless",
]


def remove_useless(automaton: TreeAutomaton) -> TreeAutomaton:
    """Drop states that are not both reachable (top-down) and productive (bottom-up).

    Productivity is computed with a counting worklist (one pass over the
    transitions plus one event per state that turns productive), not a
    repeated fixpoint sweep, so the common no-op case costs O(transitions).
    Returns ``automaton`` itself (identity) when every state is useful.
    """
    internal = automaton.internal
    # productive = can generate at least one subtree
    productive: Set[int] = set(automaton.leaves)
    # per-transition countdown of unproductive children; child -> cells to
    # decrement when it turns productive
    trigger: Dict[int, List[List[int]]] = {}
    queue: List[int] = []
    for parent, transitions in internal.items():
        for _symbol, left, right in transitions:
            if parent in productive:
                break
            waiting = [child for child in {left, right} if child not in productive]
            if any(child not in internal for child in waiting):
                continue  # a child with no rules at all can never produce
            if not waiting:
                productive.add(parent)
                queue.append(parent)
                break
            cell = [parent, len(waiting)]
            for child in waiting:
                trigger.setdefault(child, []).append(cell)
    while queue:
        state = queue.pop()
        for cell in trigger.get(state, ()):
            cell[1] -= 1
            if cell[1] == 0 and cell[0] not in productive:
                productive.add(cell[0])
                queue.append(cell[0])
    # reachable = reachable from a root through productive transitions
    reachable: Set[int] = set()
    stack = [root for root in automaton.roots if root in productive]
    while stack:
        state = stack.pop()
        if state in reachable:
            continue
        reachable.add(state)
        for _symbol, left, right in internal.get(state, ()):
            if left in productive and right in productive:
                if left not in reachable:
                    stack.append(left)
                if right not in reachable:
                    stack.append(right)
    keep = reachable
    if len(keep) == len(automaton.states):
        # every state is useful, so no transition can be dropped either
        return automaton
    new_internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    for parent, transitions in internal.items():
        if parent not in keep:
            continue
        kept = tuple(
            entry for entry in transitions if entry[1] in keep and entry[2] in keep
        )
        if kept:
            new_internal[parent] = transitions if len(kept) == len(transitions) else kept
    leaves = {state: amplitude for state, amplitude in automaton.leaves.items() if state in keep}
    roots = automaton.roots if keep >= automaton.roots else frozenset(
        root for root in automaton.roots if root in keep
    )
    return TreeAutomaton._make(automaton.num_qubits, roots, new_internal, leaves)


def reduce_layered(automaton: TreeAutomaton) -> TreeAutomaton:
    """Single bottom-up pass over the depth layers (``automaton`` useless-free).

    In a layered automaton every transition points one level down, so a
    state's final signature only depends on strictly deeper states; one
    sweep from the leaf layer to the roots reaches the congruence fixpoint
    without re-hashing any subtree twice.  The caller guarantees
    ``automaton._state_depths()`` is not ``None``.
    """
    depths = automaton._state_depths()
    internal = automaton.internal
    leaves = automaton.leaves
    by_depth: Dict[int, List[int]] = {}
    for state, depth in depths.items():
        by_depth.setdefault(depth, []).append(state)

    representative: Dict[int, int] = {}
    merged_any = False
    for depth in sorted(by_depth, reverse=True):
        table: Dict[object, int] = {}
        for state in sorted(by_depth[depth]):
            if state in leaves:
                signature: object = leaves[state]
            else:
                signature = frozenset(
                    intern_transition(symbol, representative[left], representative[right])
                    for symbol, left, right in internal.get(state, ())
                )
            previous = table.get(signature)
            if previous is None:
                table[signature] = state
                representative[state] = state
            else:
                representative[state] = previous
                merged_any = True
    if not merged_any:
        return automaton
    new_internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    for parent, transitions in internal.items():
        if representative[parent] != parent:
            continue  # merged into an earlier state with the same signature
        new_internal[parent] = tuple(dict.fromkeys(
            intern_transition(symbol, representative[left], representative[right])
            for symbol, left, right in transitions
        ))
    new_leaves = {
        state: amplitude for state, amplitude in leaves.items()
        if representative[state] == state
    }
    new_roots = frozenset(representative[root] for root in automaton.roots)
    return TreeAutomaton._make(automaton.num_qubits, new_roots, new_internal, new_leaves)


def reduce_fixpoint(automaton: TreeAutomaton) -> TreeAutomaton:
    """Depth-agnostic fallback for non-layered automata (``automaton`` useless-free)."""
    representative: Dict[int, int] = {state: state for state in automaton.states}

    def resolve(state: int) -> int:
        while representative[state] != state:
            representative[state] = representative[representative[state]]
            state = representative[state]
        return state

    changed = True
    merged_any = False
    internal = automaton.internal
    leaves = automaton.leaves
    ordered_states = sorted(automaton.states)
    while changed:
        changed = False
        signature_to_state: Dict[object, int] = {}
        for state in ordered_states:
            state = resolve(state)
            if state in leaves:
                signature = ("leaf", leaves[state])
            else:
                signature = (
                    "internal",
                    frozenset(
                        intern_transition(symbol, resolve(left), resolve(right))
                        for symbol, left, right in internal.get(state, ())
                    ),
                )
            previous = signature_to_state.get(signature)
            if previous is None:
                signature_to_state[signature] = state
            elif previous != state:
                representative[state] = previous
                changed = True
                merged_any = True
    if not merged_any:
        # nothing merged: the useless-state-free automaton is already reduced,
        # so reuse it (and its interned transition storage) as-is
        return automaton
    new_internal: Dict[int, Dict[InternalTransition, None]] = {}
    for parent, transitions in internal.items():
        rep_parent = resolve(parent)
        bucket = new_internal.setdefault(rep_parent, {})
        for symbol, left, right in transitions:
            bucket[intern_transition(symbol, resolve(left), resolve(right))] = None
    new_leaves = {resolve(state): amplitude for state, amplitude in leaves.items()}
    new_roots = {resolve(root) for root in automaton.roots}
    reduced = TreeAutomaton(automaton.num_qubits, new_roots, new_internal, new_leaves)
    return reduced.remove_useless()


def binary_operation(
    left: TreeAutomaton, right: TreeAutomaton, subtract: bool = False
) -> TreeAutomaton:
    """The binary operation ``Bin(A1, A2, ±)`` (Algorithm 9).

    A product construction over matching (tagged) symbols; leaf amplitudes are
    added (or subtracted).  Only pairs reachable from the root pairs are built.
    """
    if left.num_qubits != right.num_qubits:
        raise ValueError("operands must have the same number of qubits")
    # the (state, symbol) -> child-pairs index is cached on the right operand,
    # so repeated products over a shared automaton — the normal case thanks to
    # the reduce cache — skip the re-indexing pass entirely
    left_internal = left.internal
    left_leaves = left.leaves
    right_leaves = right.leaves
    right_index = right.pair_index()

    pair_ids: Dict[Tuple[int, int], int] = {}
    internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    leaves: Dict[int, AlgebraicNumber] = {}

    def pair_id(pair: Tuple[int, int]) -> int:
        identifier = pair_ids.get(pair)
        if identifier is None:
            identifier = len(pair_ids)
            pair_ids[pair] = identifier
        return identifier

    worklist: List[Tuple[int, int]] = [
        (left_root, right_root)
        for left_root in left.roots
        for right_root in right.roots
    ]
    roots = frozenset(pair_id(pair) for pair in worklist)
    dead_pairs = False

    while worklist:
        pair = worklist.pop()
        left_state, right_state = pair
        current = pair_ids[pair]
        left_amp = left_leaves.get(left_state)
        right_amp = right_leaves.get(right_state)
        if left_amp is not None and right_amp is not None:
            leaves[current] = left_amp - right_amp if subtract else left_amp + right_amp
            continue
        transitions: Dict[InternalTransition, None] = {}
        if left_amp is None and right_amp is None:
            for symbol, l_child, r_child in left_internal.get(left_state, ()):
                for rl_child, rr_child in right_index.get((right_state, symbol), ()):
                    left_pair = (l_child, rl_child)
                    right_pair = (r_child, rr_child)
                    if left_pair not in pair_ids:
                        worklist.append(left_pair)
                    left_id = pair_id(left_pair)
                    if right_pair not in pair_ids:
                        worklist.append(right_pair)
                    transitions[
                        intern_transition(symbol, left_id, pair_id(right_pair))
                    ] = None
        if transitions:
            internal[current] = tuple(transitions)
        else:
            # leaf/internal mismatch or no matching symbol: the pair is a dead
            # end and everything only it supports must be pruned afterwards
            dead_pairs = True
    result = TreeAutomaton._make(left.num_qubits, roots, internal, leaves)
    # the memoised worklist only builds root-reachable pairs, so unless a dead
    # pair appeared the product is already fully useful — no post-hoc pruning
    return result.remove_useless() if dead_pairs else result


class ReferenceBackend:
    """The kernel's operations as methods of the one instance callers use.

    ``reduce_layered``/``reduce_fixpoint`` are called by
    :meth:`TreeAutomaton.reduce` after the reduce-cache probe and the
    ``remove_useless`` pass, on a useless-free automaton.  Every method keeps
    the identity fast paths (returning its input object itself when nothing
    changes); callers test ``is``.
    """

    name = "reference"

    def binary_operation(
        self, left: TreeAutomaton, right: TreeAutomaton, subtract: bool = False
    ) -> TreeAutomaton:
        return binary_operation(left, right, subtract)

    def remove_useless(self, automaton: TreeAutomaton) -> TreeAutomaton:
        return remove_useless(automaton)

    def reduce_layered(self, automaton: TreeAutomaton) -> TreeAutomaton:
        return reduce_layered(automaton)

    def reduce_fixpoint(self, automaton: TreeAutomaton) -> TreeAutomaton:
        return reduce_fixpoint(automaton)
