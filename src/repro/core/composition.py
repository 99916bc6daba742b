"""Composition-based encoding of quantum gates on tree automata (Section 6).

The composition-based approach supports *every* gate of Table 1 (in particular
Hadamard and the pi/2 rotations, which are not basis-state permutations).  It
interprets the gate's symbolic update formula term by term over a *tagged* TA:

========================  =========================================================
paper operation           function here
========================  =========================================================
``Tag`` (Algorithm 3)     :func:`repro.core.tagging.tag`
``Res`` (Algorithm 4)     :func:`restrict`
``Mult`` (Algorithm 5)    :func:`multiply`
``Prj`` (Eq. 13)          :func:`projection` — a direct one-pass construction
``s.copy`` (Algorithm 6)  :func:`subtree_copy` — reference for ``Prj`` only
``f.swap`` (Algorithm 7)  :func:`forward_swap` — reference for ``Prj`` only
``b.swap`` (Algorithm 8)  :func:`backward_swap` — reference for ``Prj`` only
``Bin`` (Algorithm 9)     :func:`binary_operation`
========================  =========================================================

The paper builds ``Prj`` from Algorithms 6-8: swap the qubit down to the
leaves, copy there, swap back, with ``n-1-q`` swaps (each followed by a
reduction) on either side.  :func:`projection` builds the same tagged
language directly from the qubit's transitions; the swap chain is kept as
the reference the test suite checks it against.

:func:`apply_composition_gate` chains the operations as in Fig. 3: tag,
build one TA per term, fold the terms with the binary operation, apply the
global ``1/sqrt(2)`` factor, untag.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Set, Tuple

from ..algebraic import ONE, ZERO, AlgebraicNumber
from ..circuits.gates import Gate
from ..ta import kernel
from ..ta.automaton import (
    InternalTransition,
    TreeAutomaton,
    make_symbol,
    symbol_qubit,
    symbol_tags,
)
from .formulas import UpdateFormula, formula_for
from .tagging import tag, untag

__all__ = [
    "restrict",
    "multiply",
    "subtree_copy",
    "forward_swap",
    "backward_swap",
    "projection",
    "binary_operation",
    "apply_composition_gate",
]


def _copy_subtrees(
    source: TreeAutomaton,
    seeds: List[int],
    offset: int,
    internal: Dict[int, Tuple[InternalTransition, ...]],
    leaves: Dict[int, AlgebraicNumber],
    leaf_scalar: AlgebraicNumber,
) -> None:
    """Add an id-shifted copy of the subtrees rooted at ``seeds`` to ``internal``/``leaves``.

    This is the fused replacement for the transformers' old "copy the whole
    automaton, then prune the unreachable half" pattern (shared with the
    permutation encoding's primed-copy constructions): only the states
    actually reachable from ``seeds`` (the redirected branches) are built, so
    no post-hoc :meth:`~TreeAutomaton.remove_useless` pass is needed.  Copied
    leaves carry ``amplitude * leaf_scalar``.
    """
    seen: Set[int] = set()
    stack = list(seeds)
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        transitions = source.internal.get(state)
        if transitions is None:
            amplitude = source.leaves.get(state)
            if amplitude is not None:
                leaves[state + offset] = (
                    amplitude if leaf_scalar is ONE else amplitude * leaf_scalar
                )
            continue
        internal[state + offset] = tuple(
            (symbol, left + offset, right + offset)
            for symbol, left, right in transitions
        )
        for _symbol, left, right in transitions:
            stack.append(left)
            stack.append(right)


def restrict(automaton: TreeAutomaton, qubit: int, bit: int) -> TreeAutomaton:
    """The restriction operation ``Res(A, x_qubit, bit)`` (Algorithm 4).

    With ``bit == 1`` the result recognises ``B_{x_qubit} · T`` for every
    ``T`` in the language (positions with the qubit equal to 0 are zeroed);
    with ``bit == 0`` it recognises ``B_{x̄_qubit} · T``.  The construction is
    tag-preserving and fused: the zeroed duplicate is only built for the
    subtrees actually redirected (states below the restricted qubit), so the
    result needs no pruning and never blows up to a full second copy.
    """
    offset = automaton.next_free_state()
    internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    leaves: Dict[int, AlgebraicNumber] = dict(automaton.leaves)
    redirected: List[int] = []
    for parent, transitions in automaton.internal.items():
        changed = False
        rewritten: List[InternalTransition] = []
        for entry in transitions:
            symbol, left, right = entry
            if symbol_qubit(symbol) == qubit:
                if bit == 1:
                    rewritten.append((symbol, left + offset, right))
                    redirected.append(left)
                else:
                    rewritten.append((symbol, left, right + offset))
                    redirected.append(right)
                changed = True
            else:
                rewritten.append(entry)
        internal[parent] = tuple(rewritten) if changed else transitions
    # zeroed copy of exactly the redirected subtrees (identical structure => same tags)
    _copy_subtrees(automaton, redirected, offset, internal, leaves, leaf_scalar=ZERO)
    return TreeAutomaton._make(automaton.num_qubits, automaton.roots, internal, leaves)


def multiply(automaton: TreeAutomaton, scalar: AlgebraicNumber) -> TreeAutomaton:
    """The multiplication operation ``Mult(A, v)`` (Algorithm 5), generalised to
    an arbitrary algebraic scalar."""
    return automaton.map_leaves(lambda amplitude: amplitude * scalar)


def subtree_copy(automaton: TreeAutomaton, qubit: int, bit: int) -> TreeAutomaton:
    """Subtree copying ``s.copy(A, x_qubit, bit)`` (Algorithm 6).

    Only sound when the ``x_qubit`` transitions sit directly above the leaf
    layer (Lemma 6.8), where :func:`forward_swap` moves them.  Together with
    the swaps it is the paper's projection, the reference for
    :func:`projection`, which no longer calls it.
    """
    internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    for parent, transitions in automaton.internal.items():
        changed = False
        rewritten: List[InternalTransition] = []
        for entry in transitions:
            symbol, left, right = entry
            if symbol_qubit(symbol) == qubit:
                child = right if bit == 1 else left
                rewritten.append((symbol, child, child))
                changed = True
            else:
                rewritten.append(entry)
        internal[parent] = tuple(dict.fromkeys(rewritten)) if changed else transitions
    return TreeAutomaton._make(automaton.num_qubits, automaton.roots, internal, automaton.leaves)


def _apply_rewrites(
    internal: Dict[int, Tuple[InternalTransition, ...]],
    to_remove: Dict[int, Set[InternalTransition]],
    to_add: Dict[int, List[InternalTransition]],
) -> Dict[int, Tuple[InternalTransition, ...]]:
    """Apply per-parent removals/additions, touching only the parents that change.

    Unchanged parents keep their transition tuples; changed ones are
    rebuilt once (order-preserving, duplicate-free) instead of the old
    ``list.remove`` loop that was quadratic in the transition count.
    """
    result: Dict[int, Tuple[InternalTransition, ...]] = {}
    for parent, transitions in internal.items():
        removals = to_remove.get(parent)
        additions = to_add.get(parent)
        if removals is None and additions is None:
            result[parent] = transitions
            continue
        merged: Dict[InternalTransition, None] = {}
        for entry in transitions:
            if removals is None or entry not in removals:
                merged[entry] = None
        if additions is not None:
            for entry in additions:
                merged[entry] = None
        if merged:
            result[parent] = tuple(merged)
    for parent, additions in to_add.items():
        if parent not in internal:
            result[parent] = tuple(dict.fromkeys(additions))
    return result


def forward_swap(automaton: TreeAutomaton, qubit: int) -> TreeAutomaton:
    """Forward variable-order swapping ``f.swap_qubit`` (Algorithm 7).

    Pushes the (tagged) ``x_qubit`` transitions one layer down, replacing them
    by merged-symbol transitions that remember both child tags so that
    :func:`backward_swap` can restore the original order and tags.
    """
    fresh_counter = automaton.next_free_state()
    to_remove: Dict[int, Set[InternalTransition]] = {}
    to_add: Dict[int, List[InternalTransition]] = {}

    for parent, transitions in automaton.internal.items():
        for symbol, left, right in transitions:
            if symbol_qubit(symbol) != qubit:
                continue
            parent_tags = symbol_tags(symbol)
            left_transitions = automaton.internal.get(left, ())
            right_transitions = automaton.internal.get(right, ())
            if not left_transitions or not right_transitions:
                raise ValueError("forward_swap applied at the leaf layer")
            to_remove.setdefault(parent, set()).add((symbol, left, right))
            for left_symbol, l00, l01 in left_transitions:
                for right_symbol, r10, r11 in right_transitions:
                    lower_qubit = symbol_qubit(left_symbol)
                    if symbol_qubit(right_symbol) != lower_qubit:
                        raise ValueError("children of a swapped transition disagree on their qubit")
                    left_tag = symbol_tags(left_symbol)
                    right_tag = symbol_tags(right_symbol)
                    if len(left_tag) != 1 or len(right_tag) != 1:
                        raise ValueError("forward_swap expects singly-tagged child transitions")
                    merged_symbol = make_symbol(lower_qubit, (left_tag[0], right_tag[0]))
                    new_left = fresh_counter
                    new_right = fresh_counter + 1
                    fresh_counter += 2
                    to_add.setdefault(parent, []).append(
                        (merged_symbol, new_left, new_right)
                    )
                    to_add.setdefault(new_left, []).append(
                        (make_symbol(qubit, parent_tags), l00, r10)
                    )
                    to_add.setdefault(new_right, []).append(
                        (make_symbol(qubit, parent_tags), l01, r11)
                    )
                    to_remove.setdefault(left, set()).add((left_symbol, l00, l01))
                    to_remove.setdefault(right, set()).add((right_symbol, r10, r11))

    internal = _apply_rewrites(automaton.internal, to_remove, to_add)
    return TreeAutomaton._make(
        automaton.num_qubits, automaton.roots, internal, dict(automaton.leaves)
    )


def backward_swap(automaton: TreeAutomaton, qubit: int) -> TreeAutomaton:
    """Backward variable-order swapping ``b.swap_qubit`` (Algorithm 8).

    Inverse of :func:`forward_swap`: pulls the ``x_qubit`` transitions one
    layer up, restoring the original child symbols from the merged tags.
    """
    fresh_counter = automaton.next_free_state()
    to_remove: Dict[int, Set[InternalTransition]] = {}
    to_add: Dict[int, List[InternalTransition]] = {}

    for parent, transitions in automaton.internal.items():
        for symbol, left, right in transitions:
            tags = symbol_tags(symbol)
            if len(tags) != 2:
                continue
            lower_qubit = symbol_qubit(symbol)
            left_transitions = [
                t for t in automaton.internal.get(left, ()) if symbol_qubit(t[0]) == qubit
            ]
            right_transitions = [
                t for t in automaton.internal.get(right, ()) if symbol_qubit(t[0]) == qubit
            ]
            if not left_transitions or not right_transitions:
                continue
            to_remove.setdefault(parent, set()).add((symbol, left, right))
            for left_symbol, c00, c01 in left_transitions:
                for right_symbol, c10, c11 in right_transitions:
                    if symbol_tags(left_symbol) != symbol_tags(right_symbol):
                        continue
                    upper_tags = symbol_tags(left_symbol)
                    new_left = fresh_counter
                    new_right = fresh_counter + 1
                    fresh_counter += 2
                    to_add.setdefault(parent, []).append(
                        (make_symbol(qubit, upper_tags), new_left, new_right)
                    )
                    to_add.setdefault(new_left, []).append(
                        (make_symbol(lower_qubit, (tags[0],)), c00, c10)
                    )
                    to_add.setdefault(new_right, []).append(
                        (make_symbol(lower_qubit, (tags[1],)), c01, c11)
                    )
                    to_remove.setdefault(left, set()).add((left_symbol, c00, c01))
                    to_remove.setdefault(right, set()).add((right_symbol, c10, c11))

    internal = _apply_rewrites(automaton.internal, to_remove, to_add)
    return TreeAutomaton._make(
        automaton.num_qubits, automaton.roots, internal, dict(automaton.leaves)
    )


def projection(automaton: TreeAutomaton, qubit: int, bit: int) -> TreeAutomaton:
    """The projection operation ``Prj(A, x_qubit, bit)`` (Eq. 13), built directly.

    Computes the TA of ``T_{x_qubit}`` (``bit == 1``) or ``T_{x̄_qubit}``
    (``bit == 0``) for every tree ``T`` of the (tagged) input, in one pass over
    the ``x_qubit`` transitions.  Each ``p -u-> (l, r)`` with kept child ``s``
    (``r`` for ``bit == 1``, ``l`` for ``bit == 0``) and other child ``o``
    becomes one transition per run ``ρ`` of ``s``: the kept side generates
    exactly ``ρ``'s tree, and the other side is a *zip* state that follows
    ``o``'s transitions (so ``o``'s tags survive for :func:`binary_operation`)
    while taking ``ρ``'s leaves.  A state whose subtree has a single run is
    its own run, so deterministic regions are zipped once in lockstep and
    never copied; a nondeterministic ``s`` has its runs enumerated, so the two
    sides of one output transition never mix runs.

    The language is that of the paper's chain — :func:`forward_swap` down to
    the leaves, :func:`subtree_copy`, :func:`backward_swap` back up — which
    the test suite uses as the reference.  Only states reachable from the
    rewritten level are built below it, and nothing is reduced here: the
    engine reduces once per gate.
    """
    source = automaton.internal
    source_leaves = automaton.leaves
    internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    leaves: Dict[int, AlgebraicNumber] = {}
    fresh = itertools.count(automaton.next_free_state())
    # state -> the states generating its runs, one run each; a single-run
    # state is its own run and is kept as is
    runs: Dict[int, Tuple[int, ...]] = {}
    zips: Dict[Tuple[int, int], int] = {}
    pending: List[Tuple[int, int, int]] = []

    def runs_of(state: int) -> Tuple[int, ...]:
        stack = [state]
        expanding: Set[int] = set()
        while stack:
            current = stack[-1]
            if current in runs:
                stack.pop()
                continue
            transitions = source.get(current)
            if transitions is None:
                amplitude = source_leaves.get(current)
                if amplitude is not None:
                    leaves[current] = amplitude
                runs[current] = () if amplitude is None else (current,)
                stack.pop()
                continue
            waiting = [
                child for _symbol, left, right in transitions
                for child in (left, right) if child not in runs
            ]
            if waiting:
                if current in expanding:
                    raise ValueError("projection needs an acyclic (layered) automaton")
                expanding.add(current)
                stack.extend(waiting)
                continue
            stack.pop()
            if len(transitions) == 1:
                _symbol, left, right = transitions[0]
                if runs[left] == (left,) and runs[right] == (right,):
                    internal[current] = transitions
                    runs[current] = (current,)
                    continue
            built: List[int] = []
            for symbol, left, right in transitions:
                for left_run in runs[left]:
                    for right_run in runs[right]:
                        run = next(fresh)
                        internal[run] = ((symbol, left_run, right_run),)
                        built.append(run)
            runs[current] = tuple(built)
        return runs[state]

    def zip_state(other: int, run: int) -> int:
        if other in source_leaves:
            return run
        key = (other, run)
        zipped = zips.get(key)
        if zipped is None:
            zipped = zips[key] = next(fresh)
            pending.append((zipped, other, run))
        return zipped

    for parent, transitions in source.items():
        level = symbol_qubit(transitions[0][0])
        if level < qubit:
            internal[parent] = transitions
        elif level == qubit:
            rewritten: Dict[InternalTransition, None] = {}
            for symbol, left, right in transitions:
                kept, other = (right, left) if bit else (left, right)
                for run in runs_of(kept):
                    zipped = zip_state(other, run)
                    pair = (zipped, run) if bit else (run, zipped)
                    rewritten[(symbol, *pair)] = None
            if rewritten:
                internal[parent] = tuple(rewritten)
    while pending:
        zipped, other, run = pending.pop()
        _symbol, run_left, run_right = internal[run][0]
        transitions = source.get(other)
        if transitions:
            internal[zipped] = tuple(
                (symbol, zip_state(left, run_left), zip_state(right, run_right))
                for symbol, left, right in transitions
            )
    return TreeAutomaton._make(automaton.num_qubits, automaton.roots, internal, leaves)


def binary_operation(
    left: TreeAutomaton, right: TreeAutomaton, subtract: bool = False
) -> TreeAutomaton:
    """The binary operation ``Bin(A1, A2, ±)`` (Algorithm 9).

    A product construction over matching (tagged) symbols; leaf amplitudes are
    added (or subtracted).  Only pairs reachable from the root pairs are built.

    The worklist construction is
    :func:`repro.ta.kernel.reference.binary_operation`; this wrapper calls it
    through the kernel instance (:mod:`repro.ta.kernel`), where a profiler
    can count it.
    """
    return kernel.active_backend().binary_operation(left, right, subtract)


def _note_phase(phase_seconds: Optional[Dict[str, float]], name: str, start: float) -> float:
    """Accumulate ``now - start`` under ``name`` (no-op without a dict); returns now."""
    now = time.perf_counter()
    if phase_seconds is not None:
        phase_seconds[name] = phase_seconds.get(name, 0.0) + (now - start)
    return now


def apply_composition_gate(
    automaton: TreeAutomaton,
    gate: Gate,
    formula: UpdateFormula = None,
    phase_seconds: Optional[Dict[str, float]] = None,
) -> TreeAutomaton:
    """Apply a gate with the composition-based approach (Section 6.2, Fig. 3).

    ``phase_seconds`` optionally accumulates wall-clock per pipeline phase
    (``tag`` / ``terms`` / ``bin`` / ``untag``) for the engine's statistics.
    """
    if formula is None:
        formula = formula_for(gate)
    start = time.perf_counter()
    tagged = tag(automaton)
    start = _note_phase(phase_seconds, "tag", start)
    term_automata: List[TreeAutomaton] = []
    for term in formula.terms:
        term_automaton = tagged
        if term.projection is not None:
            proj_qubit, proj_bit = term.projection
            term_automaton = projection(term_automaton, proj_qubit, proj_bit)
        for res_qubit, res_bit in term.restrictions:
            term_automaton = restrict(term_automaton, res_qubit, res_bit)
        scalar = term.scalar if term.sign > 0 else -term.scalar
        if scalar != ONE:
            term_automaton = multiply(term_automaton, scalar)
        term_automata.append(term_automaton)
    start = _note_phase(phase_seconds, "terms", start)
    combined = term_automata[0]
    for term_automaton in term_automata[1:]:
        combined = binary_operation(combined, term_automaton)
    if formula.sqrt2_divisions:
        combined = multiply(combined, AlgebraicNumber(1, 0, 0, 0, formula.sqrt2_divisions))
    start = _note_phase(phase_seconds, "bin", start)
    result = untag(combined)
    _note_phase(phase_seconds, "untag", start)
    return result
