"""Tree automata over full binary trees encoding sets of quantum states.

This module is the reproduction's stand-in for the VATA library used by the
paper.  A :class:`TreeAutomaton` represents a finite set of ``n``-qubit quantum
states: its language consists of full binary trees of height ``n`` whose
internal nodes at depth ``i`` are labelled with the qubit symbol ``x_{i+1}``
and whose leaves carry algebraic amplitudes (Section 3 of the paper).

Representation
--------------
* States are non-negative integers.
* An *internal transition* is ``parent -- (qubit, tags) --> (left, right)``.
  ``tags`` is the (possibly empty) tuple of tag numbers introduced by the
  composition-based gate encoding (Section 6); untagged automata always use
  the empty tuple.
* A *leaf transition* maps a leaf state to exactly one
  :class:`~repro.algebraic.omega.AlgebraicNumber` amplitude (the paper's
  convention that leaf transitions have dedicated parent states).
* A state is either internal (has internal transitions) or a leaf state, never
  both.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..algebraic import ZERO, AlgebraicNumber
from ..states import QuantumState

__all__ = [
    "Symbol",
    "InternalTransition",
    "TreeAutomaton",
    "make_symbol",
    "symbol_qubit",
    "symbol_tags",
]

#: An internal-node symbol: ``(qubit_index, tags)``.
Symbol = Tuple[int, Tuple[int, ...]]
#: ``(symbol, left_state, right_state)``.
InternalTransition = Tuple[Symbol, int, int]


def make_symbol(qubit: int, tags: Tuple[int, ...] = ()) -> Symbol:
    """Build the internal symbol for ``qubit`` with optional tags."""
    return (int(qubit), tuple(tags))


def symbol_qubit(symbol: Symbol) -> int:
    """The qubit (tree level) of an internal symbol."""
    return symbol[0]


def symbol_tags(symbol: Symbol) -> Tuple[int, ...]:
    """The tag tuple of an internal symbol (empty when untagged)."""
    return symbol[1]


# ------------------------------------------------------ benchmark compatibility
# The gate memo of a ``GateRuntime`` is the only in-process result tier: this
# module keeps no reduce cache and no intern tables.  ``perfbench/`` still
# empties and samples them before every batch, so these three stay as no-ops
# for it alone until the benchmark's next change; nothing else calls them.


def clear_reduce_cache() -> None:
    """No-op: there is no reduce cache (kept for ``perfbench/``)."""


def clear_intern_tables() -> None:
    """No-op: there are no intern tables (kept for ``perfbench/``)."""


def reduce_cache_stats() -> Dict[str, int]:
    """Always zero: there is no reduce cache (kept for ``perfbench/``)."""
    return {"size": 0, "hits": 0, "misses": 0}


class TreeAutomaton:
    """A (nondeterministic, finite) tree automaton encoding quantum-state sets."""

    __slots__ = ("num_qubits", "roots", "internal", "leaves", "_max_state", "_states",
                 "_num_transitions", "_levels", "_digest", "_reduced", "_skey", "_pair_index")

    def __init__(
        self,
        num_qubits: int,
        roots: Iterable[int],
        internal: Dict[int, Iterable[InternalTransition]],
        leaves: Dict[int, AlgebraicNumber],
    ):
        self.num_qubits = int(num_qubits)
        self.roots = frozenset(int(r) for r in roots)
        self.internal: Dict[int, Tuple[InternalTransition, ...]] = {
            int(state): tuple(dict.fromkeys(transitions))
            for state, transitions in internal.items()
            if transitions
        }
        self.leaves: Dict[int, AlgebraicNumber] = dict(leaves)
        self._max_state: Optional[int] = None
        self._states: Optional[FrozenSet[int]] = None
        self._num_transitions: Optional[int] = None
        self._levels: Optional[Tuple[Tuple[int, ...], ...]] = None
        #: content digest, filled lazily by repro.ta.store.fingerprint
        self._digest: Optional[str] = None
        self._reduced = False
        self._skey: Optional[tuple] = None
        self._pair_index: Optional[Dict[Tuple[int, Symbol], Tuple[Tuple[int, int], ...]]] = None

    @classmethod
    def _make(
        cls,
        num_qubits: int,
        roots: FrozenSet[int],
        internal: Dict[int, Tuple[InternalTransition, ...]],
        leaves: Dict[int, AlgebraicNumber],
    ) -> "TreeAutomaton":
        """Trusted fast-path constructor for the kernel transformers.

        The caller guarantees what ``__init__`` would otherwise normalise:
        ``roots`` is a frozenset, every value of ``internal`` is a non-empty,
        duplicate-free tuple of transitions, and neither mapping is mutated
        afterwards (they may alias another automaton's storage).  Skipping the
        deduplicating dictcomp is a large constant win because the
        transformers construct automata once per gate term.
        """
        self = cls.__new__(cls)
        self.num_qubits = num_qubits
        self.roots = roots if isinstance(roots, frozenset) else frozenset(roots)
        self.internal = internal
        self.leaves = leaves
        self._max_state = None
        self._states = None
        self._num_transitions = None
        self._levels = None
        self._digest = None
        self._reduced = False
        self._skey = None
        self._pair_index = None
        return self

    # ----------------------------------------------------------------- basics
    @property
    def states(self) -> FrozenSet[int]:
        """All states mentioned anywhere in the automaton (cached; do not mutate)."""
        if self._states is None:
            result: Set[int] = set(self.roots) | set(self.internal) | set(self.leaves)
            for transitions in self.internal.values():
                for _symbol, left, right in transitions:
                    result.add(left)
                    result.add(right)
            self._states = frozenset(result)
        return self._states

    @property
    def num_states(self) -> int:
        """Number of states (the ``states`` column of the paper's tables)."""
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        """Number of transitions (the ``transitions`` column of the tables)."""
        if self._num_transitions is None:
            self._num_transitions = sum(len(ts) for ts in self.internal.values()) + len(self.leaves)
        return self._num_transitions

    def size_summary(self) -> str:
        """Format sizes the way the paper's tables do: ``states (transitions)``."""
        return f"{self.num_states} ({self.num_transitions})"

    def transitions(self) -> Iterator[Tuple[int, Symbol, int, int]]:
        """Iterate over all internal transitions as ``(parent, symbol, left, right)``."""
        for parent, transitions in self.internal.items():
            for symbol, left, right in transitions:
                yield parent, symbol, left, right

    def pair_index(self) -> Dict[Tuple[int, Symbol], Tuple[Tuple[int, int], ...]]:
        """``(state, symbol) -> ((left, right), ...)`` product index (cached).

        This is the flat per-symbol grouping the worklist product construction
        (``binary_operation``) probes for matching transitions; caching it on
        the instance makes repeated products with the same right operand (one
        per term of a gate's update formula) skip the re-indexing pass.
        """
        if self._pair_index is None:
            grouped: Dict[Tuple[int, Symbol], List[Tuple[int, int]]] = {}
            for parent, transitions in self.internal.items():
                for symbol, left, right in transitions:
                    grouped.setdefault((parent, symbol), []).append((left, right))
            self._pair_index = {key: tuple(value) for key, value in grouped.items()}
        return self._pair_index

    def next_free_state(self) -> int:
        """Return an integer strictly greater than every existing state id."""
        if self._max_state is None:
            states = self.states
            self._max_state = max(states) if states else -1
        return self._max_state + 1

    def structure_key(self) -> tuple:
        """A hashable fingerprint of the exact structure (cached).

        Unlike :meth:`relabelled`, state ids are *not* renumbered: the key is the
        raw ``(roots, internal, leaves)`` content in insertion order, which is
        deterministic for a given construction history.  Two automata built by
        the same transformer sequence over equal inputs therefore get equal
        keys — exactly the property the gate memo needs — at one O(size) pass
        without sorting.
        """
        if self._skey is None:
            self._skey = (
                self.num_qubits,
                self.roots,
                tuple(self.internal.items()),
                tuple(self.leaves.items()),
            )
        return self._skey

    def levels(self) -> Tuple[Tuple[int, ...], ...]:
        """The level index: ``levels[q]`` holds the states whose transitions
        read qubit ``q``, and ``levels[n]`` the leaf states (cached).

        This is the one layering rule of the framework, checked on every
        state, root-reachable or not, and the one per-level view of an
        automaton: useless-state removal, the reduction, the support query,
        membership, the subset construction, counting and inclusion all
        sweep this index.  Raises :class:`ValueError` unless

        * no state is both internal and a leaf,
        * all transitions of a state read one qubit ``q`` with ``0 <= q < n``,
        * every child of a qubit-``q`` transition is a qubit-``q + 1`` state,
          or a leaf when ``q = n - 1``,
        * every root reads qubit 0.

        A state with neither transitions nor an amplitude has no level; it is
        simply unproductive.
        """
        if self._levels is None:
            num_qubits = self.num_qubits
            leaves = self.leaves
            level_of: Dict[int, int] = dict.fromkeys(leaves, num_qubits)
            grouped: List[List[int]] = [[] for _ in range(num_qubits)]
            for state, transitions in self.internal.items():
                if state in leaves:
                    raise ValueError(f"non-layered automaton: state {state} is both internal and a leaf")
                qubit = transitions[0][0][0]
                if not 0 <= qubit < num_qubits:
                    raise ValueError(
                        f"non-layered automaton: state {state} reads qubit {qubit} of {num_qubits}")
                level_of[state] = qubit
                grouped[qubit].append(state)
            for state, transitions in self.internal.items():
                qubit = level_of[state]
                below = qubit + 1
                for symbol, left, right in transitions:
                    if symbol[0] != qubit:
                        raise ValueError(
                            f"non-layered automaton: state {state} reads qubits {qubit} and {symbol[0]}")
                    if level_of.get(left, below) != below or level_of.get(right, below) != below:
                        child = left if level_of.get(left, below) != below else right
                        raise ValueError(
                            f"non-layered automaton: child {child} of qubit-{qubit} state {state} "
                            f"is not at level {below} (a state reachable at two depths, or on a cycle)")
            for root in self.roots:
                if level_of.get(root, 0) != 0:
                    raise ValueError(
                        f"non-layered automaton: root {root} is at level {level_of[root]}, not 0")
            self._levels = tuple(map(tuple, grouped)) + (tuple(leaves),)
        return self._levels

    def is_tagged(self) -> bool:
        """True iff any internal symbol carries composition tags."""
        return any(symbol_tags(symbol) for _p, symbol, _l, _r in self.transitions())

    def __repr__(self) -> str:
        return (
            f"TreeAutomaton(num_qubits={self.num_qubits}, states={self.num_states}, "
            f"transitions={self.num_transitions}, roots={sorted(self.roots)})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality (same states, roots and transitions) — *not* language equality."""
        if not isinstance(other, TreeAutomaton):
            return NotImplemented
        if self is other:
            return True
        # fast path: equal structure keys mean bit-identical content, and both
        # sides often have theirs cached (the gate memo keys on it) —
        # comparing them skips rebuilding two full frozenset tables.  Unequal
        # keys are inconclusive (they are transition-order-sensitive; equality
        # is not), so fall through to the order-insensitive comparison.
        if (
            self._skey is not None
            and other._skey is not None
            and self._skey == other._skey
        ):
            return True
        return (
            self.num_qubits == other.num_qubits
            and self.roots == other.roots
            and {s: frozenset(t) for s, t in self.internal.items()}
            == {s: frozenset(t) for s, t in other.internal.items()}
            and self.leaves == other.leaves
        )

    # -------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise :class:`ValueError` unless the automaton is layered (:meth:`levels`)."""
        self.levels()

    # ---------------------------------------------------------------- algebra
    def relabelled(self) -> "TreeAutomaton":
        """Return an automaton with states renumbered ``0..m-1`` deterministically."""
        ordered = sorted(self.states)
        mapping = {old: new for new, old in enumerate(ordered)}
        internal = {
            mapping[parent]: tuple(
                (symbol, mapping[left], mapping[right]) for symbol, left, right in transitions
            )
            for parent, transitions in self.internal.items()
        }
        leaves = {mapping[state]: amplitude for state, amplitude in self.leaves.items()}
        roots = {mapping[root] for root in self.roots if root in mapping}
        return TreeAutomaton(self.num_qubits, roots, internal, leaves)

    def map_leaves(self, mapper) -> "TreeAutomaton":
        """Return a copy whose leaf amplitudes are transformed by ``mapper``."""
        leaves = {state: mapper(amplitude) for state, amplitude in self.leaves.items()}
        # the internal structure is immutable -> share it outright
        return TreeAutomaton._make(self.num_qubits, self.roots, self.internal, leaves)

    def remove_useless(self) -> "TreeAutomaton":
        """Drop states that are not both reachable (top-down) and productive (bottom-up).

        Runs :func:`repro.ta.kernel.reference.remove_useless` through the
        kernel instance (:mod:`repro.ta.kernel`): one sweep of
        :meth:`levels` from the leaves upward decides productivity.  Returns
        ``self`` (identity) when no state is useless, and raises
        :class:`ValueError` when the automaton is not layered, as
        :meth:`validate` does.
        """
        from .kernel import active_backend

        return active_backend().remove_useless(self)

    def reduce(self) -> "TreeAutomaton":
        """Merge states with identical outgoing behaviour.

        This is the paper's "lightweight simulation-based reduction": two
        states are merged when they have exactly the same successor transitions
        (after previous merges), which is a congruence refinement computed
        bottom-up.  Useless states are removed first, then one sweep of
        :meth:`levels` from the leaves upward merges the rest; an automaton
        that is not layered is refused with :class:`ValueError`, as
        :meth:`validate` refuses it.

        The result is a pure function of this automaton and nothing here
        caches it: an automaton ``reduce()`` returned answers a second
        ``reduce()`` with itself, and the gate memo of a
        :class:`~repro.core.engine.GateRuntime` keeps reduced gate results.
        Both sweeps run through the kernel instance (:mod:`repro.ta.kernel`).
        """
        if self._reduced:
            return self
        from .kernel import active_backend

        backend = active_backend()
        result = backend.reduce_layered(backend.remove_useless(self))
        result._reduced = True
        return result

    # -------------------------------------------------------------- language
    def accepts(self, state: QuantumState) -> bool:
        """Membership test: is the full-binary-tree encoding of ``state`` accepted?

        A subtree at depth ``d`` can only be generated by states of
        ``levels()[d]``; an automaton that is not layered is refused with
        :class:`ValueError`.
        """
        levels = self.levels()
        if state.num_qubits != self.num_qubits:
            return False
        internal = self.internal
        leaf_states_by_amplitude: Dict[AlgebraicNumber, Set[int]] = {}
        for leaf_state, amplitude in self.leaves.items():
            leaf_states_by_amplitude.setdefault(amplitude, set()).add(leaf_state)

        cache: Dict[Tuple[int, frozenset], frozenset] = {}

        def reach(depth: int, submap: frozenset) -> frozenset:
            """TA states that generate the subtree described by the sparse suffix map."""
            key = (depth, submap)
            if key in cache:
                return cache[key]
            if depth == self.num_qubits:
                amplitude = ZERO
                for _suffix, value in submap:
                    amplitude = value
                result = frozenset(leaf_states_by_amplitude.get(amplitude, frozenset()))
            else:
                left_items = frozenset(
                    (suffix[1:], value) for suffix, value in submap if suffix[0] == 0
                )
                right_items = frozenset(
                    (suffix[1:], value) for suffix, value in submap if suffix[0] == 1
                )
                left_states = reach(depth + 1, left_items)
                right_states = reach(depth + 1, right_items)
                states = set()
                if left_states and right_states:
                    for parent in levels[depth]:
                        for _symbol, left, right in internal[parent]:
                            if left in left_states and right in right_states:
                                states.add(parent)
                                break
                result = frozenset(states)
            cache[key] = result
            return result

        initial = frozenset((bits, amplitude) for bits, amplitude in state.items())
        return bool(reach(0, initial) & self.roots)

    def enumerate_states(self, limit: Optional[int] = None) -> List[QuantumState]:
        """Enumerate the language as explicit :class:`QuantumState` objects.

        Subtrees are represented sparsely (suffix -> amplitude maps), so the
        cost is proportional to the number and sparsity of accepted states,
        not to ``2^n``.  ``limit`` bounds the number of returned states; a
        :class:`ValueError` is raised when the language exceeds it.
        """
        cache: Dict[int, List[Dict[Tuple[int, ...], AlgebraicNumber]]] = {}

        def expand(state: int, depth: int) -> List[Dict[Tuple[int, ...], AlgebraicNumber]]:
            if state in cache:
                return cache[state]
            results: List[Dict[Tuple[int, ...], AlgebraicNumber]] = []
            if state in self.leaves:
                amplitude = self.leaves[state]
                results.append({} if amplitude.is_zero() else {(): amplitude})
            else:
                for symbol, left, right in self.internal.get(state, ()):
                    for left_map, right_map in itertools.product(
                        expand(left, depth + 1), expand(right, depth + 1)
                    ):
                        merged: Dict[Tuple[int, ...], AlgebraicNumber] = {}
                        for suffix, amplitude in left_map.items():
                            merged[(0,) + suffix] = amplitude
                        for suffix, amplitude in right_map.items():
                            merged[(1,) + suffix] = amplitude
                        if merged not in results:
                            results.append(merged)
                        if limit is not None and len(results) > limit:
                            raise ValueError(f"language exceeds enumeration limit {limit}")
            cache[state] = results
            return results

        seen: List[QuantumState] = []
        for root in sorted(self.roots):
            for amplitude_map in expand(root, 0):
                candidate = QuantumState(self.num_qubits, amplitude_map)
                if candidate not in seen:
                    seen.append(candidate)
                if limit is not None and len(seen) > limit:
                    raise ValueError(f"language exceeds enumeration limit {limit}")
        return seen

    def is_empty(self) -> bool:
        """True iff the language is empty."""
        return not self.remove_useless().roots

    # ------------------------------------------------------------- utilities
    def untagged(self) -> "TreeAutomaton":
        """Return a copy with all composition tags removed from internal symbols."""
        internal = {
            parent: tuple(dict.fromkeys(
                (make_symbol(symbol_qubit(symbol)), left, right)
                for symbol, left, right in transitions
            ))
            for parent, transitions in self.internal.items()
        }
        return TreeAutomaton._make(self.num_qubits, self.roots, internal, self.leaves)

    def shifted(self, offset: int) -> "TreeAutomaton":
        """Return a copy with every state id shifted by ``offset`` (for disjoint unions)."""
        internal = {
            parent + offset: tuple(
                (symbol, left + offset, right + offset) for symbol, left, right in transitions
            )
            for parent, transitions in self.internal.items()
        }
        leaves = {state + offset: amplitude for state, amplitude in self.leaves.items()}
        roots = frozenset(root + offset for root in self.roots)
        return TreeAutomaton._make(self.num_qubits, roots, internal, leaves)

    def union(self, other: "TreeAutomaton") -> "TreeAutomaton":
        """Language union of two automata over the same number of qubits."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("cannot union automata of different widths")
        offset = self.next_free_state()
        shifted = other.shifted(offset)
        internal = dict(self.internal)
        internal.update(shifted.internal)
        leaves = dict(self.leaves)
        leaves.update(shifted.leaves)
        roots = self.roots | shifted.roots
        return TreeAutomaton._make(self.num_qubits, roots, internal, leaves)
