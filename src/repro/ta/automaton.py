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
    "CompactForm",
    "make_symbol",
    "symbol_qubit",
    "symbol_tags",
    "intern_transition",
    "intern_transitions",
    "intern_table_sizes",
    "clear_intern_tables",
    "reduce_cache_stats",
    "clear_reduce_cache",
]

#: An internal-node symbol: ``(qubit_index, tags)``.
Symbol = Tuple[int, Tuple[int, ...]]
#: ``(symbol, left_state, right_state)``.
InternalTransition = Tuple[Symbol, int, int]

# ----------------------------------------------------------------- hash-consing
# The gate transformers create and destroy millions of short transition tuples
# (the same ``(symbol, left, right)`` triple is typically rebuilt by every
# restriction / swap / product step).  Interning them in per-process tables
# makes structurally equal tuples share one object, so dict probing during
# ``reduce()`` and the product constructions mostly hits identity comparisons
# and repeated automata reuse their transition storage instead of re-tupling.
_SYMBOL_TABLE: Dict[Symbol, Symbol] = {}
_TRANSITION_TABLE: Dict[InternalTransition, InternalTransition] = {}
#: safety valve: once a table reaches this size, new entries are no longer
#: stored (existing ones keep being shared) — interning is an optimisation, so
#: degrading it must never cost more than not interning, and wiping a hot
#: million-entry table would.  ``clear_intern_tables()`` resets explicitly.
_MAX_INTERNED = 1_000_000


def make_symbol(qubit: int, tags: Tuple[int, ...] = ()) -> Symbol:
    """Build (and intern) an internal symbol for ``qubit`` with optional tags."""
    table = _SYMBOL_TABLE
    symbol = (int(qubit), tuple(tags))
    if len(table) >= _MAX_INTERNED:
        return table.get(symbol, symbol)
    return table.setdefault(symbol, symbol)


def intern_transition(symbol: Symbol, left: int, right: int) -> InternalTransition:
    """Return the canonical shared tuple for the transition ``(symbol, left, right)``."""
    table = _TRANSITION_TABLE
    entry = (symbol, left, right)
    if len(table) >= _MAX_INTERNED:
        return table.get(entry, entry)
    return table.setdefault(entry, entry)


def intern_transitions(transitions: Iterable[InternalTransition]) -> Tuple[InternalTransition, ...]:
    """Dedupe (order-preserving) and intern a transition iterable into a tuple."""
    table = _TRANSITION_TABLE
    if len(table) >= _MAX_INTERNED:
        return tuple(dict.fromkeys(table.get(entry, entry) for entry in transitions))
    return tuple(dict.fromkeys(table.setdefault(entry, entry) for entry in transitions))


def intern_table_sizes() -> Tuple[int, int]:
    """Current sizes of the (symbol, transition) intern tables, for diagnostics."""
    return len(_SYMBOL_TABLE), len(_TRANSITION_TABLE)


def clear_intern_tables() -> None:
    """Drop the intern tables (existing automata keep working; sharing restarts)."""
    _SYMBOL_TABLE.clear()
    _TRANSITION_TABLE.clear()


def symbol_qubit(symbol: Symbol) -> int:
    """The qubit (tree level) of an internal symbol."""
    return symbol[0]


def symbol_tags(symbol: Symbol) -> Tuple[int, ...]:
    """The tag tuple of an internal symbol (empty when untagged)."""
    return symbol[1]


# -------------------------------------------------------------- reduce cache
# ``reduce()`` is called after every gate application, and circuits with
# repetitive structure (Grover iterations, QFT layers, campaign sweeps over
# mutants of one circuit) keep presenting the *same* automaton again and
# again.  The per-process cache below interns whole state-signature tables:
# it maps the signature of an automaton (its ``structure_key()``) to the
# fully reduced result, so re-reducing a previously seen
# automaton is one dict probe instead of re-hashing every subtree — and all
# callers share one reduced instance, which in turn makes *their* signature
# lookups (and the hash-consed transition tables) hit more often.
_REDUCE_CACHE: Dict[tuple, "TreeAutomaton"] = {}
#: safety valve, same contract as the intern tables: beyond this size new
#: results are no longer stored (lookups keep working) until an explicit
#: :func:`clear_reduce_cache`.
_MAX_REDUCE_CACHE = 8192
_REDUCE_CACHE_STATS = {"hits": 0, "misses": 0}


def reduce_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the per-process reduce cache (diagnostics)."""
    return {"size": len(_REDUCE_CACHE), **_REDUCE_CACHE_STATS}


def clear_reduce_cache() -> None:
    """Drop the per-process reduce cache and reset its counters."""
    _REDUCE_CACHE.clear()
    _REDUCE_CACHE_STATS["hits"] = 0
    _REDUCE_CACHE_STATS["misses"] = 0


def _reduce_cache_put(key: tuple, value: "TreeAutomaton") -> None:
    if len(_REDUCE_CACHE) < _MAX_REDUCE_CACHE:
        _REDUCE_CACHE[key] = value


class CompactForm:
    """The canonical flat form of a :class:`TreeAutomaton`.

    States are renumbered to contiguous ids ``0..m-1`` (by ascending original
    id, so structurally identical automata built the same way get identical
    forms), transitions are stored per compact state id and — on demand —
    grouped per interned symbol for the product constructions.  ``key`` is the
    automaton's full structural signature: a hashable tuple that two automata
    share iff they are identical up to state renaming along the same order.
    """

    __slots__ = ("num_qubits", "num_states", "roots", "to_original",
                 "internal", "leaves", "key", "_by_state_symbol", "_digest")

    def __init__(self, automaton: "TreeAutomaton"):
        ordered = sorted(automaton.states)
        index = {old: new for new, old in enumerate(ordered)}
        self.num_qubits = automaton.num_qubits
        self.num_states = len(ordered)
        self.roots: Tuple[int, ...] = tuple(sorted(index[root] for root in automaton.roots))
        self.to_original: Tuple[int, ...] = tuple(ordered)
        internal: List[Tuple[InternalTransition, ...]] = [()] * len(ordered)
        for parent, transitions in automaton.internal.items():
            internal[index[parent]] = tuple(
                intern_transition(symbol, index[left], index[right])
                for symbol, left, right in transitions
            )
        self.internal: Tuple[Tuple[InternalTransition, ...], ...] = tuple(internal)
        self.leaves: Dict[int, AlgebraicNumber] = {
            index[state]: amplitude for state, amplitude in automaton.leaves.items()
        }
        self.key: tuple = (
            self.num_qubits,
            self.roots,
            self.internal,
            tuple(sorted(self.leaves.items(), key=lambda item: item[0])),
        )
        self._by_state_symbol: Optional[Dict[Tuple[int, Symbol], Tuple[Tuple[int, int], ...]]] = None
        #: canonical content digest, filled lazily by repro.ta.store.fingerprint
        self._digest: Optional[str] = None

    @property
    def by_state_symbol(self) -> Dict[Tuple[int, Symbol], Tuple[Tuple[int, int], ...]]:
        """``(state, symbol) -> ((left, right), ...)`` product index (lazy, cached)."""
        if self._by_state_symbol is None:
            grouped: Dict[Tuple[int, Symbol], List[Tuple[int, int]]] = {}
            for parent, transitions in enumerate(self.internal):
                for symbol, left, right in transitions:
                    grouped.setdefault((parent, symbol), []).append((left, right))
            self._by_state_symbol = {key: tuple(value) for key, value in grouped.items()}
        return self._by_state_symbol


class TreeAutomaton:
    """A (nondeterministic, finite) tree automaton encoding quantum-state sets."""

    __slots__ = ("num_qubits", "roots", "internal", "leaves", "_max_state", "_states",
                 "_num_transitions", "_depths", "_compact", "_reduced", "_skey", "_by_qubit",
                 "_pair_index")

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
            int(state): intern_transitions(transitions)
            for state, transitions in internal.items()
            if transitions
        }
        self.leaves: Dict[int, AlgebraicNumber] = dict(leaves)
        self._max_state: Optional[int] = None
        self._states: Optional[FrozenSet[int]] = None
        self._num_transitions: Optional[int] = None
        self._depths: Optional[object] = None
        self._compact: Optional[CompactForm] = None
        self._reduced = False
        self._skey: Optional[tuple] = None
        self._by_qubit: Optional[Dict[int, Tuple[Tuple[int, int, int], ...]]] = None
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
        duplicate-free tuple of *interned* transitions, and neither mapping is
        mutated afterwards (they may alias another automaton's storage).
        Skipping the re-interning dictcomp is a large constant win because the
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
        self._depths = None
        self._compact = None
        self._reduced = False
        self._skey = None
        self._by_qubit = None
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

    def transitions_at(self, qubit: int) -> Iterator[Tuple[int, Symbol, int, int]]:
        """Iterate over internal transitions whose symbol belongs to ``qubit``."""
        for parent, symbol, left, right in self.transitions():
            if symbol_qubit(symbol) == qubit:
                yield parent, symbol, left, right

    def pair_index(self) -> Dict[Tuple[int, Symbol], Tuple[Tuple[int, int], ...]]:
        """``(state, symbol) -> ((left, right), ...)`` product index (cached).

        This is the flat per-interned-symbol grouping the worklist product
        construction (``binary_operation``) probes for matching transitions;
        caching it on the instance makes repeated products over a shared
        automaton — the normal case thanks to the reduce cache — skip the
        re-indexing pass entirely.
        """
        if self._pair_index is None:
            grouped: Dict[Tuple[int, Symbol], List[Tuple[int, int]]] = {}
            for parent, transitions in self.internal.items():
                for symbol, left, right in transitions:
                    grouped.setdefault((parent, symbol), []).append((left, right))
            self._pair_index = {key: tuple(value) for key, value in grouped.items()}
        return self._pair_index

    def transitions_by_qubit(self) -> Dict[int, Tuple[Tuple[int, int, int], ...]]:
        """``qubit -> ((parent, left, right), ...)`` level index (cached).

        This is the flat per-level view the layered algorithms (membership,
        determinization, complementation) iterate over; tags are dropped
        because those algorithms only see untagged condition automata.
        """
        if self._by_qubit is None:
            grouped: Dict[int, List[Tuple[int, int, int]]] = {}
            for parent, transitions in self.internal.items():
                for symbol, left, right in transitions:
                    grouped.setdefault(symbol[0], []).append((parent, left, right))
            self._by_qubit = {qubit: tuple(entries) for qubit, entries in grouped.items()}
        return self._by_qubit

    def next_free_state(self) -> int:
        """Return an integer strictly greater than every existing state id."""
        if self._max_state is None:
            states = self.states
            self._max_state = max(states) if states else -1
        return self._max_state + 1

    def compact(self) -> CompactForm:
        """The canonical flat form (contiguous ids, per-symbol grouping; cached)."""
        if self._compact is None:
            self._compact = CompactForm(self)
        return self._compact

    def structure_key(self) -> tuple:
        """A hashable fingerprint of the exact structure (cached).

        Unlike :meth:`compact`, state ids are *not* renumbered: the key is the
        raw ``(roots, internal, leaves)`` content in insertion order, which is
        deterministic for a given construction history.  Two automata built by
        the same transformer sequence over equal inputs therefore get equal
        keys — exactly the property the reduce and gate caches need — at one
        O(size) pass without sorting.
        """
        if self._skey is None:
            self._skey = (
                self.num_qubits,
                self.roots,
                tuple(self.internal.items()),
                tuple(self.leaves.items()),
            )
        return self._skey

    def _state_depths(self) -> Optional[Dict[int, int]]:
        """``state -> depth`` for every root-reachable state (cached).

        Returns ``None`` when some state is reachable at two different depths,
        i.e. the automaton violates the layering the gate transformers assume;
        callers then fall back to depth-agnostic algorithms.
        """
        if self._depths is None:
            depths: Dict[int, int] = {}
            stack: List[Tuple[int, int]] = [(root, 0) for root in self.roots]
            while stack:
                state, depth = stack.pop()
                known = depths.get(state)
                if known is not None:
                    if known != depth:
                        self._depths = False
                        return None
                    continue
                depths[state] = depth
                for _symbol, left, right in self.internal.get(state, ()):
                    stack.append((left, depth + 1))
                    stack.append((right, depth + 1))
            self._depths = depths
        return self._depths if self._depths is not False else None

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
        # sides usually have theirs cached (the reduce/gate caches key on it) —
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
        """Check structural invariants; raise :class:`ValueError` on violation.

        * no state is both internal and leaf,
        * all states reachable from a root at depth ``d`` carry symbols of
          qubit ``d`` (the layering assumed by the gate transformers),
        * leaf states appear exactly below the last qubit level.
        """
        overlap = set(self.internal) & set(self.leaves)
        if overlap:
            raise ValueError(f"states are both internal and leaf: {sorted(overlap)[:5]}")
        depth_of: Dict[int, int] = {}
        queue: List[Tuple[int, int]] = [(root, 0) for root in self.roots]
        while queue:
            state, depth = queue.pop()
            if state in depth_of:
                if depth_of[state] != depth:
                    raise ValueError(f"state {state} appears at depths {depth_of[state]} and {depth}")
                continue
            depth_of[state] = depth
            if state in self.leaves:
                if depth != self.num_qubits:
                    raise ValueError(f"leaf state {state} reachable at depth {depth} != {self.num_qubits}")
                continue
            for symbol, left, right in self.internal.get(state, ()):
                if symbol_qubit(symbol) != depth:
                    raise ValueError(
                        f"state {state} at depth {depth} has a transition on qubit {symbol_qubit(symbol)}"
                    )
                queue.append((left, depth + 1))
                queue.append((right, depth + 1))

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
        # the internal structure is immutable and interned -> share it outright
        return TreeAutomaton._make(self.num_qubits, self.roots, self.internal, leaves)

    def remove_useless(self) -> "TreeAutomaton":
        """Drop states that are not both reachable (top-down) and productive (bottom-up).

        Runs :func:`repro.ta.kernel.reference.remove_useless` through the
        kernel instance (:mod:`repro.ta.kernel`); returns ``self`` (identity)
        when no state is useless.
        """
        from .kernel import active_backend

        return active_backend().remove_useless(self)

    def reduce(self) -> "TreeAutomaton":
        """Merge states with identical outgoing behaviour until a fixpoint.

        This is the paper's "lightweight simulation-based reduction": two
        states are merged when they have exactly the same successor transitions
        (after previous merges), which is a congruence refinement computed
        bottom-up.  Useless states are removed first and duplicates pruned.

        Results are interned in the per-process reduce cache keyed by the
        automaton's :meth:`structure_key`, so consecutive gate applications
        that present a previously seen automaton never re-hash its subtrees —
        they get the shared, already-reduced instance back.

        The sweeps themselves run through the kernel instance
        (:mod:`repro.ta.kernel`); the cache probe and the layered/fixpoint
        choice stay here.
        """
        if self._reduced:
            return self
        key = self.structure_key()
        cached = _REDUCE_CACHE.get(key)
        if cached is not None:
            _REDUCE_CACHE_STATS["hits"] += 1
            return cached
        _REDUCE_CACHE_STATS["misses"] += 1
        from .kernel import active_backend

        backend = active_backend()
        automaton = backend.remove_useless(self)
        if automaton._reduced:
            _reduce_cache_put(key, automaton)
            return automaton
        if automaton._state_depths() is not None:
            result = backend.reduce_layered(automaton)
        else:
            result = backend.reduce_fixpoint(automaton)
        result._reduced = True
        _reduce_cache_put(key, result)
        if result is not automaton:
            # idempotence: reducing the result later must also be a cache hit
            _reduce_cache_put(result.structure_key(), result)
        return result

    # -------------------------------------------------------------- language
    def accepts(self, state: QuantumState) -> bool:
        """Membership test: is the full-binary-tree encoding of ``state`` accepted?"""
        if state.num_qubits != self.num_qubits:
            return False
        leaf_states_by_amplitude: Dict[AlgebraicNumber, Set[int]] = {}
        for leaf_state, amplitude in self.leaves.items():
            leaf_states_by_amplitude.setdefault(amplitude, set()).add(leaf_state)
        transitions_by_qubit = self.transitions_by_qubit()

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
                    for parent, left, right in transitions_by_qubit.get(depth, ()):
                        if left in left_states and right in right_states:
                            states.add(parent)
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
                intern_transition(make_symbol(symbol_qubit(symbol)), left, right)
                for symbol, left, right in transitions
            ))
            for parent, transitions in self.internal.items()
        }
        return TreeAutomaton._make(self.num_qubits, self.roots, internal, self.leaves)

    def shifted(self, offset: int) -> "TreeAutomaton":
        """Return a copy with every state id shifted by ``offset`` (for disjoint unions)."""
        internal = {
            parent + offset: tuple(
                intern_transition(symbol, left + offset, right + offset)
                for symbol, left, right in transitions
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
