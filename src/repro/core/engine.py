"""Circuit execution engine over tree automata.

The engine runs a whole circuit over a pre-condition TA, producing the TA of
all reachable output states.  It supports the two settings evaluated in the
paper (Section 7):

* ``hybrid`` — permutation-based encoding for the gates it supports, falling
  back to the composition-based encoding for the others (H, Rx, Ry and
  controlled gates whose control indices are not below the target),
* ``composition`` — composition-based encoding for every gate,
* ``permutation`` — permutation-based only (raises on unsupported gates);
  mainly useful for tests and ablations.

After each gate the engine optionally applies the lightweight reduction
(:meth:`TreeAutomaton.reduce`), mirroring the paper's use of simulation-based
reduction to keep the automata small.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..ta import store as ta_store
from ..ta.automaton import TreeAutomaton
from ..ta.kernel import active_backend_name
from .composition import apply_composition_gate
from .permutation import PermutationUnsupported, apply_permutation_gate, supports_permutation

__all__ = [
    "AnalysisMode",
    "EngineStatistics",
    "EngineResult",
    "GateRuntime",
    "CircuitEngine",
    "run_circuit",
    "default_gate_runtime",
]

#: safety valve mirroring the intern tables: stop memoising beyond this size.
_MAX_GATE_CACHE = 16384


class GateRuntime:
    """Mutable runtime of the gate-application pipeline.

    Owns the two cache tiers a gate application consults:

    * the **in-process memo** — gate application is a pure function of
      (automaton structure, gate, mode), and repetitive circuits (Grover
      iterations, QFT layers, campaign sweeps over mutants of one reference)
      present the same pair over and over, so the memo keys the *reduced*
      result on the automaton's structure key and a repeated application
      costs one O(size) fingerprint instead of the whole
      tag/terms/bin/reduce pipeline;
    * the optional **cross-process store** (:mod:`repro.ta.store`) — a
      content-addressed on-disk tier shared by every process pointed at the
      same directory, keyed by the renaming-invariant compact-form digest so
      campaign pool workers and entirely separate runs agree on the keys.
      It holds composition-encoded gate results only.  Attach one with
      ``GateRuntime(store=open_store(directory))``
      (:func:`repro.ta.store.open_store`).

    A runtime belongs to whoever creates it: a :class:`repro.api.Session`,
    a campaign run, a matrix sweep, a fuzz run, or one engine call made
    without a runtime.  Nothing swaps another owner's store.
    """

    __slots__ = ("memo", "memo_hits", "memo_misses", "store")

    def __init__(self, store: Optional["ta_store.AutomatonStore"] = None):
        self.memo: Dict[tuple, Tuple[TreeAutomaton, bool]] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.store = store

    def memo_stats(self) -> Dict[str, int]:
        """Hit/miss/size counters of the in-process gate-application memo."""
        return {"size": len(self.memo), "hits": self.memo_hits, "misses": self.memo_misses}

    def clear_memo(self) -> None:
        """Drop the gate-application memo and reset its counters."""
        self.memo.clear()
        self.memo_hits = 0
        self.memo_misses = 0

    def stats_snapshot(self) -> Dict[str, object]:
        """One JSON-ready view of both cache tiers, cheap enough to take per
        metrics scrape: the memo counters plus the attached store's session
        counters (no disk walk — ``AutomatonStore.stats()`` does that).
        ``store`` is ``None`` when no cross-process store is attached."""
        store = self.store
        return {
            "memo": self.memo_stats(),
            "store": None if store is None else store.counter_snapshot(),
        }

    def reset(self) -> None:
        """Back to a pristine runtime: empty memo, zero counters, no store."""
        self.clear_memo()
        self.store = None


#: the runtime of a campaign pool worker process (see
#: :func:`repro.campaign.runner.initialise_worker`)
_WORKER_RUNTIME = GateRuntime()


def default_gate_runtime() -> GateRuntime:
    """This process's runtime as a campaign pool worker.

    :func:`~repro.campaign.runner.initialise_worker` attaches the campaign's
    store to it, and :func:`~repro.campaign.runner.execute_job` called
    without a runtime verifies on it.  Nothing else uses it.
    """
    return _WORKER_RUNTIME


def _gate_signature(gate: Gate) -> str:
    """Stable textual identity of a gate for cross-process store keys."""
    return f"{gate.kind}:{','.join(str(qubit) for qubit in gate.qubits)}"


class AnalysisMode:
    """Symbolic names for the engine settings (the paper's Hybrid / Composition)."""

    HYBRID = "hybrid"
    COMPOSITION = "composition"
    PERMUTATION = "permutation"

    ALL = (HYBRID, COMPOSITION, PERMUTATION)


@dataclass
class EngineStatistics:
    """Aggregate statistics of one circuit analysis."""

    gates_total: int = 0
    gates_permutation: int = 0
    gates_composition: int = 0
    max_states: int = 0
    max_transitions: int = 0
    analysis_seconds: float = 0.0
    per_gate_seconds: List[float] = field(default_factory=list)
    #: wall-clock per pipeline phase: ``tag`` / ``terms`` / ``bin`` / ``untag``
    #: (composition), ``permutation`` (permutation encoding), ``reduce`` (the
    #: post-gate reduction), ``store`` (on-disk store lookup/publish I/O);
    #: gate-memo hits skip every phase and record nothing
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: cross-process store counters for this analysis (all 0 with no store):
    #: composition-encoded gate applications served from the on-disk store,
    #: missed in it, and freshly computed results published back to it
    #: (permutation-encoded gates never reach the store)
    store_hits: int = 0
    store_misses: int = 0
    store_publishes: int = 0
    #: True when the store tier degraded itself during (or before) this
    #: analysis — too many consecutive I/O faults — and the engine detached
    #: it and kept computing without the tier (see ``docs/robustness.md``)
    store_disabled: bool = False
    #: name of the TA kernel the analysis ran under (always "reference",
    #: :func:`repro.ta.kernel.active_backend_name`); "" on instances restored
    #: from JSON written before the field existed
    kernel_backend: str = ""
    #: derived per-gate aggregates restored by :meth:`from_dict`; a restored
    #: instance has no raw ``per_gate_seconds`` samples, only these
    #: JSON-visible numbers, and :meth:`to_dict` re-emits them unchanged
    _restored_timings: Dict[str, float] = field(default_factory=dict, repr=False, compare=False)

    def record(self, automaton: TreeAutomaton, elapsed: float, used_permutation: bool) -> None:
        self.gates_total += 1
        if used_permutation:
            self.gates_permutation += 1
        else:
            self.gates_composition += 1
        self.max_states = max(self.max_states, automaton.num_states)
        self.max_transitions = max(self.max_transitions, automaton.num_transitions)
        self.per_gate_seconds.append(elapsed)
        self.analysis_seconds += elapsed

    def record_phase(self, name: str, seconds: float) -> None:
        """Accumulate per-phase wall-clock (tag/terms/bin/untag/permutation/reduce)."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    # -------------------------------------------------------- timing accessors
    @property
    def total_gate_seconds(self) -> float:
        """Sum of the per-gate wall-clock times (== analysis time spent in gates)."""
        return sum(self.per_gate_seconds)

    @property
    def mean_gate_seconds(self) -> float:
        """Average per-gate time (0.0 for an empty circuit)."""
        if not self.per_gate_seconds:
            return 0.0
        return self.total_gate_seconds / len(self.per_gate_seconds)

    def percentile_gate_seconds(self, percentile: float) -> float:
        """Per-gate time at the given percentile in ``[0, 100]`` (nearest-rank).

        ``percentile_gate_seconds(50)`` is the median gate time and
        ``percentile_gate_seconds(100)`` the slowest gate; 0.0 for an empty
        circuit.  Raises :class:`ValueError` outside the ``[0, 100]`` range.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {percentile}")
        if not self.per_gate_seconds:
            return 0.0
        ordered = sorted(self.per_gate_seconds)
        # multiply before dividing: percentile/100*n overshoots exact-integer
        # ranks by one ulp (e.g. 55/100*100 == 55.00000000000001)
        rank = max(0, min(len(ordered) - 1, int(math.ceil(percentile * len(ordered) / 100.0)) - 1))
        return ordered[rank]

    #: the keys of :meth:`to_dict` derived from the raw per-gate samples (the
    #: samples themselves are not JSON-visible, so round-trips preserve these)
    DERIVED_TIMING_KEYS = (
        "total_gate_seconds",
        "mean_gate_seconds",
        "p50_gate_seconds",
        "p90_gate_seconds",
        "max_gate_seconds",
    )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary used by the campaign report (no raw sample list)."""
        payload = {
            "gates_total": self.gates_total,
            "gates_permutation": self.gates_permutation,
            "gates_composition": self.gates_composition,
            "max_states": self.max_states,
            "max_transitions": self.max_transitions,
            "analysis_seconds": self.analysis_seconds,
            "total_gate_seconds": self.total_gate_seconds,
            "mean_gate_seconds": self.mean_gate_seconds,
            "p50_gate_seconds": self.percentile_gate_seconds(50),
            "p90_gate_seconds": self.percentile_gate_seconds(90),
            "max_gate_seconds": self.percentile_gate_seconds(100),
            "phase_seconds": dict(self.phase_seconds),
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_publishes": self.store_publishes,
            "store_disabled": self.store_disabled,
            "kernel_backend": self.kernel_backend,
        }
        if not self.per_gate_seconds and self._restored_timings:
            payload.update(self._restored_timings)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EngineStatistics":
        """Rebuild statistics from :meth:`to_dict` output (result round-trips).

        The raw ``per_gate_seconds`` sample list is not part of the JSON form,
        so the derived aggregates (total/mean/p50/p90/max gate seconds) are
        restored verbatim instead of recomputed —
        ``EngineStatistics.from_dict(d).to_dict() == d`` for every ``d``
        produced by :meth:`to_dict`.
        """
        statistics = cls(
            gates_total=int(data.get("gates_total") or 0),
            gates_permutation=int(data.get("gates_permutation") or 0),
            gates_composition=int(data.get("gates_composition") or 0),
            max_states=int(data.get("max_states") or 0),
            max_transitions=int(data.get("max_transitions") or 0),
            analysis_seconds=float(data.get("analysis_seconds") or 0.0),
            phase_seconds=dict(data.get("phase_seconds") or {}),
            store_hits=int(data.get("store_hits") or 0),
            store_misses=int(data.get("store_misses") or 0),
            store_publishes=int(data.get("store_publishes") or 0),
            store_disabled=bool(data.get("store_disabled") or False),
            kernel_backend=str(data.get("kernel_backend") or ""),
        )
        statistics._restored_timings = {
            key: float(data[key]) for key in cls.DERIVED_TIMING_KEYS if key in data
        }
        return statistics


@dataclass
class EngineResult:
    """Result of running a circuit over a pre-condition TA."""

    output: TreeAutomaton
    statistics: EngineStatistics
    mode: str


class CircuitEngine:
    """Applies circuits to tree automata using the paper's gate transformers.

    ``runtime`` supplies the gate memo and optional cross-process store; when
    omitted, the engine builds a private :class:`GateRuntime` with no store,
    so nothing it computes is shared with another caller.
    """

    def __init__(
        self,
        mode: str = AnalysisMode.HYBRID,
        reduce_after_each_gate: bool = True,
        runtime: Optional[GateRuntime] = None,
    ):
        if mode not in AnalysisMode.ALL:
            raise ValueError(f"unknown analysis mode {mode!r}; expected one of {AnalysisMode.ALL}")
        self.mode = mode
        self.reduce_after_each_gate = reduce_after_each_gate
        self.runtime = runtime if runtime is not None else GateRuntime()

    # ----------------------------------------------------------------- gates
    def apply_gate(
        self, automaton: TreeAutomaton, gate: Gate, statistics: Optional[EngineStatistics] = None
    ) -> TreeAutomaton:
        """Apply one gate, returning the (optionally reduced) successor TA."""
        result, _used_permutation = self._apply_gate_cached(automaton, gate, statistics)
        return result

    def _apply_gate_cached(
        self, automaton: TreeAutomaton, gate: Gate, statistics: Optional[EngineStatistics]
    ):
        """Two-tier memoised gate application: process memo, then on-disk store.

        Lookup order is process memo -> cross-process store -> compute, and a
        fresh result is published to both tiers, so a campaign worker that
        computes a gate application once makes it a fingerprint lookup for
        every other worker (and every later run) sharing the store.  Only
        composition-encoded gates use the store: a permutation-encoded gate
        costs less to recompute than to fingerprint, look up and publish, so
        it goes memo -> compute.
        """
        runtime = self.runtime
        key = (automaton.structure_key(), gate, self.mode, self.reduce_after_each_gate)
        cached = runtime.memo.get(key)
        if cached is not None:
            runtime.memo_hits += 1
            return cached
        runtime.memo_misses += 1

        store = runtime.store
        if store is not None and store.disabled:
            # graceful degradation: the store crossed its consecutive-fault
            # threshold — detach it for the session and keep computing
            store = self._detach_disabled_store(statistics)
        if self._uses_permutation(gate):
            store = None
        store_key = None
        if store is not None:
            start = time.perf_counter()
            store_key = store.gate_key(
                ta_store.fingerprint(automaton), _gate_signature(gate),
                self.mode, self.reduce_after_each_gate,
            )
            entry = store.get(store_key)
            if statistics is not None:
                statistics.record_phase("store", time.perf_counter() - start)
            if store.disabled:
                store = self._detach_disabled_store(statistics)
                store_key = None
            if entry is not None:
                # only composition-encoded results are ever stored
                result = entry.automaton
                if entry.meta.get("reduced"):
                    result._reduced = True  # noqa: SLF001 - producer reduced it already
                if statistics is not None:
                    statistics.store_hits += 1
                if len(runtime.memo) < _MAX_GATE_CACHE:
                    runtime.memo[key] = (result, False)
                return result, False
            if statistics is not None:
                statistics.store_misses += 1

        result, used_permutation = self._apply_gate_raw(automaton, gate, statistics)
        if self.reduce_after_each_gate:
            start = time.perf_counter()
            result = result.reduce()
            if statistics is not None:
                statistics.record_phase("reduce", time.perf_counter() - start)
        if len(runtime.memo) < _MAX_GATE_CACHE:
            runtime.memo[key] = (result, used_permutation)
        if store is not None and store_key is not None:
            start = time.perf_counter()
            published = store.put(store_key, result, {"reduced": self.reduce_after_each_gate})
            if statistics is not None:
                statistics.record_phase("store", time.perf_counter() - start)
                if published:
                    statistics.store_publishes += 1
            if store.disabled:
                self._detach_disabled_store(statistics)
        return result, used_permutation

    def _detach_disabled_store(self, statistics: Optional[EngineStatistics]):
        """Drop a degraded store from the runtime; flag it in the statistics."""
        self.runtime.store = None
        if statistics is not None:
            statistics.store_disabled = True
        return None

    def _uses_permutation(self, gate: Gate) -> bool:
        """Whether this engine applies ``gate`` with the permutation encoding
        (a hybrid gate may still fall back to composition at run time)."""
        return self.mode == AnalysisMode.PERMUTATION or (
            self.mode == AnalysisMode.HYBRID and supports_permutation(gate)
        )

    def _apply_gate_raw(
        self,
        automaton: TreeAutomaton,
        gate: Gate,
        statistics: Optional[EngineStatistics] = None,
    ):
        if gate.kind in ("swap", "cswap"):
            raise ValueError(
                f"gate {gate.kind!r} must be decomposed first (use Circuit.decomposed())"
            )
        phases = statistics.phase_seconds if statistics is not None else None
        if self.mode == AnalysisMode.COMPOSITION:
            return apply_composition_gate(automaton, gate, phase_seconds=phases), False
        if self._uses_permutation(gate):
            start = time.perf_counter()
            try:
                result = apply_permutation_gate(automaton, gate)
            except PermutationUnsupported:
                if self.mode == AnalysisMode.PERMUTATION:
                    raise
            else:
                if statistics is not None:
                    statistics.record_phase("permutation", time.perf_counter() - start)
                return result, True
        return apply_composition_gate(automaton, gate, phase_seconds=phases), False

    # --------------------------------------------------------------- circuits
    def run(self, circuit: Circuit, precondition: TreeAutomaton) -> EngineResult:
        """Run every gate of ``circuit`` over ``precondition`` and collect statistics."""
        if precondition.num_qubits != circuit.num_qubits:
            raise ValueError(
                f"pre-condition has {precondition.num_qubits} qubits but the circuit has "
                f"{circuit.num_qubits}"
            )
        statistics = EngineStatistics(kernel_backend=active_backend_name())
        automaton = precondition
        for gate in circuit.decomposed():
            start = time.perf_counter()
            automaton, used_permutation = self._apply_gate_cached(automaton, gate, statistics)
            elapsed = time.perf_counter() - start
            statistics.record(automaton, elapsed, used_permutation)
        if not self.reduce_after_each_gate:
            automaton = automaton.reduce()
        return EngineResult(output=automaton, statistics=statistics, mode=self.mode)


def run_circuit(
    circuit: Circuit,
    precondition: TreeAutomaton,
    mode: str = AnalysisMode.HYBRID,
    reduce_after_each_gate: bool = True,
    runtime: Optional[GateRuntime] = None,
) -> EngineResult:
    """Convenience wrapper: run ``circuit`` on ``precondition`` with a fresh
    engine (on a private runtime when ``runtime`` is ``None``)."""
    engine = CircuitEngine(
        mode=mode, reduce_after_each_gate=reduce_after_each_gate, runtime=runtime
    )
    return engine.run(circuit, precondition)
