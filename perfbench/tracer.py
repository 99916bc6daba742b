"""Outside-in per-layer tracing for the traced benchmark run.

The tracer wraps public functions of each layer at the import site their
callers use, counts calls and inclusive seconds, and restores everything on
``uninstall``.  Nothing inside the package is changed; the untraced runs
never import this module.

Layers and the entry points wrapped:

* ``core.composition`` — ``projection``, ``forward_swap``/``backward_swap``,
  ``restrict`` and ``subtree_copy`` in ``repro.core.composition``;
* ``ta.automaton`` — ``TreeAutomaton.reduce``;
* ``ta.kernel`` — the active ``KernelBackend`` instance's four operations,
  noting which inputs fall under ``vectorized.DEFAULT_THRESHOLDS``;
* ``ta.inclusion`` — ``check_equivalence``/``check_inclusion`` as imported
  by ``repro.core.verification`` and ``repro.core.equivalence``;
* ``core.engine`` — ``run_circuit`` at the same two sites, keeping each
  analysis' ``EngineStatistics``;
* ``ta.store`` — ``AutomatonStore.get``/``put``;
* ``dist.queue`` — ``JobQueue.claim``/``complete``/``renew``;
* campaign pool children — ``repro.campaign.runner.execute_job``, which
  appends each job's counter deltas to a per-process file, because forked
  pool workers inherit the wrappers but not a channel back.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from typing import Dict, List, Optional

from repro.campaign import runner as campaign_runner
from repro.core import composition, equivalence, verification
from repro.core.engine import default_gate_runtime
from repro.dist.queue import JobQueue
from repro.ta import automaton as ta_automaton
from repro.ta import kernel as ta_kernel
from repro.ta.store import AutomatonStore

try:
    from repro.ta.kernel.vectorized import DEFAULT_THRESHOLDS
except ImportError:  # no numpy: every call takes the reference path
    DEFAULT_THRESHOLDS = {}

KERNEL_OPS = ("binary_operation", "remove_useless", "reduce_layered", "reduce_fixpoint")

_MISSING = object()

#: the installed tracer and what forked pool children need to report back
_ACTIVE: Optional["LayerTracer"] = None
_PARENT_PID = 0
_CHILD_DIR = ""
_ORIGINAL_EXECUTE_JOB = campaign_runner.execute_job


def _kernel_input_size(op: str, args) -> int:
    if op == "binary_operation":
        return args[0].num_transitions + args[1].num_transitions
    return args[0].num_transitions


def _below_threshold(op: str, size: int) -> bool:
    """Whether the numpy backend would hand this input to the reference
    path (operations without a threshold always go there)."""
    threshold = DEFAULT_THRESHOLDS.get(op)
    return threshold is None or size < threshold


class LayerTracer:
    """Counters per layer entry point plus the collected engine statistics."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.below: Counter = Counter()
        self.engine: List = []
        self._undo: List = []

    # ------------------------------------------------------------ patching
    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, replacement)

    def _timed(self, key: str, function):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - start
                calls[key] += 1

        return wrapper

    def _kernel(self, op: str, method):
        key = f"kernel.{op}"
        calls, seconds, below = self.calls, self.seconds, self.below

        def wrapper(*args, **kwargs):
            if _below_threshold(op, _kernel_input_size(op, args)):
                below[key] += 1
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - start
                calls[key] += 1

        return wrapper

    def _collecting(self, function):
        engine = self.engine

        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            engine.append(result.statistics)
            return result

        return wrapper

    def install(self, child_dir: str = "") -> "LayerTracer":
        global _ACTIVE, _PARENT_PID, _CHILD_DIR
        for name, key in (("projection", "composition.projection"),
                          ("forward_swap", "composition.swap"),
                          ("backward_swap", "composition.swap"),
                          ("restrict", "composition.restrict"),
                          ("subtree_copy", "composition.subtree_copy")):
            self._patch(composition, name, self._timed(key, getattr(composition, name)))
        tree = ta_automaton.TreeAutomaton
        self._patch(tree, "reduce", self._timed("automaton.reduce", tree.reduce))
        backend = ta_kernel.active_backend()
        for op in KERNEL_OPS:
            self._patch(backend, op, self._kernel(op, getattr(backend, op)))
        for module in (verification, equivalence):
            self._patch(module, "run_circuit", self._collecting(module.run_circuit))
            self._patch(module, "check_equivalence",
                        self._timed("inclusion", module.check_equivalence))
        self._patch(verification, "check_inclusion",
                    self._timed("inclusion", verification.check_inclusion))
        self._patch(AutomatonStore, "get", self._timed("store.get", AutomatonStore.get))
        self._patch(AutomatonStore, "put", self._timed("store.put", AutomatonStore.put))
        for name in ("claim", "complete", "renew"):
            self._patch(JobQueue, name, self._timed(f"queue.{name}", getattr(JobQueue, name)))
        self._patch(campaign_runner, "execute_job", traced_execute_job)
        _ACTIVE, _PARENT_PID, _CHILD_DIR = self, os.getpid(), child_dir
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._undo.clear()
        _ACTIVE = None

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> Dict:
        reduce_stats = ta_automaton.reduce_cache_stats()
        memo = default_gate_runtime().memo_stats()
        return {
            "calls": dict(self.calls), "seconds": dict(self.seconds),
            "below": dict(self.below),
            "reduce_hits": reduce_stats["hits"], "reduce_misses": reduce_stats["misses"],
            "reduce_entries": reduce_stats["size"],
            "memo_hits": memo["hits"], "memo_misses": memo["misses"],
            "memo_entries": memo["size"],
        }


def _delta(before: Dict, after: Dict) -> Dict:
    delta = {}
    for field in ("calls", "seconds", "below"):
        delta[field] = {key: after[field].get(key, 0) - before[field].get(key, 0)
                        for key in after[field]}
    for field in ("reduce_hits", "reduce_misses", "memo_hits", "memo_misses"):
        delta[field] = after[field] - before[field]
    delta["reduce_entries"] = after["reduce_entries"]
    delta["memo_entries"] = after["memo_entries"]
    return delta


def traced_execute_job(job, runtime=None):
    """``execute_job`` as pool children see it while tracing: one JSON line
    of counter deltas per job in ``<child_dir>/<pid>.jsonl``."""
    tracer = _ACTIVE
    if tracer is None or os.getpid() == _PARENT_PID or not _CHILD_DIR:
        return _ORIGINAL_EXECUTE_JOB(job, runtime)
    before = tracer.snapshot()
    record = _ORIGINAL_EXECUTE_JOB(job, runtime)
    line = _delta(before, tracer.snapshot())
    line["pid"] = os.getpid()
    with open(os.path.join(_CHILD_DIR, f"{os.getpid()}.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")
    return record


def read_child_deltas(child_dir: str) -> List[Dict]:
    """Every per-job delta the pool children wrote, in file order."""
    lines = []
    if not os.path.isdir(child_dir):
        return lines
    for name in sorted(os.listdir(child_dir)):
        with open(os.path.join(child_dir, name), encoding="utf-8") as handle:
            lines.extend(json.loads(line) for line in handle if line.strip())
    return lines
