"""Campaign matrix scheduler: families × sizes × modes sweeps, resumable.

This is the paper's Section 7 evaluation loop as infrastructure.  A
:class:`MatrixSpec` describes a whole benchmark matrix — which families, at
which sizes, under which engine modes, with what mutant budget — and expands
into :class:`MatrixCell`\\ s, one bug-hunting campaign per combination.  The
:class:`MatrixScheduler` then:

* validates every cell against the family capability registry
  (:mod:`repro.benchgen.families`) *before* any work starts;
* orders cells **cheapest-first** (small sizes and cheap modes run early, so a
  sweep produces signal quickly and an interrupted run has banked the most
  cells possible);
* runs each cell through the existing :class:`~repro.campaign.runner.Campaign`
  machinery, sharing one multiprocessing pool across all cells;
* records the sweep once in a :class:`~repro.campaign.manifest.CampaignManifest`
  (spec, fingerprint, cell ids) so ``campaign --resume <id>`` can rebuild it.

Cell state lives in the distributed campaign fabric (:mod:`repro.dist`): the
scheduler claims each cell through a lease-based :class:`~repro.dist.JobQueue`
living next to the manifest and publishes each finished cell there, so a
resume skips cells with a result and re-claims interrupted ones, and any
number of extra workers can attach to a running sweep with
``campaign --join <id>`` (:meth:`MatrixScheduler.run_join`).  Joiners drain
the same queue with the same claim loop; the coordinator rolls every
published result into ``summary.json``.  With no joiners every claim
trivially succeeds and the sweep behaves exactly as a solo run.  See
``docs/distributed.md`` for the protocol.

Specs load from TOML or JSON files (``MatrixSpec.from_file``) or from plain
mappings assembled by CLI flags (``MatrixSpec.from_mapping``).  A minimal TOML
spec::

    families = ["grover", "bv"]
    modes = ["hybrid", "composition"]
    mutants = 25

    [sizes]
    bv = "3-5"        # inclusive range
    grover = [2]      # explicit list; omitted families use their defaults
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..benchgen.families import (
    default_campaign_sizes,
    family_capability,
    resolve_family,
    validate_family_size,
)
from ..core.engine import AnalysisMode, GateRuntime
from ..dist.queue import JobQueue
from ..faults import FaultPlan
from ..ta.store import open_store
from .cache import atomic_write_json, resolve_store_dir
from .manifest import CampaignManifest, ManifestError, default_manifest_dir
from .plan import MUTATION_KINDS
from .runner import Campaign, CampaignConfig, worker_pool

__all__ = [
    "MatrixCell",
    "MatrixSpec",
    "MatrixRunResult",
    "JoinRunResult",
    "MatrixScheduler",
    "estimate_cell_cost",
    "parse_sizes",
]

#: relative per-verification weight of each engine mode (ordering heuristic
#: only — composition-based gate application dominates hybrid, which dominates
#: the pure permutation encoding)
MODE_COST = {
    AnalysisMode.PERMUTATION: 0.5,
    AnalysisMode.HYBRID: 1.0,
    AnalysisMode.COMPOSITION: 2.0,
}

_RANGE_PATTERN = re.compile(r"^\s*(\d+)\s*-\s*(\d+)\s*$")

#: how often a scheduler refreshes its lease heartbeat on the cell it is
#: executing (piggybacked on campaign record completion, so it costs one
#: claim-file rewrite at most this often) — well under the lease TTL
HEARTBEAT_INTERVAL_SECONDS = 60.0

#: how long the coordinator sleeps between polls while every remaining cell
#: is held by a live claim (it wakes to merge their completions, or to steal
#: cells whose leases went stale)
FABRIC_POLL_SECONDS = 0.5

#: per-cell summary counters copied into matrix rows and summed into totals
_ROW_COUNTER_KEYS = (
    "jobs", "holds", "violated", "unsupported", "errors", "cache_hits",
    "store_hits", "store_misses", "store_publishes",
    "faults_injected", "retries", "quarantined_entries",
    "cells_claimed", "cells_stolen", "cells_requeued", "lease_renewals",
)


def parse_sizes(value: Union[int, str, Sequence]) -> Tuple[int, ...]:
    """Expand a size field into a sorted tuple of ints.

    Accepts a single int (``4``), a decimal string (``"4"``), an inclusive
    range string (``"2-5"``), or a list mixing any of those.
    """
    if isinstance(value, bool):
        raise ValueError(f"invalid size value {value!r}")
    if isinstance(value, int):
        return (value,)
    if isinstance(value, str):
        sizes: List[int] = []
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            match = _RANGE_PATTERN.match(part)
            if match:
                low, high = int(match.group(1)), int(match.group(2))
                if high < low:
                    raise ValueError(f"size range {part!r} is empty (end < start)")
                sizes.extend(range(low, high + 1))
            elif part.isdigit():
                sizes.append(int(part))
            else:
                raise ValueError(f"cannot parse size {part!r} (expected e.g. 4, 2-5, or 3,4)")
        if not sizes:
            raise ValueError(f"no sizes in {value!r}")
        return tuple(sorted(set(sizes)))
    if isinstance(value, Sequence):
        sizes = []
        for item in value:
            sizes.extend(parse_sizes(item))
        if not sizes:
            raise ValueError("size list is empty")
        return tuple(sorted(set(sizes)))
    raise ValueError(f"invalid size value {value!r}")


def _toml_module():
    """``tomllib`` (3.11+) or the backport; a clean ``ValueError`` without either."""
    try:
        import tomllib

        return tomllib
    except ImportError:  # pragma: no cover - Python 3.10
        try:
            import tomli

            return tomli
        except ImportError:
            raise ValueError(
                "no TOML parser available (needs Python >= 3.11 or the 'tomli' "
                "package); use a .json sweep spec instead"
            ) from None


def _as_name_tuple(value: Union[str, Sequence[str]], what: str) -> Tuple[str, ...]:
    """Normalise a list-or-comma-string field into a tuple of names."""
    if isinstance(value, str):
        names = tuple(part.strip() for part in value.split(",") if part.strip())
    elif isinstance(value, Sequence):
        names = tuple(str(part).strip() for part in value)
    else:
        raise ValueError(f"invalid {what} value {value!r}")
    if not names:
        raise ValueError(f"at least one {what} is required")
    return names


@dataclass(frozen=True)
class MatrixCell:
    """One campaign of a sweep: a (family, size, mode) point with its budget."""

    family: str  # canonical family name
    size: int
    mode: str
    mutants: int

    @property
    def cell_id(self) -> str:
        """Stable, filename-safe identifier (``grover-single-n2-hybrid``)."""
        return f"{self.family}-n{self.size}-{self.mode}"


def estimate_cell_cost(cell: MatrixCell) -> float:
    """Relative cost of a cell, used only to order the sweep cheapest-first.

    jobs × family cost scale × size² × mode weight — a coarse model of "bigger
    circuits and heavier encodings take longer", deliberately cheap to compute
    (no circuit is built during scheduling).
    """
    jobs = cell.mutants + 1
    scale = family_capability(cell.family).cost_scale
    return jobs * scale * float(cell.size**2) * MODE_COST.get(cell.mode, 1.0)


#: keys accepted in a sweep spec mapping (anything else is a typo)
_SPEC_KEYS = frozenset(
    {"families", "sizes", "modes", "mutants", "mutations", "seed", "include_reference"}
)


@dataclass(frozen=True)
class MatrixSpec:
    """Declarative description of a families × sizes × modes sweep."""

    families: Tuple[str, ...]
    sizes: Mapping[str, Tuple[int, ...]]  # canonical family -> sorted sizes
    modes: Tuple[str, ...] = (AnalysisMode.HYBRID,)
    mutants: int = 25
    mutation_kinds: Tuple[str, ...] = ("insert",)
    seed: int = 0
    include_reference: bool = True

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("a matrix spec needs at least one family")
        if self.mutants < 0:
            raise ValueError("mutants must be non-negative")
        for mode in self.modes:
            if mode not in AnalysisMode.ALL:
                raise ValueError(
                    f"unknown analysis mode {mode!r}; expected one of {AnalysisMode.ALL}"
                )
        for kind in self.mutation_kinds:
            if kind not in MUTATION_KINDS:
                raise ValueError(
                    f"unknown mutation kind {kind!r}; expected one of {MUTATION_KINDS}"
                )
        for family in self.families:
            for size in self.sizes.get(family, ()):
                validate_family_size(family, size)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "MatrixSpec":
        """Build a spec from a plain dict (parsed TOML/JSON or CLI flags).

        The mapping may nest everything under a ``matrix`` table.  ``sizes``
        is either one value applied to every family (int, ``"2-5"`` range
        string, or list) or a per-family table; families without an entry use
        their registry defaults (:func:`~repro.benchgen.families.default_campaign_sizes`).
        """
        if "matrix" in mapping and isinstance(mapping["matrix"], Mapping):
            inner = dict(mapping["matrix"])
            for key, value in mapping.items():
                if key != "matrix":
                    inner.setdefault(key, value)
            mapping = inner
        unknown = set(mapping) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown spec keys {sorted(unknown)}; expected a subset of {sorted(_SPEC_KEYS)}"
            )
        if "families" not in mapping:
            raise ValueError("a matrix spec needs a 'families' list")
        families = tuple(resolve_family(name) for name in
                         _as_name_tuple(mapping["families"], "family"))
        if len(set(families)) != len(families):
            raise ValueError("duplicate families in spec (after alias resolution)")

        sizes_value = mapping.get("sizes")
        sizes: Dict[str, Tuple[int, ...]] = {}
        if sizes_value is None:
            for family in families:
                sizes[family] = default_campaign_sizes(family)
        elif isinstance(sizes_value, Mapping):
            for name, value in sizes_value.items():
                canonical = resolve_family(name)
                if canonical not in families:
                    raise ValueError(f"sizes given for {name!r}, which is not in 'families'")
                sizes[canonical] = parse_sizes(value)
            for family in families:
                sizes.setdefault(family, default_campaign_sizes(family))
        else:
            shared = parse_sizes(sizes_value)
            for family in families:
                sizes[family] = shared

        modes = mapping.get("modes", (AnalysisMode.HYBRID,))
        mutations = mapping.get("mutations", ("insert",))
        return cls(
            families=families,
            sizes=sizes,
            modes=_as_name_tuple(modes, "mode"),
            mutants=int(mapping.get("mutants", 25)),
            mutation_kinds=_as_name_tuple(mutations, "mutation kind"),
            seed=int(mapping.get("seed", 0)),
            include_reference=bool(mapping.get("include_reference", True)),
        )

    @classmethod
    def from_file(cls, path: str) -> "MatrixSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        with open(path, "rb") as handle:
            raw = handle.read()
        if path.endswith(".json"):
            mapping = json.loads(raw.decode("utf-8"))
        else:
            toml = _toml_module()
            try:
                mapping = toml.loads(raw.decode("utf-8"))
            except toml.TOMLDecodeError as error:
                raise ValueError(f"cannot parse sweep spec {path!r}: {error}") from error
        if not isinstance(mapping, Mapping):
            raise ValueError(f"sweep spec {path!r} must be a table/object at the top level")
        return cls.from_mapping(mapping)

    # -- identity ----------------------------------------------------------

    def to_dict(self) -> Dict:
        """Canonical JSON-serialisable form (stored in the manifest)."""
        return {
            "families": list(self.families),
            "sizes": {family: list(self.sizes[family]) for family in self.families},
            "modes": list(self.modes),
            "mutants": self.mutants,
            "mutations": list(self.mutation_kinds),
            "seed": self.seed,
            "include_reference": self.include_reference,
        }

    def fingerprint(self) -> str:
        """Digest of the canonical spec — the resume-compatibility check."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def default_campaign_id(self) -> str:
        """A short content-derived campaign id (``mx-<12 hex digits>``)."""
        return f"mx-{self.fingerprint()[:12]}"

    # -- expansion ---------------------------------------------------------

    def cells(self) -> List[MatrixCell]:
        """Expand into cells, silently dropping unsupported (family, mode)
        combinations (see :meth:`skipped_combinations`); error if nothing is
        left."""
        cells = []
        for family in self.families:
            supported = family_capability(family).modes
            for size in self.sizes[family]:
                for mode in self.modes:
                    if mode in supported:
                        cells.append(MatrixCell(family, size, mode, self.mutants))
        if not cells:
            raise ValueError(
                "the sweep is empty: no requested family supports any requested mode"
            )
        return cells

    def skipped_combinations(self) -> List[Tuple[str, str]]:
        """(family, mode) pairs the expansion dropped — surfaced in reports so
        partial coverage is never silent."""
        skipped = []
        for family in self.families:
            supported = family_capability(family).modes
            for mode in self.modes:
                if mode not in supported:
                    skipped.append((family, mode))
        return skipped


@dataclass
class MatrixRunResult:
    """Everything a front-end needs after a sweep: per-cell rows + totals."""

    campaign_id: str
    manifest_path: str
    summary_path: str
    rows: List[Dict]  # one per cell, in spec order
    totals: Dict
    reused_cells: int  # cells that already had a queue result when the run started
    skipped_combinations: List[Tuple[str, str]]
    wall_seconds: float

    @property
    def trustworthy(self) -> bool:
        """False when any cell errored or any reference circuit violated its
        own specification (mirrors the single-campaign exit-code contract)."""
        return not (
            self.totals.get("errors", 0)
            or any(row.get("reference_violated") for row in self.rows)
        )


@dataclass
class JoinRunResult:
    """What a fabric worker reports after ``campaign --join`` drains the queue.

    ``rows`` covers only the cells *this* worker executed and published —
    the campaign-wide picture lives with the coordinator.  ``counters`` is
    the worker's :meth:`~repro.dist.JobQueue.counter_snapshot`: claims,
    steals, re-queues, lease renewals, completions, duplicates, conflicts.
    """

    campaign_id: str
    manifest_path: str
    queue_dir: str
    rows: List[Dict]  # one per cell this worker completed
    totals: Dict
    counters: Dict
    wall_seconds: float

    @property
    def cells_executed(self) -> int:
        return len(self.rows)

    @property
    def trustworthy(self) -> bool:
        """Same contract as a sweep, plus: a completion *conflict* (two
        workers publishing different verdicts for one cell) taints the run —
        deterministic verification should make that impossible."""
        return not (
            self.totals.get("errors", 0)
            or any(row.get("reference_violated") for row in self.rows)
            or self.counters.get("conflicts", 0)
        )


class MatrixScheduler:
    """Drives a :class:`MatrixSpec` to completion, checkpointing every cell."""

    def __init__(
        self,
        spec: MatrixSpec,
        workers: int = 1,
        report_dir: str = "campaign_reports",
        manifest_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        campaign_id: Optional[str] = None,
        store_dir: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.spec = spec
        self.workers = workers
        self.report_dir = report_dir
        self.manifest_dir = manifest_dir or default_manifest_dir()
        self.cache_dir = cache_dir
        self.store_dir = store_dir
        self.fault_plan = fault_plan
        self.campaign_id = campaign_id or spec.default_campaign_id()

    @classmethod
    def resume(
        cls,
        campaign_id: str,
        workers: int = 1,
        report_dir: str = "campaign_reports",
        manifest_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        store_dir: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "MatrixScheduler":
        """Rebuild a scheduler from a manifest alone (``campaign --resume <id>``)."""
        manifest = CampaignManifest.load(manifest_dir or default_manifest_dir(), campaign_id)
        spec = MatrixSpec.from_mapping(manifest.spec)
        return cls(spec, workers=workers, report_dir=report_dir,
                   manifest_dir=manifest_dir, cache_dir=cache_dir,
                   campaign_id=campaign_id, store_dir=store_dir,
                   fault_plan=fault_plan)

    #: ``campaign --join <id>`` rebuilds a scheduler exactly like ``--resume``
    #: — the difference is which entry point runs (:meth:`run_join` never
    #: plans, and returns instead of waiting on cells other workers hold)
    join = resume

    # -- internals ---------------------------------------------------------

    def _cell_report_path(self, cell: MatrixCell) -> str:
        return os.path.join(self.report_dir, self.campaign_id, f"{cell.cell_id}.jsonl")

    def _cell_config(self, cell: MatrixCell) -> CampaignConfig:
        return CampaignConfig(
            family=cell.family,
            size=cell.size,
            mutants=cell.mutants,
            mutation_kinds=self.spec.mutation_kinds,
            mode=cell.mode,
            workers=self.workers,
            seed=self.spec.seed,
            include_reference=self.spec.include_reference,
            report_path=self._cell_report_path(cell),
            cache_dir=self.cache_dir,
            store_dir=self.store_dir,
            fault_plan=self.fault_plan,
        )

    def _open_manifest(self, resume: bool) -> CampaignManifest:
        cell_ids = [cell.cell_id for cell in self.spec.cells()]
        if resume:
            manifest = CampaignManifest.load(self.manifest_dir, self.campaign_id)
            manifest.check_fingerprint(self.spec.fingerprint())
            if sorted(manifest.cell_ids) != sorted(cell_ids):  # pragma: no cover - fingerprint guards this
                raise ManifestError(
                    f"manifest {self.campaign_id!r} tracks a different cell set"
                )
            return manifest
        return CampaignManifest.create(
            self.manifest_dir, self.campaign_id, self.spec.to_dict(),
            self.spec.fingerprint(), cell_ids,
        )

    def _queue(self) -> JobQueue:
        return JobQueue(self.manifest_dir, self.campaign_id)

    def _row_for(self, cell: MatrixCell, summary: Dict, reused: bool) -> Dict:
        row = {
            "cell": cell.cell_id,
            "family": cell.family,
            "size": cell.size,
            "mode": cell.mode,
            "reused": reused,
        }
        for key in _ROW_COUNTER_KEYS:
            row[key] = summary.get(key, 0)
        row["store_disabled"] = summary.get("store_disabled", False)
        row["wall_seconds"] = summary.get("wall_seconds", 0.0)
        row["reference_violated"] = summary.get("reference_violated", False)
        row["report_path"] = summary.get("report_path")
        row["phase_seconds"] = summary.get("phase_seconds", {})
        return row

    @staticmethod
    def _totals_for(rows: List[Dict]) -> Dict:
        totals = {key: sum(row.get(key, 0) for row in rows)
                  for key in _ROW_COUNTER_KEYS}
        totals["store_disabled"] = any(row.get("store_disabled") for row in rows)
        totals["wall_seconds"] = sum(row.get("wall_seconds", 0.0) for row in rows)
        return totals

    def _execute_cell(self, cell: MatrixCell, queue: JobQueue, lease, pool,
                      runtime: GateRuntime, say: Callable[[str], None]) -> Dict:
        """Run one claimed cell and publish its completion to the queue.

        Returns the cell's accepted summary dict — the winner's, if another
        worker published first.
        """
        if lease.token > 1:
            say(f"  (attempt {lease.token} — previous claim of this cell died "
                "or was interrupted)")
        # refresh the lease heartbeat as records complete, so a long cell
        # never looks abandoned to the other fabric workers
        beat = [time.monotonic()]

        def _heartbeat(_record, lease=lease, beat=beat):
            if time.monotonic() - beat[0] >= HEARTBEAT_INTERVAL_SECONDS:
                queue.renew(lease)
                beat[0] = time.monotonic()

        summary = Campaign(self._cell_config(cell)).run(
            pool=pool, runtime=runtime, on_record=_heartbeat)
        summary.apply_lease(lease)
        summary_dict = summary.to_dict()
        outcome = queue.complete(lease, summary_dict,
                                 report_path=self._cell_report_path(cell))
        if outcome != "accepted":
            say(f"  completion discarded ({outcome}): another worker already "
                f"published {cell.cell_id}")
            winner = queue.result(cell.cell_id)
            if winner is not None and isinstance(winner.get("summary"), dict):
                summary_dict = winner["summary"]
        return summary_dict

    def _drain(self, cells: List[MatrixCell], queue: JobQueue,
               say: Callable[[str], None], wait: bool) -> Tuple[Dict, Dict]:
        """The claim loop of both roles: claim and execute ``cells``
        cheapest-first until none is left.

        A cell another worker completed meanwhile is taken from its result.
        A cell held by a live claim is retried on the next pass, and
        :meth:`JobQueue.claim` steals it once the claim goes stale.  When a
        pass makes no progress the coordinator (``wait``) sleeps
        :data:`FABRIC_POLL_SECONDS` and tries again; a joiner returns.

        All cells share one pool and one automaton store.  Cells verified
        in-process share one runtime, so its memo carries across cells.

        Returns ``(executed, merged)``: the summaries of the cells this
        worker ran and of those another worker completed, by cell id.
        """
        os.makedirs(os.path.join(self.report_dir, self.campaign_id), exist_ok=True)
        executed: Dict[str, Dict] = {}
        merged: Dict[str, Dict] = {}
        if not cells:
            return executed, merged
        remaining = sorted(cells, key=estimate_cell_cost)
        waiting_announced = False
        store_dir = resolve_store_dir(self.cache_dir, self.store_dir)
        runtime = GateRuntime(store=open_store(store_dir))
        pool = worker_pool(self.workers, store_dir, self.fault_plan) if self.workers > 1 else None
        try:
            while remaining:
                held: List[MatrixCell] = []
                for cell in remaining:
                    record = queue.result(cell.cell_id)
                    if record is not None:
                        summary = record.get("summary")
                        merged[cell.cell_id] = summary if isinstance(summary, dict) else {}
                        worker = record.get("worker") or {}
                        say(f"merged {cell.cell_id} completed by worker "
                            f"{worker.get('pid', '?')}@{worker.get('host', '?')}")
                        continue
                    lease = queue.claim(cell.cell_id)
                    if lease is None:
                        held.append(cell)  # a live worker owns it (for now)
                        continue
                    say(f"[{len(executed) + 1}/{len(cells)}] {cell.cell_id} "
                        f"({cell.mutants} mutant(s), est. cost {estimate_cell_cost(cell):.0f})")
                    executed[cell.cell_id] = self._execute_cell(
                        cell, queue, lease, pool, runtime, say)
                if len(held) == len(remaining):  # nothing moved this pass
                    if not wait:
                        break
                    if not waiting_announced:
                        say(f"waiting on {len(held)} cell(s) held by live "
                            "worker(s): " + ", ".join(cell.cell_id for cell in held))
                        waiting_announced = True
                    time.sleep(FABRIC_POLL_SECONDS)
                remaining = held
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
        return executed, merged

    def _queue_view(self, queue: JobQueue):
        """``(states, done, todo)``: every cell's queue state, the summaries
        of cells that already have a result, and every other cell."""
        cells = self.spec.cells()
        states = queue.cell_states([cell.cell_id for cell in cells])
        done = {cell_id: (state.result or {}).get("summary") or {}
                for cell_id, state in states.items() if state.status == "done"}
        return states, done, [cell for cell in cells if cell.cell_id not in done]

    # -- execution ---------------------------------------------------------

    def plan(self, resume: bool = False) -> str:
        """Write the manifest (and clear the queue of a fresh sweep) without
        running anything; returns the manifest path.

        This is how a coordinator opens a campaign for ``--join`` workers
        before (or instead of) executing cells itself — the benchmark and
        smoke harnesses use it to measure pure-joiner throughput.
        """
        manifest = self._open_manifest(resume)
        if not resume:
            self._queue().reset()
        return manifest.path

    def run(
        self,
        resume: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ) -> MatrixRunResult:
        """Run (or resume) the sweep; returns per-cell rows and totals.

        A fresh run writes the manifest once; a resume never writes it.  On
        ``KeyboardInterrupt`` (or any crash) the current cell keeps its claim
        in the queue, so the next ``run(resume=True)`` re-claims exactly that
        cell (attempt 2) and skips every cell with a result.

        The run builds its own :class:`~repro.core.engine.GateRuntime` for
        the cells it verifies in-process; pool workers verify on theirs.

        The run is also the campaign's fabric *coordinator*: every cell is
        claimed through the lease queue before executing, completions
        published by ``--join`` workers are merged instead of re-executed,
        and cells held by a live claim are waited on (or stolen, once their
        lease goes stale).
        """
        say = progress or (lambda message: None)
        start = time.perf_counter()
        manifest = self._open_manifest(resume)
        queue = self._queue()
        if not resume:
            queue.reset()
        states, summaries, todo = self._queue_view(queue)
        reused = set(summaries)
        if reused:
            say(f"resume: {len(reused)} of {len(states)} cell(s) already done")
        for status, label in (("interrupted", "re-queueing interrupted cell(s)"),
                              ("held", "waiting on cell(s) held by a live worker")):
            named = [cell_id for cell_id, state in states.items() if state.status == status]
            if named:
                say(f"resume: {label}: {', '.join(named)}")

        executed, merged = self._drain(todo, queue, say, wait=True)
        summaries.update(executed)
        summaries.update(merged)
        rows = [self._row_for(cell, summaries.get(cell.cell_id, {}),
                              reused=cell.cell_id in reused)
                for cell in self.spec.cells()]
        totals = self._totals_for(rows)
        wall = time.perf_counter() - start

        summary_path = os.path.join(self.report_dir, self.campaign_id, "summary.json")
        result = MatrixRunResult(
            campaign_id=self.campaign_id,
            manifest_path=manifest.path,
            summary_path=summary_path,
            rows=rows,
            totals=totals,
            reused_cells=len(reused),
            skipped_combinations=self.spec.skipped_combinations(),
            wall_seconds=wall,
        )
        atomic_write_json(summary_path, {
            "campaign_id": self.campaign_id,
            "spec": self.spec.to_dict(),
            "spec_fingerprint": self.spec.fingerprint(),
            "cells": rows,
            "totals": totals,
            "reused_cells": result.reused_cells,
            #: cells another worker completed while this run waited on them
            "merged_cells": len(merged),
            "skipped_combinations": [list(pair) for pair in result.skipped_combinations],
            "wall_seconds": wall,
        }, indent=2)
        return result

    def run_join(
        self,
        progress: Optional[Callable[[str], None]] = None,
    ) -> JoinRunResult:
        """Attach to an existing campaign as a fabric worker and drain it.

        A joiner does **no planning** and never writes the manifest: it runs
        the coordinator's claim loop over the cells without a result
        (cheapest-first, the same priority order), executes each through the
        normal campaign machinery (own per-cell JSONL report), and publishes
        idempotent completion records the coordinator merges.  It returns
        once nothing is left to claim — every remaining cell is either
        completed or held by another live worker.
        """
        say = progress or (lambda message: None)
        start = time.perf_counter()
        # the manifest is the authoritative "what is this sweep" record, and
        # its fingerprint guards against joining a different spec under this id
        manifest = self._open_manifest(resume=True)
        queue = self._queue()
        _states, _done, todo = self._queue_view(queue)
        executed, _merged = self._drain(todo, queue, say, wait=False)
        by_id = {cell.cell_id: cell for cell in todo}
        rows = [self._row_for(by_id[cell_id], summary, reused=False)
                for cell_id, summary in executed.items()]
        return JoinRunResult(
            campaign_id=self.campaign_id,
            manifest_path=manifest.path,
            queue_dir=queue.directory,
            rows=rows,
            totals=self._totals_for(rows),
            counters=queue.counter_snapshot(),
            wall_seconds=time.perf_counter() - start,
        )
