"""The campaign runner: fan verification jobs out over a worker pool.

The parent process materialises the job list (see :mod:`repro.campaign.plan`),
answers what it can from the persistent :class:`~repro.campaign.cache.ResultCache`,
and ships the remaining jobs to a :mod:`multiprocessing` pool.  Results are
streamed into the JSONL report in deterministic job order, and every fresh
verdict is written back to the cache so the next campaign over the same
circuits is nearly free.

Dispatch is crash-tolerant (see ``docs/robustness.md``): each miss is an
individual ``apply_async`` submission consumed in input order under a short
poll timeout; when the pool's worker pid-set changes — a worker was
SIGKILL'd, OOM-killed, or crashed by the ``worker.cell`` fault site — the
in-flight head-of-line job is re-submitted (bounded by
``CampaignConfig.max_job_retries``) and its ``retried`` count lands in the
JSONL record.  A job that exhausts its retries becomes a synthetic
``error`` record instead of aborting the sweep.  A one-worker campaign runs
the same dispatch loop over an in-process stand-in for the pool, so both
paths keep one retry count.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

try:  # the concurrent.futures pool raises this; ours may relay it
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - very old pythons
    class BrokenProcessPool(RuntimeError):
        pass

from ..benchgen.families import build_family
from ..circuits.qasm import parse_qasm
from ..core.engine import AnalysisMode, GateRuntime, default_gate_runtime
from ..core.permutation import PermutationUnsupported
from ..core.verification import verify_triple
from ..faults import (
    FaultPlan,
    InjectedFault,
    active_injector,
    inject,
    install_fault_plan,
    install_injector,
)
from ..ta import serialization
from ..ta.store import open_store
from .cache import ResultCache, default_cache_dir, resolve_store_dir
from .plan import CampaignJob, MutationPlan
from .report import CampaignReportWriter, summarise_records

__all__ = [
    "CampaignConfig",
    "CampaignSummary",
    "Campaign",
    "run_campaign",
    "execute_job",
    "initialise_worker",
    "worker_pool",
]


def initialise_worker(store_dir, fault_plan: Optional[FaultPlan] = None) -> None:
    """Pool-worker initializer: attach the shared cross-process automaton store.

    Runs once in every worker of a :func:`worker_pool`, so every worker
    process reads and publishes gate-memo entries under the same directory —
    the composition-encoded gates of one worker's circuit prefix become every
    other worker's store hits.  The store attaches to the worker's own
    runtime, :func:`~repro.core.engine.default_gate_runtime`, which
    :func:`execute_job` uses when it is called without one.

    ``fault_plan`` (chaos testing, see ``docs/robustness.md``) arms the
    worker's process-global fault injector before any job runs, so injected
    store/worker faults follow the same deterministic schedule in every
    worker.
    """
    if fault_plan is not None:
        install_fault_plan(fault_plan)
    default_gate_runtime().store = open_store(store_dir)


def worker_pool(processes: int, store_dir: Optional[str],
                fault_plan: Optional[FaultPlan] = None):
    """A campaign worker pool, fork-started where the platform allows;
    each worker runs :func:`initialise_worker` with ``store_dir`` and
    ``fault_plan``."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context()
    return context.Pool(processes=processes, initializer=initialise_worker,
                        initargs=(store_dir, fault_plan))


def _fault_snapshot(store) -> Dict[str, int]:
    """Current robustness counters of this process (injector + store)."""
    injector = active_injector()
    counters = store.counters if store is not None else {}
    return {
        "injected": injector.total_injected() if injector is not None else 0,
        "quarantined": int(counters.get("quarantined") or 0),
        "store_retries": int(counters.get("retries") or 0),
    }


def execute_job(job: CampaignJob, runtime: Optional[GateRuntime] = None) -> Dict:
    """Run one verification job; always returns a report record — the only
    exceptions that escape are *injected* ``worker.cell`` faults (and process
    death), which the dispatcher treats as a crashed worker and re-queues.

    Top-level (not a method) so worker pools can pickle it under every
    multiprocessing start method; pool workers call it without ``runtime``
    (using the runtime :func:`initialise_worker` set up), the in-process
    path passes the campaign's runtime explicitly.
    """
    # the worker.cell fault site: 'raise' propagates to the dispatcher (a
    # retryable crash), 'crash-process' is os._exit — a dead pool worker
    inject("worker.cell")
    if runtime is None:
        runtime = default_gate_runtime()
    # hold the store object: the engine detaches it from the runtime when it
    # degrades mid-job, and the counter deltas must survive that
    store = runtime.store
    faults_before = _fault_snapshot(store)
    start = time.perf_counter()
    record: Dict = {
        "job_id": job.job_id,
        "benchmark": job.benchmark,
        "mode": job.mode,
        "mutation_kind": job.mutation_kind,
        "mutation": job.mutation,
        "seed": job.seed,
        "num_qubits": job.num_qubits,
        "num_gates": job.num_gates,
        "circuit_fingerprint": job.circuit_fingerprint,
        "precondition_fingerprint": job.precondition_fingerprint,
        "postcondition_fingerprint": job.postcondition_fingerprint,
        "witness": None,
        "witness_kind": None,
        "error": None,
        "statistics": None,
        "comparison_seconds": None,
        "cached": False,
    }
    try:
        circuit = parse_qasm(job.circuit_qasm)
        precondition = serialization.loads(job.precondition_text)
        postcondition = serialization.loads(job.postcondition_text)
        result = verify_triple(
            precondition, circuit, postcondition, mode=job.mode, runtime=runtime
        )
        record["verdict"] = "holds" if result.holds else "violated"
        record["witness"] = None if result.witness is None else repr(result.witness)
        record["witness_kind"] = result.witness_kind
        record["statistics"] = result.statistics.to_dict()
        record["comparison_seconds"] = result.comparison_seconds
    except PermutationUnsupported as exc:
        # a mutation inserted a gate the permutation-only encoding cannot
        # express — the mutant is unverifiable under this mode, not a crash
        record["verdict"] = "unsupported"
        record["error"] = f"{type(exc).__name__}: {exc}"
    except InjectedFault:
        # injected infrastructure faults must reach the dispatcher's
        # crash/retry machinery, not be recorded as a mutant error
        raise
    except Exception as exc:  # noqa: BLE001 - a broken mutant must not kill the campaign
        record["verdict"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["elapsed_seconds"] = time.perf_counter() - start
    faults_after = _fault_snapshot(store)
    deltas = {key: faults_after[key] - faults_before[key] for key in faults_after}
    store_disabled = bool(store is not None and store.disabled)
    if any(deltas.values()) or store_disabled:
        record["faults"] = {**deltas, "store_disabled": store_disabled}
    else:
        record["faults"] = None
    return record


@dataclass
class CampaignConfig:
    """Everything needed to reproduce a campaign run."""

    family: str
    size: Optional[int] = None
    mutants: int = 100
    mutation_kinds: Sequence[str] = ("insert",)
    mode: str = AnalysisMode.HYBRID
    workers: int = 1
    seed: int = 0
    include_reference: bool = True
    report_path: str = "campaign_report.jsonl"
    #: ``None`` -> :func:`~repro.campaign.cache.default_cache_dir`; "" disables caching
    cache_dir: Optional[str] = None
    #: cross-process automaton store directory shared by all workers;
    #: ``None`` -> derived from ``cache_dir`` (see
    #: :func:`~repro.campaign.cache.resolve_store_dir`), "" disables the store
    store_dir: Optional[str] = None
    #: fuzz regression corpus replayed as a gate before the sweep
    #: (``repro.fuzz.corpus``); any replay failure taints the campaign
    corpus_dir: Optional[str] = None
    #: deterministic fault-injection plan armed in the parent and every pool
    #: worker for this run (chaos testing; see ``docs/robustness.md``)
    fault_plan: Optional[FaultPlan] = None
    #: times one job is re-queued after a dead worker / injected crash before
    #: it is recorded as a synthetic ``error``
    max_job_retries: int = 2

    def __post_init__(self) -> None:
        if self.mode not in AnalysisMode.ALL:
            raise ValueError(f"unknown analysis mode {self.mode!r}; expected one of {AnalysisMode.ALL}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_job_retries < 0:
            raise ValueError("max_job_retries must be >= 0")


@dataclass
class CampaignSummary:
    """Campaign-level outcome (one row of the CLI summary table).

    :class:`repro.api.CampaignResult` is this dataclass with the result
    envelope on top, so every field here is a field of ``campaign``
    documents; every field has a default so that an empty result builds.
    """

    benchmark: str = ""
    mode: str = "hybrid"
    workers: int = 1
    jobs: int = 0
    holds: int = 0
    violated: int = 0
    errors: int = 0
    cache_hits: int = 0
    analysis_seconds: float = 0.0
    wall_seconds: float = 0.0
    report_path: str = ""
    #: mutants unverifiable under this mode (e.g. a non-permutation gate was
    #: inserted into a permutation-mode campaign) — not counted as errors
    unsupported: int = 0
    #: the *unmutated* circuit failed its spec — every mutant verdict is suspect
    reference_violated: bool = False
    #: per-phase engine wall-clock summed over freshly verified jobs
    #: (``tag``/``terms``/``bin``/``untag``/``permutation``/``reduce``/``store``)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: cross-process automaton-store counters summed over freshly verified
    #: jobs (0 when the store is disabled)
    store_hits: int = 0
    store_misses: int = 0
    store_publishes: int = 0
    #: fuzz regression gate (0/0 when the campaign ran without a corpus)
    corpus_replayed: int = 0
    corpus_failures: int = 0
    #: robustness roll-up (all 0/False on a fault-free run, see
    #: ``docs/robustness.md``): faults injected by the active plan, job
    #: re-queues + store I/O retries, store entries quarantined, and whether
    #: any worker's store tier disabled itself
    faults_injected: int = 0
    retries: int = 0
    quarantined_entries: int = 0
    store_disabled: bool = False
    #: distributed-fabric counters (see ``docs/distributed.md``): when the
    #: cell ran under the fabric queue, its claim generations, steals from
    #: stale leases, re-queues, and lease heartbeat renewals.  All 0 for a
    #: plain single-process campaign.  ``backend_hits`` is always 0; it stays
    #: only so that ``campaign`` documents keep their v4 shape.
    backend_hits: int = 0
    cells_claimed: int = 0
    cells_stolen: int = 0
    cells_requeued: int = 0
    lease_renewals: int = 0

    def to_dict(self) -> Dict:
        return asdict(self)

    def apply_lease(self, lease) -> "CampaignSummary":
        """Stamp the fabric facts of the :class:`~repro.dist.QueueLease`
        this cell ran under; returns self for chaining."""
        self.cells_claimed = int(lease.token)
        self.cells_requeued = max(0, int(lease.token) - 1)
        self.cells_stolen = 1 if lease.stolen else 0
        self.lease_renewals = int(lease.renewals)
        return self


class _InProcessPool:
    """The in-process stand-in for a worker pool.

    ``apply_async`` runs nothing: the handle it returns runs the job on the
    campaign's runtime when the dispatch loop calls its ``get``, so jobs run
    one at a time in order and an injected ``worker.cell`` raise takes the
    pool's bounded-retry path.  (A ``crash-process`` fault here kills the
    campaign itself — that kind only makes sense for pool workers.)
    """

    def __init__(self, runtime: GateRuntime):
        self.runtime = runtime

    def apply_async(self, func, args) -> "_InProcessCall":
        return _InProcessCall(func, (*args, self.runtime))


class _InProcessCall:
    """A deferred call; ``get`` runs it (``timeout`` is accepted and unused)."""

    def __init__(self, func, args):
        self.func = func
        self.args = args

    def get(self, timeout: Optional[float] = None) -> Dict:
        return self.func(*self.args)


class Campaign:
    """Builds and executes the job fleet described by a :class:`CampaignConfig`."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        self.benchmark = build_family(config.family, config.size)
        self.plan = MutationPlan(
            num_mutants=config.mutants,
            kinds=tuple(config.mutation_kinds),
            base_seed=config.seed,
            include_reference=config.include_reference,
        )

    def build_jobs(self) -> List[CampaignJob]:
        """The deterministic job list for this campaign."""
        return self.plan.jobs(self.benchmark, self.config.mode)

    def _open_cache(self) -> Optional[ResultCache]:
        cache_dir = self.config.cache_dir
        if cache_dir == "":
            return None
        return ResultCache(cache_dir or default_cache_dir())

    def run(
        self,
        pool=None,
        runtime: Optional[GateRuntime] = None,
        on_record=None,
    ) -> CampaignSummary:
        """Execute every job, stream the JSONL report, and return the summary.

        ``pool`` optionally supplies an already-running multiprocessing pool
        (the matrix scheduler shares one across all sweep cells instead of
        paying pool start-up per cell); when ``None``, the campaign creates
        its own pool sized by ``config.workers``.

        ``runtime`` optionally supplies the :class:`GateRuntime` in-process
        verification uses, as is (the matrix scheduler passes one per sweep run);
        when ``None``, the run builds its own on the campaign's store.  Pool
        workers always verify on their own runtimes.

        ``on_record`` is an optional callable invoked with each stamped
        ``campaign-job`` document right after it is written to the report —
        the live-progress hook behind SSE streaming and scheduler lease
        heartbeats.  It runs on the draining thread; exceptions propagate and
        abort the campaign.
        """
        config = self.config
        start = time.perf_counter()
        corpus_replayed = 0
        corpus_failures = 0
        if config.corpus_dir:
            # regression gate: replay the committed fuzz corpus before paying
            # for the sweep — a diverging entry means the engine regressed and
            # every mutant verdict below would be suspect.  Imported lazily:
            # repro.fuzz depends on this package (cache fingerprints).
            from ..fuzz.driver import replay_corpus

            replay = replay_corpus(config.corpus_dir, runtime=runtime)
            corpus_replayed = replay.replayed
            corpus_failures = replay.divergences
        jobs = self.build_jobs()
        cache = self._open_cache()
        store_dir = resolve_store_dir(config.cache_dir, config.store_dir)
        if runtime is None:
            runtime = GateRuntime(store=open_store(store_dir))
        # arm the configured fault plan for the scope of this run (the
        # in-process path and fork-started pools see it immediately; every
        # pool initializer re-installs it per worker); whatever injector was
        # active before — usually none — is restored on exit
        previous_injector = None
        injector_swapped = False
        if config.fault_plan is not None:
            previous_injector = install_injector(None)
            install_fault_plan(config.fault_plan)
            injector_swapped = True

        job_keys = {
            job.job_id: ResultCache.key(
                job.circuit_fingerprint, job.precondition_fingerprint, job.mode
            )
            for job in jobs
        }
        cached_records: Dict[str, Dict] = {}
        misses: List[CampaignJob] = []
        dispatched_keys = set()
        for job in jobs:
            record = None
            if cache is not None:
                record = cache.get(
                    job_keys[job.job_id], postcondition_fingerprint=job.postcondition_fingerprint
                )
            if record is not None:
                record = dict(record)
                record["cached"] = True
                cached_records[job.job_id] = self._restore_identity(record, job)
            elif job_keys[job.job_id] not in dispatched_keys:
                # mutation operators on small circuits collide often; verify
                # each distinct (circuit, precondition, mode) key only once
                dispatched_keys.add(job_keys[job.job_id])
                misses.append(job)

        records: List[Dict] = []
        try:
            with CampaignReportWriter(config.report_path) as report:

                def drain(results) -> None:
                    resolved: Dict[str, Dict] = {}
                    for job in jobs:
                        key = job_keys[job.job_id]
                        if job.job_id in cached_records:
                            record = cached_records[job.job_id]
                        elif key in resolved:
                            record = self._restore_identity(dict(resolved[key]), job)
                            record["deduplicated"] = True
                        else:
                            record = self._finish(cache, key, next(results))
                            resolved[key] = record
                        records.append(record)
                        stamped = report.write(record)
                        if on_record is not None:
                            on_record(stamped)

                if pool is not None and len(misses) > 1:
                    drain(self._pool_results(pool, misses))
                elif config.workers == 1 or len(misses) <= 1:
                    drain(self._pool_results(_InProcessPool(runtime), misses))
                else:
                    with worker_pool(min(config.workers, len(misses)), store_dir,
                                     config.fault_plan) as own_pool:
                        drain(self._pool_results(own_pool, misses))
        finally:
            if injector_swapped:
                install_injector(previous_injector)
        wall = time.perf_counter() - start
        summary = summarise_records(records)
        # only an actual "violated" verdict taints the sweep: an errored
        # reference is already counted in `errors`, and an "unsupported" one
        # (wrong mode for the family) is not a specification violation
        reference_violated = any(
            record["mutation_kind"] == "reference" and record["verdict"] == "violated"
            for record in records
        )
        return CampaignSummary(
            benchmark=self.benchmark.name,
            mode=config.mode,
            workers=config.workers,
            jobs=summary["jobs"],
            holds=summary["holds"],
            violated=summary["violated"],
            unsupported=summary["unsupported"],
            errors=summary["errors"],
            cache_hits=summary["cache_hits"],
            analysis_seconds=summary["analysis_seconds"],
            wall_seconds=wall,
            report_path=config.report_path,
            reference_violated=reference_violated,
            phase_seconds=summary["phase_seconds"],
            store_hits=summary["store_hits"],
            store_misses=summary["store_misses"],
            store_publishes=summary["store_publishes"],
            corpus_replayed=corpus_replayed,
            corpus_failures=corpus_failures,
            faults_injected=summary["faults_injected"],
            retries=summary["retries"],
            quarantined_entries=summary["quarantined_entries"],
            store_disabled=summary["store_disabled"],
        )

    #: dead-worker poll interval of the pool dispatcher (seconds); short
    #: enough that a killed worker delays its cell by well under a second
    POLL_SECONDS = 0.25

    def _pool_results(self, pool, misses: List[CampaignJob]) -> Iterator[Dict]:
        """Crash-tolerant pool dispatch: per-job ``apply_async``, consumed in
        input order under a poll timeout.  ``pool`` is a worker pool or an
        :class:`_InProcessPool`, whose handles never time out.

        ``imap`` would hang forever on a dead worker: the pool replaces the
        process but the tasks it had taken are silently lost.  Instead, each
        pending head-of-line job is waited on with a short timeout; when the
        wait times out *and* the pool's worker pid-set changed since the job
        was (re)submitted, the job is re-submitted (its earlier submission
        may be lost) — bounded by ``max_job_retries``, after which a
        synthetic error record is emitted and the sweep carries on.

        The comparison baseline is *per job*, captured just before its
        submission: two workers dying inside one poll window still differ
        from every affected job's own snapshot, where a single shared
        "last seen" set would swallow the second death and hang.
        """
        max_retries = self.config.max_job_retries
        submitted_pids = [self._worker_pids(pool)] * len(misses)
        pending = [pool.apply_async(execute_job, (job,)) for job in misses]
        retried = [0] * len(misses)

        def resubmit(index: int, job: CampaignJob) -> None:
            retried[index] += 1
            submitted_pids[index] = self._worker_pids(pool)
            pending[index] = pool.apply_async(execute_job, (job,))

        for index, job in enumerate(misses):
            while True:
                try:
                    record = pending[index].get(timeout=self.POLL_SECONDS)
                    break
                except multiprocessing.TimeoutError:
                    pids = self._worker_pids(pool)
                    if pids is None:
                        continue  # can't introspect; keep waiting
                    if submitted_pids[index] is None:
                        submitted_pids[index] = pids  # baseline recovered
                        continue
                    if pids == submitted_pids[index]:
                        continue  # just slow; keep waiting
                    # a worker died since this job went in — it may be lost
                    if retried[index] >= max_retries:
                        record = self._crash_record(
                            job, RuntimeError("pool worker died"))
                        break
                    resubmit(index, job)
                except (InjectedFault, BrokenProcessPool, OSError) as fault:
                    # raised inside the worker (injected crash) or by a
                    # broken pool: retryable infrastructure failure
                    if retried[index] >= max_retries:
                        record = self._crash_record(job, fault)
                        break
                    resubmit(index, job)
            record["retried"] = retried[index]
            yield record

    @staticmethod
    def _worker_pids(pool):
        """The pool's current worker pid-set; ``None`` when not introspectable."""
        processes = getattr(pool, "_pool", None)  # noqa: SLF001 - no public API
        if processes is None:
            return None
        try:
            return {process.pid for process in processes}
        except Exception:  # noqa: BLE001 - racing pool maintenance
            return None

    @staticmethod
    def _crash_record(job: CampaignJob, error: BaseException) -> Dict:
        """Synthetic ``error`` record for a job whose retries are exhausted."""
        return {
            "job_id": job.job_id,
            "benchmark": job.benchmark,
            "mode": job.mode,
            "mutation_kind": job.mutation_kind,
            "mutation": job.mutation,
            "seed": job.seed,
            "num_qubits": job.num_qubits,
            "num_gates": job.num_gates,
            "circuit_fingerprint": job.circuit_fingerprint,
            "precondition_fingerprint": job.precondition_fingerprint,
            "postcondition_fingerprint": job.postcondition_fingerprint,
            "verdict": "error",
            "witness": None,
            "witness_kind": None,
            "error": f"worker-crash: {type(error).__name__}: {error}",
            "statistics": None,
            "comparison_seconds": None,
            "elapsed_seconds": 0.0,
            "cached": False,
            "faults": None,
        }

    @staticmethod
    def _restore_identity(record: Dict, job: CampaignJob) -> Dict:
        """Overwrite a reused record's identity fields with this job's.

        A cached or deduplicated verdict may come from a *different* job that
        happened to produce the same circuit (e.g. another seed), so the
        plan-specific fields must reflect the job being reported.
        """
        record["job_id"] = job.job_id
        record["benchmark"] = job.benchmark
        record["mutation_kind"] = job.mutation_kind
        record["mutation"] = job.mutation
        record["seed"] = job.seed
        # robustness counters belong to the run that paid them: a replayed
        # verdict must not re-count the original run's retries or faults
        record["retried"] = None
        record["faults"] = None
        return record

    @staticmethod
    def _finish(cache: Optional[ResultCache], key: str, record: Dict) -> Dict:
        """Cache a fresh verdict (errors are not cached, so they are retried)."""
        if cache is not None and record.get("verdict") != "error":
            cache.put(key, record)
        return record


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Convenience wrapper: build and run a campaign in one call."""
    return Campaign(config).run()
