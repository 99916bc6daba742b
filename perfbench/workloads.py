"""Run one workload's timed batches in a fresh interpreter and report raw data.

    python perfbench/workloads.py <workload> <inputs.json> <seconds> <trace> <scratch>

Imports, the lazy kernel-backend choice and a small warm-up problem finish
before the first timed batch.  Batches repeat while the time budget lasts
(at least one runs).  With ``trace`` 1 the process runs one untraced batch,
then one batch under :class:`tracer.LayerTracer`, and adds per-layer
numbers.  The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import sys
import threading
import time
from typing import Dict, List

from common import PARALLELISM, child_env, median, percentile, read_json
from daemon import Daemon

from repro.circuits import parse_qasm
from repro.core import IncrementalBugHunter, verify_triple
from repro.core.engine import GateRuntime
from repro.ta import automaton as ta_automaton
from repro.ta import serialization
from repro.ta.kernel import active_backend_name

#: engine phases reported per layer (``EngineStatistics.phase_seconds``)
PHASES = ("tag", "terms", "bin", "untag", "permutation", "reduce", "store")


def cold_start() -> None:
    """Empty the process-wide automaton caches before a batch, outside its
    timed region, so every batch starts as a fresh ``verify`` would."""
    ta_automaton.clear_reduce_cache()
    ta_automaton.clear_intern_tables()
    gc.collect()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Batch:
    """What one timed batch produced."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: List[float] = []
        #: time to each problem's verdict, by problem, where every batch
        #: verifies the same problems
        self.times: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        #: peak RSS of the process that did the work, when it is not this one
        self.rss = 0.0

    def outcome(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def median_batch_wall(batches: List[Batch]) -> float:
    """A batch's wall time over the run: the median batch."""
    return median([batch.wall for batch in batches])


def problem_medians(batches: List[Batch]) -> List[float]:
    """Each problem's median time to its verdict over the run's batches."""
    return [median([batch.times[key] for batch in batches if key in batch.times])
            for key in batches[0].times]


class SequentialProblems:
    """Run-level figures for batches that verify the same problems one
    after another."""

    @staticmethod
    def percentiles(batches: List[Batch]):
        """Over the problems, of each one's median time.  A batch of five
        triples has no p90 of its own, and pooled samples put it on the
        second slowest sample of one triple; a problem's median is what it
        costs."""
        times = problem_medians(batches)
        return median(times), percentile(times, 90), len(times)

    @staticmethod
    def run_wall(batches: List[Batch]) -> float:
        """The problems' medians, summed: a slow stretch of the host costs
        one sample of one problem, not a whole batch."""
        return sum(problem_medians(batches))


# ---------------------------------------------------------------- table 2


class Table2(SequentialProblems):
    def __init__(self, inputs, scratch):
        self.problems = [
            (problem["name"], parse_qasm(problem["qasm"]),
             serialization.loads(problem["pre"]), serialization.loads(problem["post"]),
             problem["holds"])
            for problem in inputs["problems"]
        ]
        self.runtimes: List[GateRuntime] = []

    def warm_up(self):
        from repro.benchgen import build_family

        bench = build_family("grover-single", 3)
        verify_triple(bench.precondition, bench.circuit, bench.postcondition,
                      runtime=GateRuntime())

    def batch(self, tracer=None) -> Batch:
        batch = Batch()
        self.runtimes = []
        verdicts = []
        hits = lookups = entries = 0
        for name, circuit, pre, post, _holds in self.problems:
            # every triple is verified cold, as one ``repro verify`` would;
            # emptying the caches stays outside the timed region
            cold_start()
            runtime = GateRuntime()
            began = time.perf_counter()
            result = verify_triple(pre, circuit, post, runtime=runtime)
            batch.times[name] = time.perf_counter() - began
            batch.latencies.append(batch.times[name])
            verdicts.append(result.holds)
            self.runtimes.append(runtime)
            stats = ta_automaton.reduce_cache_stats()
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
            entries = max(entries, stats["size"])
        batch.wall = sum(batch.latencies)
        # the caches restart with every triple: report over all of them, and
        # the largest cache one cold verification leaves
        batch.layers["automaton.reduce_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        batch.layers["automaton.reduce_cache_entries"] = entries
        for (_name, _c, _p, _q, holds), verdict in zip(self.problems, verdicts):
            batch.outcome(verdict == holds)
        return batch

    def memo(self):
        hits = sum(runtime.memo_hits for runtime in self.runtimes)
        misses = sum(runtime.memo_misses for runtime in self.runtimes)
        return hits, misses, sum(len(runtime.memo) for runtime in self.runtimes)


# ---------------------------------------------------------------- table 3


class Table3(SequentialProblems):
    def __init__(self, inputs, scratch):
        self.hunts = [
            (hunt["name"], parse_qasm(hunt["reference"]), parse_qasm(hunt["candidate"]),
             tuple(hunt["basis"]), hunt["max_iterations"], hunt["expected"])
            for hunt in inputs["hunts"]
        ]
        self.runtimes: List[GateRuntime] = []

    def warm_up(self):
        from repro.benchgen import revlib_suite
        from repro.circuits import inject_random_gate

        circuit = revlib_suite()["cycle4_2"].decomposed()
        buggy, _ = inject_random_gate(circuit, seed=1)
        IncrementalBugHunter(seed=5, max_iterations=2, runtime=GateRuntime()).hunt(circuit, buggy)

    def batch(self, tracer=None) -> Batch:
        cold_start()
        batch = Batch()
        self.runtimes = []
        outcomes = []
        start = time.perf_counter()
        for name, reference, candidate, basis, max_iterations, _expected in self.hunts:
            runtime = GateRuntime()
            hunter = IncrementalBugHunter(seed=5, max_iterations=max_iterations, runtime=runtime)
            began = time.perf_counter()
            outcome = hunter.hunt(reference, candidate, initial_basis=basis)
            batch.times[name] = time.perf_counter() - began
            batch.latencies.append(batch.times[name])
            outcomes.append(outcome)
            self.runtimes.append(runtime)
        batch.wall = time.perf_counter() - start
        iterations = 0
        for hunt, outcome in zip(self.hunts, outcomes):
            expected = hunt[-1]
            iterations += outcome.iterations
            if expected == "bug" and not outcome.bug_found:
                # a miss within the iteration bound is not a wrong verdict
                batch.misses += 1
                batch.outcome(True)
            else:
                batch.outcome(expected == ("bug" if outcome.bug_found else "equivalent"))
        batch.layers["hunt.iterations"] = iterations
        return batch

    memo = Table2.memo


# ------------------------------------------------------------- serve mix


class ServeMix:
    #: each problem is asked this many times per batch: repeats are served
    #: from the gate memo, and with two thirds of the requests repeats the
    #: median latency sits inside the repeat cluster instead of on the edge
    #: between repeats and first requests, where it swung by a quarter from
    #: run to run.  More repeats move p90 onto that edge instead (four or
    #: five per problem: p90 spread 0.23-0.24 over five runs).  Every batch
    #: draws a fresh order, so a run's median does not hang on which
    #: expensive requests one order happens to overlap.
    REPEATS = 3

    run_wall = staticmethod(median_batch_wall)

    @staticmethod
    def percentiles(batches: List[Batch]):
        """Medians over the run's batches of each batch's percentiles: a
        batch is one daemon answering the whole request sequence."""
        samples = [batch.latencies or [batch.wall] for batch in batches]
        return (median([median(times) for times in samples]),
                median([percentile(times, 90) for times in samples]),
                len(samples[0]))

    def __init__(self, inputs, scratch):
        self.documents = inputs["documents"]
        self.verdicts = inputs["verdicts"]
        self.orders = (random.Random(f"{inputs['seed']}/{index}") for index in itertools.count())
        self.env = child_env(scratch)

    def warm_up(self):
        pass  # every batch boots and warms its own daemon

    def batch(self, tracer=None) -> Batch:
        from repro.api import CircuitSource, VerifyProblem

        daemon = Daemon(self.env)
        try:
            # the daemon resolves its kernel backend and imports the engine
            # lazily on the first problem: pay that before the clock starts
            daemon.post(VerifyProblem(circuit=CircuitSource.from_family("bv", 2)).to_dict())
            batch = self._drive(daemon, tracer)
            batch.rss = daemon.peak_rss_mb()
            return batch
        finally:
            daemon.stop()

    def _drive(self, daemon: Daemon, tracer) -> Batch:
        batch = Batch()
        keys = sorted(self.documents) * self.REPEATS
        next(self.orders).shuffle(keys)
        before = daemon.metrics() if tracer is not None else None
        order = itertools.count()
        lock = threading.Lock()
        answers: List = [None] * len(keys)

        def client():
            while True:
                with lock:
                    index = next(order)
                if index >= len(keys):
                    return
                began = time.perf_counter()
                status, document = daemon.post(self.documents[keys[index]])
                answers[index] = (time.perf_counter() - began, status, document)

        threads = [threading.Thread(target=client) for _ in range(PARALLELISM)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batch.wall = time.perf_counter() - start
        if not daemon.alive():
            batch.notes["daemon_died"] = True
        phases: Dict[str, float] = {}
        gates = gates_permutation = max_transitions = 0
        hunt_seconds = 0.0
        iterations = 0
        for key, answer in zip(keys, answers):
            if answer is None:  # the client thread died before answering
                batch.outcome(False)
                continue
            seconds, status, document = answer
            batch.latencies.append(seconds)
            expected = self.verdicts[key]
            if status != 200 or document is None:
                batch.outcome(False)
                continue
            if key.startswith("verify/"):
                batch.outcome(document.get("holds") is expected)
                statistics = document.get("statistics") or {}
                for phase, value in (statistics.get("phase_seconds") or {}).items():
                    phases[phase] = phases.get(phase, 0.0) + value
                gates += statistics.get("gates_total", 0)
                gates_permutation += statistics.get("gates_permutation", 0)
                max_transitions = max(max_transitions, statistics.get("max_transitions", 0))
            else:
                hunt_seconds += document.get("total_seconds") or 0.0
                iterations += document.get("iterations") or 0
                found = bool(document.get("bug_found"))
                if expected and not found:
                    batch.misses += 1
                    batch.outcome(True)
                else:
                    batch.outcome(found == expected)
        if tracer is not None and daemon.alive():
            after = daemon.metrics()

            def delta(name):
                return after.get(name, 0.0) - before.get(name, 0.0)

            busy = delta("repro_request_seconds_total")
            hits = delta("repro_gate_memo_hits_total")
            misses = delta("repro_gate_memo_misses_total")
            batch.layers.update({
                "service.rejected": delta("repro_requests_rejected_total"),
                "service.timeouts": delta("repro_request_timeouts_total"),
                "service.busy_s": busy,
                # bug-hunt results carry no engine statistics, so their own
                # total_seconds stands in for the analysis time /metrics lacks
                "service.overhead_s": (busy - delta("repro_engine_analysis_seconds_total")
                                       - hunt_seconds),
                "service.wait_s": sum(batch.latencies) - busy,
                "engine.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "engine.memo_entries": after.get("repro_gate_memo_entries", 0.0),
                "engine.gates": delta("repro_engine_gates_total"),
                "hunt.iterations": iterations,
            })
            batch.notes["engine_verify_only"] = {
                "phase_seconds": phases, "gates_total": gates,
                "gates_permutation": gates_permutation, "max_transitions": max_transitions,
            }
        return batch


# --------------------------------------------------------- campaign sweep


class CampaignSweep:
    run_wall = staticmethod(median_batch_wall)

    @staticmethod
    def percentiles(batches: List[Batch]):
        """``MatrixScheduler.run`` hands its caller every verdict of the
        sweep at once, when it returns: each verdict's time is the sweep's."""
        wall = median_batch_wall(batches)
        return wall, wall, batches[0].attempted

    def __init__(self, inputs, scratch):
        self.spec = inputs["spec"]
        self.verdicts = inputs["verdicts"]
        self.scratch = scratch
        self.sweeps = itertools.count()
        self.records: List[Dict] = []

    def _scheduler(self, mapping):
        from repro.campaign import MatrixScheduler, MatrixSpec

        directory = os.path.join(self.scratch, f"sweep{next(self.sweeps)}")
        return MatrixScheduler(
            MatrixSpec.from_mapping(mapping), workers=PARALLELISM,
            report_dir=os.path.join(directory, "reports"),
            manifest_dir=os.path.join(directory, "manifests"),
            cache_dir=os.path.join(directory, "cache"),
            store_dir=os.path.join(directory, "store"),
        )

    def warm_up(self):
        self._scheduler({"families": ["bv"], "sizes": 3, "mutants": 2, "seed": 0}).run()

    def batch(self, tracer=None) -> Batch:
        cold_start()  # forked pool workers start from the parent's caches
        scheduler = self._scheduler(self.spec)
        batch = Batch()
        start = time.perf_counter()
        result = scheduler.run()
        batch.wall = time.perf_counter() - start
        self.records = []
        seen = set()
        for row in result.rows:
            with open(row["report_path"], encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    key = f"{row['cell']}/{record['job_id']}"
                    seen.add(key)
                    batch.outcome(record.get("verdict") == self.verdicts.get(key))
                    if not record.get("cached") and not record.get("deduplicated"):
                        self.records.append(record)
        for _missing in set(self.verdicts) - seen:
            batch.outcome(False)
        batch.notes["jobs"] = result.totals.get("jobs", 0)
        return batch


WORKLOAD_CLASSES = {
    "table2-verify": Table2,
    "table3-hunt": Table3,
    "serve-mix": ServeMix,
    "campaign-sweep": CampaignSweep,
}


# ------------------------------------------------------------ per layer


def _engine_layers(statistics: List[Dict]) -> Dict[str, float]:
    layers = {f"engine.phase.{phase}_s": 0.0 for phase in PHASES}
    gates = permutation = max_transitions = 0
    for stats in statistics:
        for phase, value in (stats.get("phase_seconds") or {}).items():
            if f"engine.phase.{phase}_s" in layers:
                layers[f"engine.phase.{phase}_s"] += value
        gates += stats.get("gates_total", 0)
        permutation += stats.get("gates_permutation", 0)
        max_transitions = max(max_transitions, stats.get("max_transitions", 0))
    layers["engine.gates"] = gates
    layers["engine.permutation_frac"] = permutation / gates if gates else 0.0
    layers["engine.max_transitions"] = max_transitions
    return layers


def _counter_layers(calls, seconds, below) -> Dict[str, float]:
    layers = {}
    for key in ("composition.projection", "composition.swap", "automaton.reduce",
                "store.get", "store.put"):
        layers[f"{key}.calls"] = calls.get(key, 0)
        layers[f"{key}_s"] = seconds.get(key, 0.0)
    layers["composition.restrict_s"] = seconds.get("composition.restrict", 0.0)
    layers["composition.subtree_copy_s"] = seconds.get("composition.subtree_copy", 0.0)
    for op in ("binary_operation", "remove_useless", "reduce_layered", "reduce_fixpoint"):
        key = f"kernel.{op}"
        count = calls.get(key, 0)
        layers[f"{key}.calls"] = count
        layers[f"{key}_s"] = seconds.get(key, 0.0)
        layers[f"{key}.below_threshold_frac"] = below.get(key, 0) / count if count else 0.0
    layers["inclusion.calls"] = calls.get("inclusion", 0)
    layers["inclusion_s"] = seconds.get("inclusion", 0.0)
    layers["queue.claims"] = calls.get("queue.claim", 0)
    layers["queue.claim_s"] = seconds.get("queue.claim", 0.0)
    layers["queue.complete_s"] = seconds.get("queue.complete", 0.0)
    layers["queue.renewals"] = calls.get("queue.renew", 0)
    return layers


def traced_layers(workload, runner, batch: Batch, tracer, reduce_before) -> Dict[str, float]:
    """Per-layer numbers of one traced batch (0 where a layer is idle)."""
    from tracer import read_child_deltas

    calls, seconds, below = dict(tracer.calls), dict(tracer.seconds), dict(tracer.below)
    reduce_stats = ta_automaton.reduce_cache_stats()
    reduce_hits = reduce_stats["hits"] - reduce_before["hits"]
    reduce_misses = reduce_stats["misses"] - reduce_before["misses"]
    reduce_entries = reduce_stats["size"]
    layers: Dict[str, float] = dict.fromkeys(
        ("hunt.iterations", "campaign.jobs", "campaign.pool_busy_frac", "service.rejected",
         "service.timeouts", "service.busy_s", "service.overhead_s", "service.wait_s"), 0)
    memo = None
    statistics = [stats.to_dict() for stats in tracer.engine]
    store_hits = store_misses = publishes = 0
    if workload == "campaign-sweep":
        deltas = read_child_deltas(os.path.join(runner.scratch, "trace-children"))
        last_by_pid = {}
        memo_hits = memo_misses = 0
        for delta in deltas:
            for field, target in (("calls", calls), ("seconds", seconds), ("below", below)):
                for key, value in delta[field].items():
                    target[key] = target.get(key, 0) + value
            reduce_hits += delta["reduce_hits"]
            reduce_misses += delta["reduce_misses"]
            memo_hits += delta["memo_hits"]
            memo_misses += delta["memo_misses"]
            last_by_pid[delta["pid"]] = delta
        reduce_entries = sum(delta["reduce_entries"] for delta in last_by_pid.values())
        memo = (memo_hits, memo_misses,
                sum(delta["memo_entries"] for delta in last_by_pid.values()))
        statistics = [record["statistics"] for record in runner.records
                      if record.get("statistics")]
        busy = sum(record.get("elapsed_seconds") or 0.0 for record in runner.records)
        layers["campaign.jobs"] = batch.notes.get("jobs", 0)
        layers["campaign.pool_busy_frac"] = busy / (batch.wall * PARALLELISM)
    elif workload == "serve-mix":
        verify_only = batch.notes.get("engine_verify_only")
        statistics = [verify_only] if verify_only else []
    else:
        memo = runner.memo()
    for stats in statistics:
        store_hits += stats.get("store_hits", 0)
        store_misses += stats.get("store_misses", 0)
        publishes += stats.get("store_publishes", 0)
    layers.update(_engine_layers(statistics))
    layers.update(_counter_layers(calls, seconds, below))
    if memo is not None:
        hits, misses, entries = memo
        layers["engine.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["engine.memo_entries"] = entries
    lookups = reduce_hits + reduce_misses
    layers["automaton.reduce_cache_hit_ratio"] = reduce_hits / lookups if lookups else 0.0
    layers["automaton.reduce_cache_entries"] = reduce_entries
    layers["store.hit_ratio"] = (store_hits / (store_hits + store_misses)
                                 if store_hits + store_misses else 0.0)
    layers["store.publishes"] = publishes
    layers.update(batch.layers)  # workload-specific numbers win (service, hunts)
    return layers


# ------------------------------------------------------------------ main


def main(argv) -> int:
    workload, inputs_file, seconds, trace, scratch = (
        argv[1], argv[2], float(argv[3]), argv[4] == "1", argv[5])
    started = time.perf_counter()
    runner = WORKLOAD_CLASSES[workload](read_json(inputs_file), scratch)
    backend = active_backend_name()
    runner.warm_up()
    # the benchmark's own inputs and imports stay out of the collector's
    # scans in the timed regions, as they would in a user's process
    gc.collect()
    gc.freeze()
    batches: List[Batch] = []
    report: Dict[str, object] = {"kernel_backend": backend}
    if trace:
        from tracer import LayerTracer

        batches.append(runner.batch())
        child_dir = os.path.join(scratch, "trace-children")
        os.makedirs(child_dir, exist_ok=True)
        cold_start()
        reduce_before = ta_automaton.reduce_cache_stats()
        tracer = LayerTracer().install(child_dir)
        try:
            traced = runner.batch(tracer)
        finally:
            tracer.uninstall()
        batches.append(traced)
        layers = traced_layers(workload, runner, traced, tracer, reduce_before)
        layers["trace.overhead_s"] = traced.wall - batches[0].wall
        report["layers"] = layers
        report["untraced_wall"] = batches[0].wall
        report["traced_wall"] = traced.wall
    else:
        loop_start = time.perf_counter()
        while True:
            batches.append(runner.batch())
            typical = median([batch.wall for batch in batches])
            if time.perf_counter() - loop_start + typical > seconds:
                break
    if workload == "serve-mix":
        peak = median([batch.rss for batch in batches])
    elif workload == "campaign-sweep":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        peak = self_rss_mb()
    p50, p90, samples = runner.percentiles(batches)
    report.update({
        "wall": runner.run_wall(batches),
        "p50": p50,
        "p90": p90,
        "samples": samples,
        "batches": [
            {"wall": batch.wall, "p50": median(batch.latencies or [batch.wall]),
             "p90": percentile(batch.latencies or [batch.wall], 90),
             "samples": len(batch.latencies)}
            for batch in batches
        ],
        "attempted": sum(batch.attempted for batch in batches),
        "failed": sum(batch.failed for batch in batches),
        "misses": sum(batch.misses for batch in batches),
        "notes": [batch.notes for batch in batches],
        "peak_rss_mb": peak,
        "process_seconds": time.perf_counter() - started,
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
