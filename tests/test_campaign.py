"""Tests for the parallel bug-hunting campaign subsystem."""

import json
import os

import pytest

from repro.campaign import (
    Campaign,
    CampaignConfig,
    CampaignReportWriter,
    MutationPlan,
    ResultCache,
    fingerprint_automaton,
    fingerprint_circuit,
    read_report,
    run_campaign,
    summarise_records,
)
from repro.campaign.plan import MUTATION_KINDS
from repro.campaign.report import REPORT_FIELDS
from repro.campaign.runner import execute_job
from repro.benchgen import build_family
from repro.circuits import Circuit
from repro.ta import basis_state_ta


def _config(tmp_path, **overrides) -> CampaignConfig:
    settings = dict(
        family="grover",
        mutants=4,
        mutation_kinds=("insert", "remove"),
        workers=1,
        report_path=str(tmp_path / "report.jsonl"),
        cache_dir=str(tmp_path / "cache"),
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


class TestFingerprints:
    def test_circuit_fingerprint_ignores_the_name(self):
        first = Circuit(2, name="a").add("h", 0).add("cx", 0, 1)
        second = Circuit(2, name="b").add("h", 0).add("cx", 0, 1)
        assert fingerprint_circuit(first) == fingerprint_circuit(second)

    def test_circuit_fingerprint_sees_gate_changes(self):
        first = Circuit(2).add("h", 0)
        second = Circuit(2).add("h", 1)
        assert fingerprint_circuit(first) != fingerprint_circuit(second)

    def test_automaton_fingerprint_is_stable_under_state_renaming(self):
        automaton = basis_state_ta(3, "010")
        assert fingerprint_automaton(automaton) == fingerprint_automaton(automaton.shifted(40))

    def test_automaton_fingerprint_distinguishes_languages(self):
        assert fingerprint_automaton(basis_state_ta(2, "00")) != fingerprint_automaton(
            basis_state_ta(2, "01")
        )


class TestMutationPlan:
    def test_jobs_are_deterministic(self):
        benchmark = build_family("grover")
        first = MutationPlan(num_mutants=6, kinds=MUTATION_KINDS, base_seed=3)
        second = MutationPlan(num_mutants=6, kinds=MUTATION_KINDS, base_seed=3)
        fingerprints = lambda plan: [job.circuit_fingerprint for job in plan.jobs(benchmark, "hybrid")]
        assert fingerprints(first) == fingerprints(second)

    def test_reference_job_is_included_once(self):
        benchmark = build_family("grover")
        jobs = MutationPlan(num_mutants=3).jobs(benchmark, "hybrid")
        kinds = [job.mutation_kind for job in jobs]
        assert kinds.count("reference") == 1
        assert len(jobs) == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MutationPlan(num_mutants=1, kinds=("teleport",))

    def test_inapplicable_mutation_falls_back_to_insert(self):
        single_qubit = Circuit(1).add("h", 0)
        plan = MutationPlan(num_mutants=2, kinds=("swap-operands",))
        kinds = [kind for _i, kind, _s, _m, _d in plan.mutants(single_qubit)]
        assert kinds == ["insert", "insert"]


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = ResultCache.key("c", "p", "hybrid")
        cache.put(key, {"verdict": "holds", "postcondition_fingerprint": "q"})
        assert cache.get(key, postcondition_fingerprint="q")["verdict"] == "holds"
        assert len(cache) == 1

    def test_postcondition_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = ResultCache.key("c", "p", "hybrid")
        cache.put(key, {"verdict": "holds", "postcondition_fingerprint": "q"})
        assert cache.get(key, postcondition_fingerprint="other") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = ResultCache.key("c", "p", "hybrid")
        with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(ResultCache.key("c", "p", "hybrid"), {})
        assert cache.clear() == 1
        assert len(cache) == 0


class TestReport:
    def test_writer_fills_missing_fields(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with CampaignReportWriter(path) as writer:
            writer.write({"job_id": "x", "verdict": "holds"})
        (record,) = read_report(path)
        assert set(record) == set(REPORT_FIELDS)
        assert record["witness"] is None

    def test_summarise_records(self):
        records = [
            {"verdict": "holds", "cached": True, "statistics": {"analysis_seconds": 1.0}},
            {"verdict": "violated", "cached": False, "statistics": {"analysis_seconds": 2.0}},
            {"verdict": "error", "cached": False, "statistics": None},
        ]
        summary = summarise_records(records, wall_seconds=5.0)
        assert summary["jobs"] == 3
        assert summary["holds"] == 1
        assert summary["violated"] == 1
        assert summary["errors"] == 1
        assert summary["cache_hits"] == 1
        # cached records carry the original run's timings; only fresh work counts
        assert summary["analysis_seconds"] == pytest.approx(2.0)
        assert summary["wall_seconds"] == 5.0


class TestExecuteJob:
    def test_broken_job_yields_an_error_record(self):
        import dataclasses

        benchmark = build_family("grover")
        (job,) = MutationPlan(num_mutants=0).jobs(benchmark, "hybrid")
        broken = dataclasses.replace(job, circuit_qasm="this is not qasm")
        record = execute_job(broken)
        assert record["verdict"] == "error"
        assert record["error"]


class TestCampaignRunner:
    def test_serial_campaign_end_to_end(self, tmp_path):
        summary = run_campaign(_config(tmp_path))
        assert summary.jobs == 5
        assert summary.errors == 0
        assert summary.cache_hits == 0
        assert summary.holds >= 1  # the reference triple holds
        records = read_report(str(tmp_path / "report.jsonl"))
        assert len(records) == 5
        assert all(set(record) == set(REPORT_FIELDS) for record in records)

    def test_second_run_hits_the_cache(self, tmp_path):
        run_campaign(_config(tmp_path))
        summary = run_campaign(_config(tmp_path))
        assert summary.cache_hits == summary.jobs == 5

    def test_parallel_matches_serial_verdicts(self, tmp_path):
        serial = run_campaign(_config(tmp_path, cache_dir="", report_path=str(tmp_path / "s.jsonl")))
        parallel = run_campaign(
            _config(tmp_path, cache_dir="", workers=2, report_path=str(tmp_path / "p.jsonl"))
        )
        verdict = lambda path: [(r["job_id"], r["verdict"]) for r in read_report(path)]
        assert verdict(str(tmp_path / "s.jsonl")) == verdict(str(tmp_path / "p.jsonl"))
        assert serial.jobs == parallel.jobs

    def test_cache_hit_from_another_seed_keeps_this_jobs_identity(self, tmp_path):
        # gate removal under different seeds often reproduces the same circuit,
        # so a cache hit can come from a different job of a previous campaign;
        # the report must still carry the *current* plan's identities
        base = dict(mutation_kinds=("remove",), mutants=8)
        run_campaign(_config(tmp_path, **base, seed=0))
        second = _config(tmp_path, **base, seed=100, report_path=str(tmp_path / "second.jsonl"))
        summary = run_campaign(second)
        assert summary.cache_hits > 0
        records = read_report(str(tmp_path / "second.jsonl"))
        expected = [job.job_id for job in Campaign(second).build_jobs()]
        assert [record["job_id"] for record in records] == expected
        for record in records:
            if record["mutation_kind"] != "reference":
                assert record["seed"] is not None and record["seed"] >= 100

    def test_identical_mutants_are_verified_once_per_run(self, tmp_path):
        # colliding mutation seeds produce identical circuits; only the first
        # occurrence of each (circuit, precondition, mode) key does real work
        config = _config(
            tmp_path, mutants=12, mutation_kinds=("remove",), cache_dir="",
            include_reference=False,
        )
        jobs = Campaign(config).build_jobs()
        unique_keys = {job.circuit_fingerprint for job in jobs}
        assert len(unique_keys) < len(jobs)  # the scenario actually collides
        run_campaign(config)
        records = read_report(config.report_path)
        assert [r["job_id"] for r in records] == [job.job_id for job in jobs]
        deduplicated = [r for r in records if r["deduplicated"]]
        assert len(deduplicated) == len(jobs) - len(unique_keys)
        by_fingerprint = {}
        for record in records:
            verdict = by_fingerprint.setdefault(record["circuit_fingerprint"], record["verdict"])
            assert record["verdict"] == verdict

    def test_broken_specification_flags_the_reference(self, tmp_path):
        campaign = Campaign(_config(tmp_path, cache_dir="", mutants=0))
        qubits = campaign.benchmark.num_qubits
        campaign.benchmark.postcondition = basis_state_ta(qubits, (1,) * qubits)
        summary = campaign.run()
        assert summary.reference_violated
        assert summary.holds == 0

    def test_intact_specification_does_not_flag_the_reference(self, tmp_path):
        summary = run_campaign(_config(tmp_path, cache_dir="", mutants=0))
        assert not summary.reference_violated

    def test_unsupported_reference_is_not_flagged_as_violated(self, tmp_path):
        # GHZ's H gate has no permutation encoding: the reference verdict is
        # "unsupported", which is neither an error nor a spec violation
        summary = run_campaign(
            _config(tmp_path, family="ghz", mode="permutation", mutants=0, cache_dir="")
        )
        assert summary.unsupported == 1
        assert summary.errors == 0
        assert not summary.reference_violated

    def test_unknown_family_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            Campaign(_config(tmp_path, family="grover2"))

    def test_disabled_cache_never_hits(self, tmp_path):
        config = _config(tmp_path, cache_dir="")
        run_campaign(config)
        summary = run_campaign(config)
        assert summary.cache_hits == 0

    def test_build_jobs_matches_mutant_count(self, tmp_path):
        campaign = Campaign(_config(tmp_path, mutants=7, include_reference=False))
        assert len(campaign.build_jobs()) == 7

    def test_invalid_worker_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _config(tmp_path, workers=0)

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _config(tmp_path, mode="turbo")


class TestCampaignStore:
    """The cross-process automaton store wired through the campaign runner."""

    def test_store_dir_resolution(self, tmp_path):
        from repro.campaign import resolve_store_dir
        from repro.ta import default_store_dir

        assert resolve_store_dir("", None) is None          # --no-cache: both off
        assert resolve_store_dir("", "") is None            # --no-store too
        assert resolve_store_dir("", str(tmp_path)) == str(tmp_path)  # explicit wins
        assert resolve_store_dir(str(tmp_path), None) == os.path.join(str(tmp_path), "store")
        assert resolve_store_dir(None, None) == default_store_dir()

    def test_second_run_reuses_the_store_across_simulated_processes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        # result cache off so every job actually verifies; store on explicitly
        first = run_campaign(_config(tmp_path, cache_dir="", store_dir=store_dir))
        assert first.store_publishes > 0
        assert first.store_hits + first.store_misses > 0

        # each run starts from a fresh private gate memo, which makes it a
        # fresh process as far as caches go: only the on-disk store survives
        warm = run_campaign(_config(tmp_path, cache_dir="", store_dir=store_dir,
                                    report_path=str(tmp_path / "warm.jsonl")))
        assert warm.store_hits > 0
        assert warm.store_misses == 0
        assert warm.store_publishes == 0
        assert (warm.holds, warm.violated, warm.errors) == (
            first.holds, first.violated, first.errors
        )

    def test_store_counters_flow_into_jsonl_records(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_campaign(_config(tmp_path, cache_dir="", store_dir=store_dir))
        records = read_report(str(tmp_path / "report.jsonl"))
        totals = {"store_hits": 0, "store_misses": 0, "store_publishes": 0}
        for record in records:
            statistics = record.get("statistics") or {}
            for key in totals:
                assert key in statistics
                totals[key] += statistics[key]
        assert totals["store_publishes"] > 0

    def test_campaign_runs_on_its_own_runtime(self, tmp_path):
        from repro.core.engine import default_gate_runtime

        worker_runtime = default_gate_runtime()
        seen = []
        config = _config(tmp_path, cache_dir="", store_dir=str(tmp_path / "store"))
        summary = Campaign(config).run(on_record=lambda _record: seen.append(
            (worker_runtime.store, worker_runtime.memo_stats()["size"])))
        assert summary.store_publishes > 0  # the run had a store of its own
        assert seen == [(None, 0)] * summary.jobs
        assert worker_runtime.store is None

    def test_a_passed_runtime_is_used_as_is(self, tmp_path):
        from repro.core.engine import GateRuntime

        runtime = GateRuntime()
        seen = []
        config = _config(tmp_path, cache_dir="", store_dir=str(tmp_path / "store"))
        summary = Campaign(config).run(
            runtime=runtime, on_record=lambda _record: seen.append(runtime.store))
        assert seen == [None] * summary.jobs
        assert runtime.store is None
        assert runtime.memo_stats()["size"] > 0
        assert summary.store_hits == summary.store_misses == summary.store_publishes == 0

    def test_disabled_store_records_nothing(self, tmp_path):
        summary = run_campaign(_config(tmp_path, cache_dir="", store_dir=""))
        assert summary.store_hits == summary.store_misses == summary.store_publishes == 0
