"""Tests for the campaign matrix scheduler and its sweep manifest."""

import json
import os
import time

import pytest

from repro.benchgen.families import (
    FAMILY_BUILDERS,
    FAMILY_CAPABILITIES,
    build_family,
    default_campaign_sizes,
    family_capability,
    validate_family_mode,
    validate_family_size,
)
from repro.campaign import (
    CampaignManifest,
    ManifestError,
    MatrixCell,
    MatrixRunResult,
    MatrixScheduler,
    MatrixSpec,
    estimate_cell_cost,
    format_cell_table,
    parse_sizes,
    read_report,
)
from repro.dist.queue import JobQueue, QueueLease


class TestFamilyCapabilities:
    def test_every_family_has_a_capability_record(self):
        assert set(FAMILY_CAPABILITIES) == set(FAMILY_BUILDERS)

    def test_default_campaign_sizes_are_valid(self):
        for family in FAMILY_BUILDERS:
            for size in default_campaign_sizes(family):
                validate_family_size(family, size)

    def test_capability_is_alias_aware(self):
        assert family_capability("grover") is family_capability("grover-single")

    def test_size_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            validate_family_size("grover", 1)

    def test_build_family_checks_the_size(self):
        # the check, not the builder, refuses it: every caller gets one message
        with pytest.raises(ValueError, match="family 'bv' needs size >= 1, got 0"):
            build_family("bv", 0)

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ValueError):
            validate_family_mode("grover", "permutation")
        assert validate_family_mode("mctoffoli", "permutation") == "permutation"

    def test_default_sizes_finish_fast_enough_for_campaigns(self):
        # every capability default must actually build (guards registry drift)
        for family in FAMILY_BUILDERS:
            capability = FAMILY_CAPABILITIES[family]
            assert capability.min_size <= min(capability.campaign_sizes)


class TestParseSizes:
    def test_single_int(self):
        assert parse_sizes(4) == (4,)

    def test_range_string(self):
        assert parse_sizes("2-5") == (2, 3, 4, 5)

    def test_comma_list_string(self):
        assert parse_sizes("5,3,3") == (3, 5)

    def test_mixed_list(self):
        assert parse_sizes([2, "4-5"]) == (2, 4, 5)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_sizes("5-2")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_sizes("two")
        with pytest.raises(ValueError):
            parse_sizes(True)


def _spec(**overrides) -> MatrixSpec:
    mapping = dict(
        families=["mctoffoli", "ghz"],
        sizes={"mctoffoli": [2], "ghz": [3]},
        modes=["hybrid"],
        mutants=2,
    )
    mapping.update(overrides)
    return MatrixSpec.from_mapping(mapping)


class TestMatrixSpec:
    def test_aliases_resolve(self):
        spec = MatrixSpec.from_mapping({"families": "grover", "sizes": 2})
        assert spec.families == ("grover-single",)

    def test_default_sizes_from_registry(self):
        spec = MatrixSpec.from_mapping({"families": ["ghz"]})
        assert spec.sizes["ghz"] == default_campaign_sizes("ghz")

    def test_shared_sizes_apply_to_every_family(self):
        spec = MatrixSpec.from_mapping({"families": ["mctoffoli", "ghz"], "sizes": "2-3"})
        assert spec.sizes["mctoffoli"] == spec.sizes["ghz"] == (2, 3)

    def test_nested_matrix_table_accepted(self):
        spec = MatrixSpec.from_mapping({"matrix": {"families": ["ghz"], "mutants": 7}})
        assert spec.mutants == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec keys"):
            MatrixSpec.from_mapping({"families": ["ghz"], "mutantz": 3})

    def test_sizes_for_unlisted_family_rejected(self):
        with pytest.raises(ValueError, match="not in 'families'"):
            MatrixSpec.from_mapping({"families": ["ghz"], "sizes": {"bv": 3}})

    def test_out_of_range_size_rejected(self):
        with pytest.raises(ValueError, match="needs size >="):
            MatrixSpec.from_mapping({"families": ["grover"], "sizes": 1})

    def test_unknown_mode_and_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis mode"):
            _spec(modes=["turbo"])
        with pytest.raises(ValueError, match="unknown mutation kind"):
            _spec(mutations=["teleport"])

    def test_cells_expand_in_spec_order(self):
        spec = _spec(sizes={"mctoffoli": "2-3", "ghz": [3]})
        assert [cell.cell_id for cell in spec.cells()] == [
            "mctoffoli-n2-hybrid",
            "mctoffoli-n3-hybrid",
            "ghz-n3-hybrid",
        ]

    def test_unsupported_combinations_are_skipped_not_fatal(self):
        spec = _spec(modes=["hybrid", "permutation"])
        ids = [cell.cell_id for cell in spec.cells()]
        assert "mctoffoli-n2-permutation" in ids
        assert "ghz-n3-permutation" not in ids
        assert ("ghz", "permutation") in spec.skipped_combinations()

    def test_fully_unsupported_sweep_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MatrixSpec.from_mapping(
                {"families": ["ghz"], "modes": ["permutation"]}
            ).cells()

    def test_fingerprint_tracks_content(self):
        assert _spec().fingerprint() == _spec().fingerprint()
        assert _spec().fingerprint() != _spec(mutants=3).fingerprint()
        assert _spec().default_campaign_id().startswith("mx-")

    def test_round_trips_through_to_dict(self):
        spec = _spec(mutations=["insert", "remove"], seed=9)
        rebuilt = MatrixSpec.from_mapping(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'families = ["mctoffoli"]\nmodes = ["hybrid"]\nmutants = 3\n\n'
            '[sizes]\nmctoffoli = "2-3"\n'
        )
        spec = MatrixSpec.from_file(str(path))
        assert spec.sizes["mctoffoli"] == (2, 3)
        assert spec.mutants == 3

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"families": ["ghz"], "sizes": [3, 4]}))
        assert MatrixSpec.from_file(str(path)).sizes["ghz"] == (3, 4)

    def test_bad_toml_is_a_value_error(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text("families = [unclosed")
        with pytest.raises(ValueError):
            MatrixSpec.from_file(str(path))

    def test_example_spec_file_parses(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = MatrixSpec.from_file(os.path.join(repo_root, "examples", "matrix_sweep.toml"))
        assert spec.cells()


class TestCostOrdering:
    def test_bigger_sizes_cost_more(self):
        small = MatrixCell("ghz", 3, "hybrid", 5)
        large = MatrixCell("ghz", 6, "hybrid", 5)
        assert estimate_cell_cost(small) < estimate_cell_cost(large)

    def test_composition_costs_more_than_permutation(self):
        base = dict(family="mctoffoli", size=3, mutants=5)
        assert estimate_cell_cost(MatrixCell(mode="permutation", **base)) < estimate_cell_cost(
            MatrixCell(mode="composition", **base)
        )


class TestManifest:
    def test_create_load_round_trip(self, tmp_path):
        manifest = CampaignManifest.create(
            str(tmp_path), "mx-test", {"families": ["ghz"]}, "fp", ["a", "b"]
        )
        loaded = CampaignManifest.load(str(tmp_path), "mx-test")
        assert loaded.spec == {"families": ["ghz"]}
        assert loaded.cell_ids == ["a", "b"]
        assert manifest.path == loaded.path
        # the file is the sweep record only: no per-cell state
        with open(manifest.path) as handle:
            assert json.load(handle)["cells"] == ["a", "b"]

    def test_version_one_cell_mapping_loads_as_its_ids(self, tmp_path):
        # manifests written before the queue became the only record of cell
        # state map each cell id to its lease state
        path = CampaignManifest.path_for(str(tmp_path), "mx-old")
        with open(path, "w") as handle:
            json.dump({"version": 1, "campaign_id": "mx-old", "spec": {},
                       "spec_fingerprint": "fp", "cells": {
                           "b": {"status": "done", "summary": {"jobs": 3}},
                           "a": {"status": "running", "attempts": 2,
                                 "owner": {"pid": 1, "host": "h", "heartbeat": 0.0}},
                       }}, handle)
        assert CampaignManifest.load(str(tmp_path), "mx-old").cell_ids == ["b", "a"]

    def test_malformed_cells_field_is_an_error(self, tmp_path):
        path = CampaignManifest.path_for(str(tmp_path), "mx-bad")
        with open(path, "w") as handle:
            json.dump({"campaign_id": "mx-bad", "spec": {}, "spec_fingerprint": "fp",
                       "cells": 3}, handle)
        with pytest.raises(ManifestError, match="malformed"):
            CampaignManifest.load(str(tmp_path), "mx-bad")

    def test_missing_manifest_is_an_error(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest"):
            CampaignManifest.load(str(tmp_path), "mx-nope")

    def test_corrupt_manifest_is_an_error(self, tmp_path):
        path = CampaignManifest.path_for(str(tmp_path), "mx-bad")
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("{broken")
        with pytest.raises(ManifestError, match="cannot read"):
            CampaignManifest.load(str(tmp_path), "mx-bad")

    def test_fingerprint_mismatch_is_an_error(self, tmp_path):
        manifest = CampaignManifest.create(str(tmp_path), "mx-test", {}, "fp-one", ["a"])
        manifest.check_fingerprint("fp-one")
        with pytest.raises(ManifestError, match="different sweep spec"):
            manifest.check_fingerprint("fp-two")

    def test_default_manifest_dir_matches_its_documentation(self, monkeypatch):
        from repro.campaign.manifest import MANIFEST_DIR_ENV, default_manifest_dir

        monkeypatch.setenv(MANIFEST_DIR_ENV, "/tmp/custom-manifests")
        assert default_manifest_dir() == "/tmp/custom-manifests"
        monkeypatch.delenv(MANIFEST_DIR_ENV)
        expected_suffix = os.path.join(".cache", "autoq-repro", "manifests")
        assert default_manifest_dir().endswith(expected_suffix)


def _states(manifest_dir, manifest):
    """The queue view of every cell of a manifest."""
    return JobQueue(str(manifest_dir), manifest.campaign_id).cell_states(manifest.cell_ids)


def _scheduler(tmp_path, spec, **overrides) -> MatrixScheduler:
    settings = dict(
        workers=1,
        report_dir=str(tmp_path / "reports"),
        manifest_dir=str(tmp_path / "manifests"),
        cache_dir="",  # isolate manifest semantics from the result cache
    )
    settings.update(overrides)
    return MatrixScheduler(spec, **settings)


class TestMatrixScheduler:
    @pytest.mark.parametrize("start", [
        lambda **settings: MatrixScheduler(_spec(), **settings).run(),
        lambda **settings: MatrixScheduler.resume("mx-nightly", **settings).run(resume=True),
        lambda **settings: MatrixScheduler.join("mx-nightly", **settings).run_join(),
    ], ids=["fresh", "resume", "join"])
    def test_url_store_is_refused_before_anything_is_read_or_written(self, start, tmp_path):
        manifests, reports = tmp_path / "manifests", tmp_path / "reports"
        with pytest.raises(ValueError, match="is a URL"):
            start(store_dir="http://127.0.0.1:8642", manifest_dir=str(manifests),
                  report_dir=str(reports))
        assert not manifests.exists() and not reports.exists()

    def test_in_process_cells_share_one_runtime_per_run(self, tmp_path, monkeypatch):
        import repro.campaign.runner as runner_module
        from repro.core.engine import default_gate_runtime

        real_execute = runner_module.execute_job
        runtimes = []

        def recording(job, runtime=None):
            runtimes.append(runtime)
            return real_execute(job, runtime)

        monkeypatch.setattr(runner_module, "execute_job", recording)
        spec = _spec(sizes={"mctoffoli": "2-3", "ghz": [3]})
        scheduler = _scheduler(tmp_path, spec, store_dir=str(tmp_path / "store"))
        per_run = []
        for _ in range(2):
            runtimes.clear()
            scheduler.run()
            assert len(runtimes) == 3 * (spec.mutants + 1)
            assert all(runtime is runtimes[0] for runtime in runtimes)
            per_run.append(runtimes[0])
        first, second = per_run
        assert first is not second
        assert first is not default_gate_runtime()
        assert first.store is not None  # the run's own runtime, on the sweep's store

    def test_end_to_end_sweep(self, tmp_path):
        spec = _spec(sizes={"mctoffoli": "2-3", "ghz": [3]})
        result = _scheduler(tmp_path, spec).run()
        assert [row["cell"] for row in result.rows] == [c.cell_id for c in spec.cells()]
        assert result.totals["jobs"] == sum(row["jobs"] for row in result.rows)
        assert result.totals["jobs"] == 3 * (spec.mutants + 1)
        assert result.reused_cells == 0
        assert result.trustworthy
        # per-cell JSONL reports exist and are well-formed
        for row in result.rows:
            records = read_report(row["report_path"])
            assert len(records) == row["jobs"]
        # the roll-up JSON mirrors the in-memory result
        with open(result.summary_path) as handle:
            rollup = json.load(handle)
        assert rollup["totals"] == result.totals
        assert rollup["campaign_id"] == result.campaign_id
        # every cell of the manifest has a result in the queue
        manifest = CampaignManifest.load(str(tmp_path / "manifests"), result.campaign_id)
        states = _states(tmp_path / "manifests", manifest)
        assert {state.status for state in states.values()} == {"done"}

    def test_run_writes_the_manifest_once_and_a_resume_never(self, tmp_path, monkeypatch):
        saves = []
        real_save = CampaignManifest.save
        monkeypatch.setattr(CampaignManifest, "save",
                            lambda manifest: (saves.append(manifest.path),
                                              real_save(manifest))[1])
        spec = _spec(sizes={"mctoffoli": "2-3", "ghz": [3]}, mutants=1)
        first = _scheduler(tmp_path, spec).run()
        assert saves == [first.manifest_path]
        _scheduler(tmp_path, spec).run(resume=True)
        assert saves == [first.manifest_path]

    def test_cells_run_cheapest_first(self, tmp_path):
        spec = _spec(sizes={"mctoffoli": [2], "ghz": [5]})
        seen = []
        _scheduler(tmp_path, spec).run(progress=seen.append)
        cell_lines = [line for line in seen if line.startswith("[")]
        assert "mctoffoli-n2-hybrid" in cell_lines[0]
        assert "ghz-n5-hybrid" in cell_lines[1]

    def test_mid_cell_kill_then_resume_matches_uninterrupted_run(self, tmp_path, monkeypatch):
        spec = _spec(sizes={"mctoffoli": "2-3", "ghz": [3]}, mutants=3)

        # uninterrupted baseline, fully separate state directories
        baseline = _scheduler(tmp_path / "baseline", spec).run()

        # kill the sweep in the middle of its second cell: execute_job raises
        # once the first cell (mutants+1 jobs) and one more job have run
        import repro.campaign.runner as runner_module

        real_execute = runner_module.execute_job
        calls = {"count": 0}

        def dying_execute(job, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] == spec.mutants + 2:
                raise KeyboardInterrupt
            return real_execute(job, *args, **kwargs)

        monkeypatch.setattr(runner_module, "execute_job", dying_execute)
        scheduler = _scheduler(tmp_path / "resumed", spec)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        monkeypatch.setattr(runner_module, "execute_job", real_execute)

        manifest = CampaignManifest.load(scheduler.manifest_dir, scheduler.campaign_id)
        statuses = sorted(state.status for state in
                          _states(scheduler.manifest_dir, manifest).values())
        assert statuses == ["done", "interrupted", "pending"]

        # resume: the done cell must not re-run a single job
        calls["count"] = 0
        counting = lambda job, *args, **kwargs: (
            calls.__setitem__("count", calls["count"] + 1),
            real_execute(job, *args, **kwargs),
        )[1]
        monkeypatch.setattr(runner_module, "execute_job", counting)
        seen = []
        result = _scheduler(tmp_path / "resumed", spec,
                            campaign_id=scheduler.campaign_id).run(
                                resume=True, progress=seen.append)
        assert result.reused_cells == 1
        # the interrupted cell is re-claimed at the next claim generation
        assert any(line.strip().startswith("(attempt 2") for line in seen)
        remaining_cells = len(spec.cells()) - 1
        assert calls["count"] == remaining_cells * (spec.mutants + 1)

        # the final summary equals the uninterrupted run's
        def comparable(rows):
            keys = ("cell", "jobs", "holds", "violated", "unsupported", "errors")
            return [{key: row[key] for key in keys} for row in rows]

        assert comparable(result.rows) == comparable(baseline.rows)
        for key in ("jobs", "holds", "violated", "unsupported", "errors"):
            assert result.totals[key] == baseline.totals[key]

    def test_coordinator_waits_on_a_live_claim_then_merges_its_result(
            self, tmp_path, monkeypatch):
        import repro.campaign.runner as runner_module
        import repro.campaign.scheduler as scheduler_module

        spec = _spec()
        solo = _scheduler(tmp_path / "solo", spec).run()
        solo_queue = JobQueue(str(tmp_path / "solo" / "manifests"), solo.campaign_id)

        scheduler = _scheduler(tmp_path, spec)
        scheduler.plan()
        queue = JobQueue(scheduler.manifest_dir, scheduler.campaign_id)
        held = spec.cells()[0].cell_id
        # another live worker (fresh heartbeat, other host) holds one cell
        foreign = {"pid": 4242, "host": "elsewhere.example", "heartbeat": time.time()}
        os.makedirs(queue.claim_dir)
        claim_path = os.path.join(queue.claim_dir, f"{held}.t1.json")
        with open(claim_path, "w") as handle:
            json.dump({"cell_id": held, "token": 1, "lease": foreign}, handle)

        # ... and publishes that cell's result while the coordinator waits
        naps = []

        def publish_while_waiting(seconds):
            naps.append(seconds)
            lease = QueueLease(cell_id=held, token=1, path=claim_path, owner=foreign)
            assert queue.complete(lease, solo_queue.result(held)["summary"]) == "accepted"

        monkeypatch.setattr(scheduler_module.time, "sleep", publish_while_waiting)
        executed = []
        real_execute = runner_module.execute_job
        monkeypatch.setattr(runner_module, "execute_job", lambda job, *args, **kwargs: (
            executed.append(job), real_execute(job, *args, **kwargs))[1])
        seen = []
        result = _scheduler(tmp_path, spec).run(resume=True, progress=seen.append)

        assert naps == [scheduler_module.FABRIC_POLL_SECONDS]
        assert any("held by a live worker" in line and held in line for line in seen)
        # the held cell was merged, never executed here
        assert not any(line.startswith("[") and held in line for line in seen)
        assert len(executed) == (len(spec.cells()) - 1) * (spec.mutants + 1)
        with open(result.summary_path) as handle:
            rollup = json.load(handle)
        assert rollup["merged_cells"] == 1
        assert rollup["reused_cells"] == 0

        def verdicts(rows):
            keys = ("cell", "jobs", "holds", "violated", "unsupported", "errors")
            return [{key: row[key] for key in keys} for row in rows]

        assert verdicts(result.rows) == verdicts(solo.rows)
        for key in ("jobs", "holds", "violated", "unsupported", "errors"):
            assert result.totals[key] == solo.totals[key]

    def test_resume_without_manifest_is_an_error(self, tmp_path):
        with pytest.raises(ManifestError):
            MatrixScheduler.resume("mx-missing", manifest_dir=str(tmp_path / "manifests"))

    def test_resume_with_changed_spec_is_an_error(self, tmp_path):
        scheduler = _scheduler(tmp_path, _spec())
        scheduler.run()
        changed = _scheduler(tmp_path, _spec(mutants=9),
                             campaign_id=scheduler.campaign_id)
        with pytest.raises(ManifestError, match="different sweep spec"):
            changed.run(resume=True)

    def test_resume_rebuilds_spec_from_manifest(self, tmp_path):
        scheduler = _scheduler(tmp_path, _spec())
        first = scheduler.run()
        resumed = MatrixScheduler.resume(
            scheduler.campaign_id,
            report_dir=str(tmp_path / "reports"),
            manifest_dir=str(tmp_path / "manifests"),
            cache_dir="",
        )
        assert resumed.spec == scheduler.spec
        result = resumed.run(resume=True)
        assert result.reused_cells == len(scheduler.spec.cells())
        assert result.totals == first.totals

    def test_fresh_run_overwrites_a_finished_manifest(self, tmp_path):
        scheduler = _scheduler(tmp_path, _spec())
        scheduler.run()
        result = _scheduler(tmp_path, _spec()).run()  # same id, no resume
        assert result.reused_cells == 0

    def test_invalid_worker_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _scheduler(tmp_path, _spec(), workers=0)

    def test_workers_share_a_pool_across_cells(self, tmp_path):
        spec = _spec(mutants=3)
        result = _scheduler(tmp_path, spec, workers=2).run()
        assert result.trustworthy
        assert result.totals["jobs"] == 2 * (spec.mutants + 1)

    def test_permutation_cells_count_unsupported_mutants(self, tmp_path):
        # inserting e.g. an H gate into a permutation-mode mctoffoli campaign
        # must surface as "unsupported", never as an error
        spec = MatrixSpec.from_mapping({
            "families": ["mctoffoli"], "sizes": [2], "modes": ["permutation"],
            "mutants": 8,
        })
        result = _scheduler(tmp_path, spec).run()
        assert result.totals["errors"] == 0
        assert result.totals["unsupported"] > 0
        assert result.trustworthy


class TestFormatCellTable:
    def test_table_contains_rows_and_totals(self):
        rows = [{
            "cell": "ghz-n3-hybrid", "jobs": 4, "holds": 2, "violated": 2,
            "unsupported": 0, "errors": 0, "cache_hits": 1,
            "wall_seconds": 0.25, "reused": True, "reference_violated": False,
        }]
        totals = {"jobs": 4, "holds": 2, "violated": 2, "unsupported": 0,
                  "errors": 0, "cache_hits": 1, "wall_seconds": 0.25}
        table = format_cell_table(rows, totals)
        assert "ghz-n3-hybrid" in table
        assert "resumed" in table
        assert "total" in table
        assert "0.25" in table

    def test_reference_violation_is_flagged(self):
        rows = [{"cell": "x", "jobs": 1, "holds": 0, "violated": 1, "unsupported": 0,
                 "errors": 0, "cache_hits": 0, "wall_seconds": 0.0,
                 "reused": False, "reference_violated": True}]
        assert "REF-VIOLATED" in format_cell_table(rows)


class TestMatrixRunResult:
    def test_trustworthy_accounting(self):
        base = dict(campaign_id="mx", manifest_path="m", summary_path="s",
                    reused_cells=0, skipped_combinations=[], wall_seconds=0.0)
        good = MatrixRunResult(rows=[{"reference_violated": False}],
                               totals={"errors": 0}, **base)
        assert good.trustworthy
        errored = MatrixRunResult(rows=[{"reference_violated": False}],
                                  totals={"errors": 1}, **base)
        assert not errored.trustworthy
        ref = MatrixRunResult(rows=[{"reference_violated": True}],
                              totals={"errors": 0}, **base)
        assert not ref.trustworthy


class TestResumeSurvivesEvictedCaches:
    """``campaign --resume`` must recompute, not error, when the result cache
    and/or automaton store directories were deleted between runs (a cache
    eviction, a cleaned /tmp, a different machine)."""

    def test_resume_with_deleted_cache_and_store_dir(self, tmp_path, monkeypatch):
        import shutil

        import repro.campaign.runner as runner_module

        spec = _spec(sizes={"mctoffoli": "2-3", "ghz": [3]}, mutants=2)
        cache_dir = tmp_path / "cache"

        # kill the sweep inside its second cell, with caching + store enabled
        real_execute = runner_module.execute_job
        calls = {"count": 0}

        def dying_execute(job, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] == spec.mutants + 2:
                raise KeyboardInterrupt
            return real_execute(job, *args, **kwargs)

        monkeypatch.setattr(runner_module, "execute_job", dying_execute)
        scheduler = _scheduler(tmp_path, spec, cache_dir=str(cache_dir))
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        monkeypatch.setattr(runner_module, "execute_job", real_execute)
        assert (cache_dir / "store").is_dir()

        # evict everything the interrupted run persisted except the manifest
        shutil.rmtree(cache_dir)

        result = _scheduler(tmp_path, spec, cache_dir=str(cache_dir),
                            campaign_id=scheduler.campaign_id).run(resume=True)
        assert result.reused_cells == 1
        assert result.totals["errors"] == 0
        assert result.totals["jobs"] == sum(cell.mutants + 1 for cell in spec.cells())
        # the resumed run re-verified (and re-published) instead of erroring
        assert (cache_dir / "store").is_dir()

    def test_resume_with_store_path_blocked_by_a_file(self, tmp_path, monkeypatch):
        # a *file* squatting on the store path must degrade to "no store",
        # never crash the sweep
        import repro.campaign.runner as runner_module

        spec = _spec(sizes={"mctoffoli": [2]}, mutants=1)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "store").write_text("not a directory")

        result = _scheduler(tmp_path, spec, cache_dir=str(cache_dir)).run()
        assert result.totals["errors"] == 0
        assert result.totals["store_hits"] == 0
        assert result.totals["store_publishes"] == 0
