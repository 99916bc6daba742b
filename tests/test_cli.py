"""Tests for the ``autoq-repro`` command-line interface."""

import json
import os

import pytest

from repro.circuits import Circuit, save_qasm_file, to_qasm
from repro.cli import build_parser, main


@pytest.fixture
def bell_qasm(tmp_path):
    path = tmp_path / "bell.qasm"
    save_qasm_file(Circuit(2).add("h", 0).add("cx", 0, 1), str(path))
    return str(path)


@pytest.fixture
def buggy_bell_qasm(tmp_path):
    path = tmp_path / "bell_buggy.qasm"
    save_qasm_file(Circuit(2).add("h", 0).add("cx", 0, 1).add("z", 1), str(path))
    return str(path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_arguments(self):
        args = build_parser().parse_args(["verify", "--family", "bv", "--size", "5"])
        assert args.family == "bv"
        assert args.size == 5

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--family", "shor", "--size", "5"])


class TestVerifyCommand:
    def test_bv_verification_succeeds(self, capsys):
        assert main(["verify", "--family", "bv", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out
        assert "BV(n=4)" in out

    def test_mctoffoli_verification_succeeds(self, capsys):
        assert main(["verify", "--family", "mctoffoli", "--size", "3"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_grover_single_verification(self, capsys):
        assert main(["verify", "--family", "grover-single", "--size", "2"]) == 0
        assert "HOLDS" in capsys.readouterr().out


class TestSimulateCommand:
    def test_simulate_default_input(self, bell_qasm, capsys):
        assert main(["simulate", bell_qasm]) == 0
        out = capsys.readouterr().out
        assert "|00>" in out and "|11>" in out

    def test_simulate_custom_input(self, bell_qasm, capsys):
        assert main(["simulate", bell_qasm, "--input", "10"]) == 0
        assert "|11>" in capsys.readouterr().out


class TestEquivalenceCommand:
    def test_equivalent_circuits(self, bell_qasm, capsys):
        assert main(["equivalence", bell_qasm, bell_qasm]) == 0
        assert "coincide" in capsys.readouterr().out

    def test_non_equivalent_circuits(self, bell_qasm, buggy_bell_qasm, capsys):
        assert main(["equivalence", bell_qasm, buggy_bell_qasm]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    def test_single_input_restriction(self, bell_qasm, buggy_bell_qasm, capsys):
        assert main(["equivalence", bell_qasm, buggy_bell_qasm, "--single-input", "00"]) == 1


class TestBughuntCommand:
    def test_hunt_between_two_files(self, bell_qasm, buggy_bell_qasm, capsys):
        assert main(["bughunt", bell_qasm, buggy_bell_qasm]) == 1
        out = capsys.readouterr().out
        assert "BUG FOUND" in out

    def test_hunt_with_injected_bug(self, bell_qasm, capsys):
        exit_code = main(["bughunt", bell_qasm, "--inject-seed", "3"])
        out = capsys.readouterr().out
        assert "injected bug" in out
        assert exit_code in (0, 1)

    def test_hunt_without_candidate_is_an_error(self, bell_qasm, capsys):
        assert main(["bughunt", bell_qasm]) == 2

    def test_hunt_identical_circuits(self, bell_qasm, capsys):
        assert main(["bughunt", bell_qasm, bell_qasm, "--max-iterations", "2"]) == 0
        assert "no difference" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_ghz_circuit(self, tmp_path, capsys):
        output = tmp_path / "ghz.qasm"
        assert main(["generate", "--family", "ghz", "--size", "5", str(output)]) == 0
        assert "GHZ(n=5)" in capsys.readouterr().out
        from repro.circuits import load_qasm_file

        circuit = load_qasm_file(str(output))
        assert circuit.num_qubits == 5
        assert circuit.count_kind("cx") == 4

    def test_generate_qft_circuit_round_trips_through_qasm(self, tmp_path):
        output = tmp_path / "qft.qasm"
        assert main(["generate", "--family", "qft-zero", "--size", "4", str(output)]) == 0
        from repro.circuits import load_qasm_file

        circuit = load_qasm_file(str(output))
        assert circuit.count_kind("cs") == 3

    def test_new_families_are_verifiable(self, capsys):
        assert main(["verify", "--family", "ghz", "--size", "4"]) == 0
        assert "HOLDS" in capsys.readouterr().out
        assert main(["verify", "--family", "qft-zero", "--size", "3"]) == 0
        assert "HOLDS" in capsys.readouterr().out


class TestInjectCommand:
    def test_inject_writes_a_mutated_copy(self, bell_qasm, tmp_path, capsys):
        output = tmp_path / "buggy.qasm"
        assert main(["inject", bell_qasm, str(output), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "injected bug" in out
        from repro.circuits import load_qasm_file

        original = load_qasm_file(bell_qasm)
        mutated = load_qasm_file(str(output))
        assert mutated.num_gates == original.num_gates + 1


class TestStatsCommand:
    def test_stats_reports_histogram(self, bell_qasm, capsys):
        assert main(["stats", bell_qasm]) == 0
        out = capsys.readouterr().out
        assert "qubits:   2" in out
        assert "h" in out and "cx" in out
        assert "composition-based encoding" in out


class TestExportTaCommand:
    def test_export_precondition_in_timbuk_format(self, tmp_path, capsys):
        output = tmp_path / "pre.timbuk"
        assert main(["export-ta", "--family", "bv", "--size", "4", str(output)]) == 0
        assert "pre-condition" in capsys.readouterr().out
        from repro.ta.timbuk import load_timbuk

        automaton = load_timbuk(str(output))
        assert automaton.num_qubits == 5  # n data qubits + 1 ancilla

    def test_export_postcondition(self, tmp_path):
        output = tmp_path / "post.timbuk"
        assert main(["export-ta", "--family", "ghz", "--size", "3", "--which", "post", str(output)]) == 0
        from repro.states import QuantumState
        from repro.benchgen import ghz_state
        from repro.ta.timbuk import load_timbuk

        automaton = load_timbuk(str(output))
        assert automaton.accepts(ghz_state(3))
        assert not automaton.accepts(QuantumState.zero_state(3))


class TestCampaignCommand:
    def _argv(self, tmp_path, *extra):
        return [
            "campaign",
            "--family", "grover",
            "--mutants", "5",
            "--report", str(tmp_path / "report.jsonl"),
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ]

    def test_campaign_produces_a_jsonl_report(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Grover-Sing" in out
        assert "jobs:      6" in out
        import json

        with open(tmp_path / "report.jsonl") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == 6  # reference + 5 mutants
        from repro.campaign.report import REPORT_FIELDS

        for record in records:
            assert set(record) == set(REPORT_FIELDS)
            assert record["verdict"] in ("holds", "violated", "error")
            assert record["statistics"]["gates_total"] > 0

    def test_second_run_hits_the_cache(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "cache:     6 hit(s)" in out

    def test_worker_count_flag_is_honoured(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--workers", "2", "--no-cache")) == 0
        out = capsys.readouterr().out
        assert "2 worker(s)" in out
        assert "jobs:      6" in out

    def test_unknown_mutation_kind_is_an_error(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--mutations", "teleport")) == 2
        assert "error" in capsys.readouterr().err

    def test_skip_reference_flag(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--skip-reference", "--no-cache")) == 0
        assert "jobs:      5" in capsys.readouterr().out

    @staticmethod
    def _fake_campaign(monkeypatch, **summary_overrides):
        """Stub out the campaign machinery behind Session.run(CampaignProblem)."""
        import repro.api.session as session_module
        from repro.campaign.runner import CampaignSummary

        class FakeCampaign:
            def __init__(self, config):
                self.config = config

            def run(self, pool=None, runtime=None, on_record=None):
                fields = dict(
                    benchmark="Grover-Sing(n=2)", mode="hybrid", workers=1, jobs=6,
                    holds=0, violated=0, errors=0, cache_hits=0,
                    analysis_seconds=0.0, wall_seconds=0.0,
                    report_path=self.config.report_path,
                )
                fields.update(summary_overrides)
                return CampaignSummary(**fields)

        monkeypatch.setattr(session_module, "Campaign", FakeCampaign)

    def test_job_errors_yield_nonzero_exit(self, tmp_path, capsys, monkeypatch):
        self._fake_campaign(monkeypatch, errors=6)
        assert main(self._argv(tmp_path)) == 1
        assert "errors: 6" in capsys.readouterr().out

    def test_violated_reference_yields_nonzero_exit(self, tmp_path, capsys, monkeypatch):
        self._fake_campaign(monkeypatch, violated=6, reference_violated=True)
        assert main(self._argv(tmp_path)) == 1
        assert "reference circuit violates" in capsys.readouterr().err


class TestCampaignMatrixCommand:
    def _argv(self, tmp_path, *extra):
        return [
            "campaign",
            "--report-dir", str(tmp_path / "reports"),
            "--manifest-dir", str(tmp_path / "manifests"),
            "--no-cache",
            *extra,
        ]

    @pytest.fixture
    def sweep_toml(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'families = ["mctoffoli", "ghz"]\nmodes = ["hybrid"]\nmutants = 2\n\n'
            '[sizes]\nmctoffoli = [2]\nghz = [3]\n'
        )
        return str(path)

    def test_matrix_sweep_prints_cell_table(self, tmp_path, sweep_toml, capsys):
        assert main(self._argv(tmp_path, "--matrix", sweep_toml)) == 0
        out = capsys.readouterr().out
        assert "mctoffoli-n2-hybrid" in out
        assert "ghz-n3-hybrid" in out
        assert "total" in out
        assert "summary.json" in out

    def test_resume_reuses_completed_cells(self, tmp_path, sweep_toml, capsys):
        assert main(self._argv(tmp_path, "--matrix", sweep_toml)) == 0
        out = capsys.readouterr().out
        campaign_id = next(word for word in out.split() if word.startswith("mx-"))
        assert main(self._argv(tmp_path, "--resume", campaign_id)) == 0
        out = capsys.readouterr().out
        assert "2 cell(s) reused from the queue" in out
        assert "resumed" in out

    def test_inline_flags_build_a_sweep(self, tmp_path, capsys):
        argv = self._argv(tmp_path, "--families", "mctoffoli", "--sizes", "2-3",
                          "--modes", "hybrid,permutation", "--mutants", "2")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mctoffoli-n2-permutation" in out
        assert "mctoffoli-n3-hybrid" in out

    def test_unsupported_combination_warns_but_runs(self, tmp_path, capsys):
        argv = self._argv(tmp_path, "--families", "mctoffoli,ghz", "--sizes", "2",
                          "--modes", "permutation", "--mutants", "1")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "skipping ghz x permutation" in captured.err
        assert "mctoffoli-n2-permutation" in captured.out

    def test_family_flag_conflicts_with_matrix_mode(self, tmp_path, sweep_toml, capsys):
        argv = self._argv(tmp_path, "--matrix", sweep_toml, "--family", "ghz")
        assert main(argv) == 2
        assert "--families" in capsys.readouterr().err

    def test_campaign_without_any_selection_is_an_error(self, capsys):
        assert main(["campaign"]) == 2
        assert "needs --family" in capsys.readouterr().err

    def test_resume_of_unknown_campaign_is_an_error(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--resume", "mx-doesnotexist")) == 2
        assert "no manifest" in capsys.readouterr().err

    def test_resume_cannot_change_spec_fields(self, tmp_path, capsys):
        argv = self._argv(tmp_path, "--resume", "mx-x", "--mutants", "9")
        assert main(argv) == 2
        assert "cannot change" in capsys.readouterr().err

    def test_conflicting_resume_and_campaign_id_rejected(self, tmp_path, capsys):
        argv = self._argv(tmp_path, "--families", "ghz", "--resume", "mx-a",
                          "--campaign-id", "mx-b")
        assert main(argv) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_bad_spec_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "sweep.toml"
        path.write_text("families = [unclosed")
        assert main(self._argv(tmp_path, "--matrix", str(path))) == 2
        assert "error" in capsys.readouterr().err


class TestBaselinesCommand:
    def test_baselines_agree_on_identical_circuits(self, bell_qasm, capsys):
        assert main(["baselines", bell_qasm, bell_qasm]) == 0
        out = capsys.readouterr().out
        assert "path-sum" in out and "stabilizer" in out and "stimuli" in out

    def test_baselines_detect_clifford_bug(self, bell_qasm, buggy_bell_qasm, capsys):
        assert main(["baselines", bell_qasm, buggy_bell_qasm]) == 1
        out = capsys.readouterr().out
        assert "not_equal" in out


class TestCampaignLsCommand:
    def _manifest_dir(self, tmp_path):
        return str(tmp_path / "manifests")

    def _run_sweep(self, tmp_path):
        argv = [
            "campaign", "--families", "mctoffoli", "--sizes", "2", "--modes", "hybrid",
            "--mutants", "2", "--no-cache",
            "--report-dir", str(tmp_path / "reports"),
            "--manifest-dir", self._manifest_dir(tmp_path),
        ]
        assert main(argv) == 0

    def test_ls_lists_completed_campaigns(self, tmp_path, capsys):
        self._run_sweep(tmp_path)
        capsys.readouterr()
        assert main(["campaign", "ls", "--manifest-dir", self._manifest_dir(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mx-" in out
        assert "complete" in out
        assert "1/1" in out  # one cell, done
        # the verdict totals come from the stored cell summaries
        assert "3" in out  # 2 mutants + the reference

    def test_ls_reports_resumable_campaigns(self, tmp_path, capsys):
        from repro.campaign import CampaignManifest
        from repro.dist import JobQueue

        directory = self._manifest_dir(tmp_path)
        CampaignManifest.create(
            directory, "mx-partial", {"families": ["ghz"]}, "fp", ["cell-a", "cell-b", "cell-c"]
        )
        queue = JobQueue(directory, "mx-partial")
        queue.claim("cell-a")  # our own pid: reads as interrupted
        queue.complete(queue.claim("cell-b"), {"jobs": 5, "holds": 4, "violated": 1,
                                               "unsupported": 0, "errors": 0})
        assert main(["campaign", "ls", "--manifest-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "mx-partial" in out
        assert "resumable" in out
        assert "1 interrupted" in out
        assert "1 pending" in out
        assert "1/3" in out

    def _ls_json(self, capsys, directory):
        import json

        capsys.readouterr()
        assert main(["campaign", "ls", "--manifest-dir", directory, "--json"]) == 0
        campaigns = json.loads(capsys.readouterr().out)["data"]["campaigns"]
        return {row["campaign_id"]: row for row in campaigns}

    @staticmethod
    def _bv_spec():
        from repro.campaign import MatrixSpec

        return MatrixSpec.from_mapping({"families": ["bv"], "sizes": "2-4", "mutants": 2})

    def _planned(self, tmp_path, campaign_id):
        from repro.campaign import MatrixScheduler

        scheduler = MatrixScheduler(
            self._bv_spec(), report_dir=str(tmp_path / "reports"),
            manifest_dir=self._manifest_dir(tmp_path), cache_dir="",
            campaign_id=campaign_id)
        scheduler.plan()
        return scheduler

    def test_ls_counts_cells_a_joiner_finished_and_holds(self, tmp_path, capsys):
        import os
        import time

        from repro.campaign import MatrixScheduler
        from repro.dist import JobQueue

        directory = self._manifest_dir(tmp_path)
        self._planned(tmp_path, "mx-joined")
        joined = MatrixScheduler.join(
            "mx-joined", report_dir=str(tmp_path / "join-reports"),
            manifest_dir=directory, cache_dir="").run_join()
        assert joined.cells_executed == 3
        # a second campaign: another host's worker holds one cell right now
        held = self._planned(tmp_path, "mx-held").spec.cells()[0].cell_id
        queue = JobQueue(directory, "mx-held")
        os.makedirs(queue.claim_dir, exist_ok=True)
        with open(os.path.join(queue.claim_dir, f"{held}.t1.json"), "w") as handle:
            handle.write('{"lease": {"pid": 4242, "host": "elsewhere.example", '
                         f'"heartbeat": {time.time()}}}}}')

        rows = self._ls_json(capsys, directory)
        drained = rows["mx-joined"]
        assert drained["cells_done"] == 3 and drained["complete"] is True
        for key in ("jobs", "holds", "violated", "unsupported", "errors"):
            assert drained[key] == joined.totals[key]
        busy = rows["mx-held"]
        assert busy["cells_running"] == 1 and busy["cells_pending"] == 2
        assert busy["owner_live"] is True
        assert busy["owner"] == "4242@elsewhere.example"
        assert busy["attempts"] == 1 and busy["complete"] is False

    def test_ls_leaves_the_manifest_directory_unchanged(self, tmp_path, capsys):
        import os

        from repro.campaign import CampaignManifest
        from repro.dist import JobQueue

        directory = self._manifest_dir(tmp_path)
        # no queue directory at all, e.g. a sweep from before the queue existed
        CampaignManifest.create(directory, "mx-bare", {}, "fp", ["cell-a"])
        CampaignManifest.create(directory, "mx-queued", {}, "fp", ["cell-a", "cell-b"])
        queue = JobQueue(directory, "mx-queued")
        queue.complete(queue.claim("cell-a"), {"jobs": 1, "holds": 1})
        queue.claim("cell-b")

        def tree():
            return sorted(
                (os.path.relpath(os.path.join(root, name), directory),
                 os.stat(os.path.join(root, name)).st_mtime_ns)
                for root, dirs, files in os.walk(directory) for name in dirs + files)

        before = tree()
        assert main(["campaign", "ls", "--manifest-dir", directory]) == 0
        rows = self._ls_json(capsys, directory)
        assert tree() == before
        assert rows["mx-bare"]["cells_pending"] == 1
        assert rows["mx-queued"]["cells_done"] == 1

    def test_version_one_manifest_with_its_queue_lists_and_resumes(self, tmp_path, capsys):
        import json
        import os

        from repro.campaign import MatrixScheduler
        from repro.dist import JobQueue

        directory = self._manifest_dir(tmp_path)
        spec = self._bv_spec()
        first = MatrixScheduler(spec, report_dir=str(tmp_path / "reports"),
                                manifest_dir=directory, cache_dir="",
                                campaign_id="mx-old").run()
        queue = JobQueue(directory, "mx-old")
        summaries = {cell_id: queue.result(cell_id)["summary"]
                     for cell_id in (row["cell"] for row in first.rows)}
        # the old coordinator died inside the last cell: no result, a claim
        # left by a dead pid, and the version-1 manifest's lease book
        last = first.rows[-1]["cell"]
        os.unlink(queue._result_path(last))
        dead = {"pid": 2**22 + 12345, "host": "elsewhere.example", "heartbeat": 0.0}
        with open(os.path.join(queue.claim_dir, f"{last}.t1.json"), "w") as handle:
            json.dump({"cell_id": last, "token": 1, "lease": dead}, handle)
        cells = {cell_id: {"status": "done", "summary": summary, "attempts": 1,
                           "report_path": summary["report_path"]}
                 for cell_id, summary in summaries.items()}
        cells[last] = {"status": "running", "summary": None, "owner": dead,
                       "attempts": 1, "report_path": summaries[last]["report_path"]}
        with open(first.manifest_path, "w") as handle:
            json.dump({"version": 1, "campaign_id": "mx-old", "spec": spec.to_dict(),
                       "spec_fingerprint": spec.fingerprint(), "cells": cells}, handle)

        listed = self._ls_json(capsys, directory)["mx-old"]
        assert (listed["cells_done"], listed["cells_running"]) == (2, 1)
        assert listed["owner_live"] is False and listed["complete"] is False
        assert main(["campaign", "--resume", "mx-old", "--json", "--no-cache",
                     "--report-dir", str(tmp_path / "reports"),
                     "--manifest-dir", directory]) == 0
        resumed = json.loads(capsys.readouterr().out)["data"]
        assert resumed["reused_cells"] == 2
        assert resumed["totals"]["jobs"] == first.totals["jobs"]
        assert self._ls_json(capsys, directory)["mx-old"]["complete"] is True

    def test_ls_empty_directory(self, tmp_path, capsys):
        assert main(["campaign", "ls", "--manifest-dir", self._manifest_dir(tmp_path)]) == 0
        assert "no campaign manifests" in capsys.readouterr().out

    def test_ls_rejects_sweep_flags(self, tmp_path, capsys):
        argv = ["campaign", "ls", "--family", "grover",
                "--manifest-dir", self._manifest_dir(tmp_path)]
        assert main(argv) == 2
        assert "--family" in capsys.readouterr().err

    def test_ls_skips_unreadable_manifests(self, tmp_path, capsys):
        import os

        directory = self._manifest_dir(tmp_path)
        os.makedirs(directory)
        with open(os.path.join(directory, "mx-broken.json"), "w") as handle:
            handle.write("{not json")
        assert main(["campaign", "ls", "--manifest-dir", directory]) == 0
        captured = capsys.readouterr()
        assert "mx-broken" in captured.err
        assert "unreadable" in captured.err


class TestProfileFlag:
    def test_verify_profile_prints_phase_breakdown(self, capsys):
        assert main(["verify", "--family", "ghz", "--size", "3", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phases:" in out
        assert "reduce=" in out

    def test_campaign_profile_prints_phase_breakdown(self, tmp_path, capsys):
        argv = ["campaign", "--family", "grover", "--mutants", "2", "--no-cache",
                "--report", str(tmp_path / "report.jsonl"), "--profile"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "phases:" in out

    def test_campaign_records_carry_phase_seconds(self, tmp_path):
        import json

        report = tmp_path / "report.jsonl"
        argv = ["campaign", "--family", "grover", "--mutants", "2", "--no-cache",
                "--report", str(report)]
        assert main(argv) == 0
        with open(report) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert records
        for record in records:
            assert "phase_seconds" in record["statistics"]


class TestJsonOutput:
    """Every subcommand supports ``--json``; each document validates against
    the versioned schema and round-trips through ``Result.from_json``."""

    @staticmethod
    def _run_json(capsys, argv, expected_kind, expected_exit):
        """Run the CLI, parse stdout as one schema-valid document, round-trip it."""
        import json

        from repro.api import Result, validate_document

        exit_code = main(argv)
        out = capsys.readouterr().out
        assert exit_code == expected_exit, f"{argv}: exit {exit_code}, output: {out}"
        document = json.loads(out)  # stdout must be exactly one JSON document
        validate_document(document, kind=expected_kind)
        restored = Result.from_json(out)
        assert restored.to_json() == out.rstrip("\n"), f"{argv}: round-trip changed the document"
        assert restored.exit_code == expected_exit, (
            f"{argv}: deserialized document reports exit {restored.exit_code}"
        )
        return document

    def test_verify_json(self, capsys):
        document = self._run_json(
            capsys, ["verify", "--family", "bv", "--size", "3", "--json"], "verify", 0
        )
        assert document["holds"] is True
        assert document["benchmark"].startswith("BV")
        assert document["statistics"]["gates_total"] > 0

    def test_verify_json_with_profile_keeps_stdout_pure(self, capsys):
        document = self._run_json(
            capsys, ["verify", "--family", "ghz", "--size", "3", "--profile", "--json"],
            "verify", 0,
        )
        assert "phase_seconds" in document["statistics"]

    def test_simulate_json(self, bell_qasm, capsys):
        document = self._run_json(capsys, ["simulate", bell_qasm, "--json"], "simulate", 0)
        assert sorted(entry["basis"] for entry in document["amplitudes"]) == ["00", "11"]

    def test_equivalence_json(self, bell_qasm, buggy_bell_qasm, capsys):
        document = self._run_json(
            capsys, ["equivalence", bell_qasm, buggy_bell_qasm, "--json"], "equivalence", 1
        )
        assert document["non_equivalent"] is True
        assert document["witness"] is not None

    def test_bughunt_json(self, bell_qasm, buggy_bell_qasm, capsys):
        document = self._run_json(
            capsys, ["bughunt", bell_qasm, buggy_bell_qasm, "--json"], "bughunt", 1
        )
        assert document["bug_found"] is True
        assert document["iterations"] >= 1

    def test_generate_json(self, tmp_path, capsys):
        output = tmp_path / "ghz.qasm"
        document = self._run_json(
            capsys, ["generate", "--family", "ghz", "--size", "4", str(output), "--json"],
            "generate", 0,
        )
        assert document["data"]["qubits"] == 4
        assert output.exists()

    def test_inject_json(self, bell_qasm, tmp_path, capsys):
        output = tmp_path / "buggy.qasm"
        document = self._run_json(
            capsys, ["inject", bell_qasm, str(output), "--seed", "3", "--json"], "inject", 0
        )
        assert document["data"]["gates"] == 3
        assert output.exists()

    def test_stats_json(self, bell_qasm, capsys):
        document = self._run_json(capsys, ["stats", bell_qasm, "--json"], "stats", 0)
        assert document["data"]["qubits"] == 2
        assert document["data"]["histogram"]["h"] == 1

    def test_export_ta_json(self, tmp_path, capsys):
        output = tmp_path / "pre.timbuk"
        document = self._run_json(
            capsys,
            ["export-ta", "--family", "bv", "--size", "3", str(output), "--json"],
            "export-ta", 0,
        )
        assert document["data"]["states"] > 0
        assert output.exists()

    def test_baselines_json(self, bell_qasm, buggy_bell_qasm, capsys):
        document = self._run_json(
            capsys, ["baselines", bell_qasm, buggy_bell_qasm, "--json"], "baselines", 1
        )
        assert document["data"]["any_difference"] is True

    def test_campaign_json(self, tmp_path, capsys):
        argv = ["campaign", "--family", "grover", "--mutants", "3", "--no-cache",
                "--no-store", "--report", str(tmp_path / "report.jsonl"), "--json"]
        document = self._run_json(capsys, argv, "campaign", 0)
        assert document["jobs"] == 4

    def test_campaign_matrix_json(self, tmp_path, capsys):
        argv = ["campaign", "--families", "mctoffoli", "--sizes", "2", "--modes", "hybrid",
                "--mutants", "2", "--no-cache",
                "--report-dir", str(tmp_path / "reports"),
                "--manifest-dir", str(tmp_path / "manifests"), "--json"]
        document = self._run_json(capsys, argv, "campaign-matrix", 0)
        assert document["data"]["totals"]["jobs"] == 3
        assert document["data"]["trustworthy"] is True

    def test_campaign_ls_json(self, tmp_path, capsys):
        manifests = str(tmp_path / "manifests")
        argv = ["campaign", "--families", "mctoffoli", "--sizes", "2", "--modes", "hybrid",
                "--mutants", "1", "--no-cache",
                "--report-dir", str(tmp_path / "reports"), "--manifest-dir", manifests]
        assert main(argv) == 0
        capsys.readouterr()
        document = self._run_json(
            capsys, ["campaign", "ls", "--manifest-dir", manifests, "--json"],
            "campaign-ls", 0,
        )
        assert len(document["data"]["campaigns"]) == 1
        assert document["data"]["campaigns"][0]["complete"] is True

    def test_campaign_ls_json_reports_unreadable_manifests(self, tmp_path, capsys):
        import os

        manifests = str(tmp_path / "manifests")
        os.makedirs(manifests)
        with open(os.path.join(manifests, "mx-broken.json"), "w") as handle:
            handle.write("{not json")
        document = self._run_json(
            capsys, ["campaign", "ls", "--manifest-dir", manifests, "--json"],
            "campaign-ls", 0,
        )
        assert document["data"]["campaigns"] == []
        assert document["data"]["unreadable"][0]["campaign_id"] == "mx-broken"

    def test_cache_json_kinds(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        cache_dir = str(tmp_path / "cache")
        self._run_json(
            capsys, ["cache", "stats", "--json", "--store-dir", store_dir,
                     "--cache-dir", cache_dir],
            "cache-stats", 0,
        )
        self._run_json(
            capsys, ["cache", "gc", "--max-bytes", "0", "--json", "--store-dir", store_dir],
            "cache-gc", 0,
        )
        self._run_json(
            capsys, ["cache", "clear", "--json", "--store-dir", store_dir], "cache-clear", 0
        )

    def test_campaign_jsonl_records_validate_against_the_schema(self, tmp_path, capsys):
        import json

        from repro.api import API_VERSION, validate_document

        report = tmp_path / "report.jsonl"
        argv = ["campaign", "--family", "grover", "--mutants", "3", "--no-cache",
                "--no-store", "--report", str(report)]
        assert main(argv) == 0
        with open(report) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert records
        for record in records:
            assert record["api_version"] == API_VERSION
            validate_document(record, kind="campaign-job")


class TestJsonExitCodes:
    """`--json` never changes the exit-code contract of a subcommand."""

    def test_verify_violation_exits_nonzero(self, capsys, monkeypatch):
        import repro.api.session as session_module
        from repro.api.results import VerifyResult
        from repro.core.engine import EngineStatistics

        monkeypatch.setattr(
            session_module.Session, "_run_verify",
            lambda self, problem: VerifyResult(
                holds=False, witness="w", witness_kind="k", statistics=EngineStatistics()
            ),
        )
        assert main(["verify", "--family", "bv", "--size", "3", "--json"]) == 1
        capsys.readouterr()
        assert main(["verify", "--family", "bv", "--size", "3"]) == 1

    def test_equivalent_circuits_exit_zero(self, bell_qasm, capsys):
        assert main(["equivalence", bell_qasm, bell_qasm, "--json"]) == 0
        capsys.readouterr()

    def test_bughunt_usage_error_still_exits_2(self, bell_qasm, capsys):
        assert main(["bughunt", bell_qasm, "--json"]) == 2
        captured = capsys.readouterr()
        # under --json even failures are documents on stdout, never stderr
        document = json.loads(captured.out)
        assert document["kind"] == "error"
        assert not captured.err.strip()

    def test_campaign_config_error_still_exits_2(self, tmp_path, capsys):
        argv = ["campaign", "--family", "grover", "--mutants", "2", "--mutations",
                "teleport", "--no-cache", "--no-store",
                "--report", str(tmp_path / "r.jsonl"), "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["kind"] == "error"
        assert "teleport" in document["message"]
        assert not captured.err.strip()


class TestJsonErrorEnvelope:
    """Every ``--json`` failure path emits one versioned ``error`` document on
    stdout (the PR 6 contract: machine callers never parse stderr)."""

    @staticmethod
    def _run_error(capsys, argv, expected_error, expected_exit=2):
        from repro.api import Result, validate_document

        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == expected_exit, f"{argv}: exit {exit_code}"
        assert not captured.err.strip(), f"{argv}: stderr not empty: {captured.err}"
        document = json.loads(captured.out)
        validate_document(document, kind="error")
        assert document["error"] == expected_error
        restored = Result.from_json(captured.out)
        assert restored.exit_code == expected_exit
        assert restored.to_json() == captured.out.rstrip("\n")
        return document

    def test_bughunt_missing_candidate(self, bell_qasm, capsys):
        document = self._run_error(
            capsys, ["bughunt", bell_qasm, "--json"], "invalid-request")
        assert "--inject-seed" in document["message"]

    def test_equivalence_width_mismatch(self, bell_qasm, tmp_path, capsys):
        wider = tmp_path / "ghz3.qasm"
        save_qasm_file(Circuit(3).add("h", 0).add("cx", 0, 1).add("cx", 1, 2), str(wider))
        document = self._run_error(
            capsys, ["equivalence", bell_qasm, str(wider), "--json"], "invalid-request")
        assert "2 and 3 qubits" in document["message"]

    def test_cache_gc_without_budget(self, tmp_path, capsys):
        self._run_error(capsys,
                        ["cache", "gc", "--store-dir", str(tmp_path), "--json"],
                        "invalid-request")

    def test_campaign_without_selection(self, capsys):
        self._run_error(capsys, ["campaign", "--json"], "invalid-request")

    def test_campaign_ls_with_sweep_flags(self, tmp_path, capsys):
        self._run_error(capsys,
                        ["campaign", "ls", "--family", "grover", "--json"],
                        "invalid-request")

    def test_campaign_family_conflicts_with_matrix(self, capsys):
        self._run_error(capsys,
                        ["campaign", "--family", "grover", "--families", "bv",
                         "--json"], "invalid-request")

    def test_matrix_with_explicit_server_is_rejected(self, capsys):
        document = self._run_error(
            capsys,
            ["campaign", "--families", "bv", "--sizes", "3",
             "--server", "http://127.0.0.1:1", "--json"],
            "invalid-request")
        assert "--server" in document["message"]

    @pytest.mark.parametrize("argv", [
        ["campaign", "--family", "bv", "--size", "3", "--mutants", "1"],
        ["campaign", "--families", "bv", "--sizes", "3", "--mutants", "1"],
        ["campaign", "--join", "nightly"],
        ["cache", "stats"],
        ["cache", "gc", "--max-bytes", "0"],
        ["cache", "clear"],
        ["serve", "--port", "0"],
    ], ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv[:2]))
    def test_url_store_location_is_refused(self, argv, tmp_path, monkeypatch, capsys):
        # unguarded, a URL would become the relative directory ./http:/host:port/
        monkeypatch.chdir(tmp_path)
        # a daemon that wrongly started must fail this test, not hang it
        monkeypatch.setattr("repro.service.ServiceServer.serve_forever",
                            lambda self: None)
        document = self._run_error(
            capsys, argv + ["--store-dir", "http://127.0.0.1:8642", "--json"],
            "invalid-request")
        assert "directory" in document["message"]
        assert os.listdir(str(tmp_path)) == []

    def test_campaign_report_os_error(self, tmp_path, capsys):
        report = tmp_path / "not-a-dir" / "r.jsonl"
        document = self._run_error(
            capsys,
            ["campaign", "--family", "grover", "--mutants", "2", "--no-cache",
             "--no-store", "--report", str(report), "--json"],
            "os-error")
        assert "cannot write report" in document["message"]

    def test_unreadable_fault_plan_is_an_invalid_request(self, tmp_path, capsys):
        plan = tmp_path / "missing" / "plan.json"
        document = self._run_error(
            capsys,
            ["campaign", "--family", "bv", "--size", "3", "--mutants", "1", "--no-cache",
             "--no-store", "--report", str(tmp_path / "r.jsonl"), "--faults", str(plan),
             "--json"],
            "invalid-request")
        assert str(plan) in document["message"]

    def test_resume_of_unknown_campaign_is_a_manifest_error(self, tmp_path, capsys):
        self._run_error(
            capsys,
            ["campaign", "--resume", "mx-nope", "--no-cache", "--no-store",
             "--manifest-dir", str(tmp_path), "--json"],
            "manifest-error")

    def test_plain_text_failures_keep_the_stderr_contract(self, bell_qasm, capsys):
        assert main(["bughunt", bell_qasm]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert not captured.out.strip()


class TestOneExitPath:
    """Every subcommand returns its result or raises; ``main()`` alone turns
    a failure into the ``error`` document (or the ``error: …`` line) and
    takes the exit code from the result in both output modes."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "bv", "--size", "0"],
        ["generate", "--family", "bv", "--size", "0", "out.qasm"],
        ["export-ta", "--family", "bv", "--size", "0", "--which", "pre", "out.tb"],
        ["simulate", "h.qasm", "--input", "0x"],
        ["equivalence", "h.qasm", "h.qasm", "--single-input", "0x"],
        ["stats", "missing.qasm"],
        ["inject", "missing.qasm", "out.qasm"],
        ["baselines", "missing.qasm", "h.qasm"],
    ], ids=lambda argv: argv[0])
    def test_refused_arguments_are_invalid_requests(self, argv, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.chdir(tmp_path)
        save_qasm_file(Circuit(1).add("h", 0), "h.qasm")
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert not captured.err
        document = json.loads(captured.out)
        assert (document["kind"], document["error"]) == ("error", "invalid-request")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert sorted(os.listdir(tmp_path)) == ["h.qasm"]

    def test_join_whose_jobs_all_error_exits_1_in_both_modes(self, tmp_path, capsys):
        from repro.api import Result
        from repro.campaign import MatrixScheduler, MatrixSpec

        faults = json.dumps({"seed": 0, "sites": {"worker.cell": {"kind": "raise",
                                                                   "every": 1}}})
        for mode in ("text", "json"):
            manifests = str(tmp_path / mode / "manifests")
            reports = str(tmp_path / mode / "reports")
            MatrixScheduler(
                MatrixSpec.from_mapping({"families": ["bv"], "sizes": 3, "mutants": 1}),
                campaign_id="t1", manifest_dir=manifests, report_dir=reports,
                cache_dir="", store_dir="",
            ).plan()
            argv = ["campaign", "--join", "t1", "--manifest-dir", manifests,
                    "--report-dir", reports, "--no-cache", "--no-store", "--faults", faults]
            assert main(argv + (["--json"] if mode == "json" else [])) == 1
            out = capsys.readouterr().out
            if mode == "json":
                document = Result.from_json(out)
                assert document.data["totals"]["errors"] == 2
                assert document.exit_code == 1


@pytest.fixture(scope="class")
def daemon():
    """An in-process ``serve`` daemon with no result cache and no store."""
    from repro.api import SessionConfig
    from repro.service import ServiceConfig, ServiceServer

    server = ServiceServer(ServiceConfig(
        port=0, session=SessionConfig(cache_dir="", store_dir=""))).start()
    yield server
    server.stop()


def _daemon_counter(server, sample: str) -> float:
    """One sample of the daemon's ``/metrics`` page (0 while it is absent)."""
    from repro.api.client import ServiceClient

    for line in ServiceClient(server.url).metrics_text().splitlines():
        if line.startswith(sample + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


class TestServerFlag:
    """``--server URL`` sends the problem to a running daemon: same output,
    and the daemon's own ``error`` document on failure."""

    def test_verify_runs_on_the_daemon(self, daemon, capsys):
        sample = 'repro_requests_total{kind="verify"}'
        before = _daemon_counter(daemon, sample)
        argv = ["verify", "--family", "bv", "--size", "3", "--server", daemon.url, "--json"]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert (document["kind"], document["holds"]) == ("verify", True)
        assert _daemon_counter(daemon, sample) == before + 1

    def test_daemon_error_document_is_relayed(self, daemon, bell_qasm, tmp_path, capsys):
        wider = tmp_path / "ghz3.qasm"
        save_qasm_file(Circuit(3).add("h", 0).add("cx", 0, 1).add("cx", 1, 2), str(wider))
        argv = ["equivalence", bell_qasm, str(wider), "--server", daemon.url]
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert not captured.err
        document = json.loads(captured.out)
        assert (document["kind"], document["error"], document["code"]) == (
            "error", "invalid-request", 400)
        assert "2 and 3 qubits" in document["message"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    def test_campaign_streams_its_verdicts_from_the_daemon(self, daemon, tmp_path, capsys):
        import re

        argv = ["campaign", "--family", "bv", "--size", "3", "--mutants", "2",
                "--report", str(tmp_path / "report.jsonl"), "--server", daemon.url]
        assert main(argv) == 0
        out = capsys.readouterr().out
        streamed = re.findall(r"^  \[\S+\] (?:holds|violated|error|unsupported)$", out,
                              flags=re.MULTILINE)
        assert len(streamed) == 3  # the reference and two mutants
        assert "jobs:      3" in out
        assert _daemon_counter(daemon, 'repro_requests_total{kind="campaign"}') == 1


class TestCacheCommand:
    def test_stats_on_an_empty_store(self, tmp_path, capsys):
        argv = ["cache", "stats", "--store-dir", str(tmp_path / "store"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "entries:      0" in out
        assert str(tmp_path / "store") in out

    def test_stats_json_after_a_store_backed_campaign(self, tmp_path, capsys):
        import json

        store_dir = str(tmp_path / "store")
        assert main(["campaign", "--family", "grover", "--mutants", "2", "--no-cache",
                     "--store-dir", store_dir,
                     "--report", str(tmp_path / "report.jsonl")]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--store-dir", store_dir,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.api import API_VERSION

        # cache documents now carry the versioned envelope (PR 5)
        assert payload["api_version"] == API_VERSION
        assert payload["kind"] == "cache-stats"
        assert payload["data"]["store"]["entries"] > 0

    def test_cache_dir_alone_locates_the_campaign_store(self, tmp_path, capsys, monkeypatch):
        from repro.ta import AutomatonStore

        # a default store elsewhere must not be the one reported or cleared
        monkeypatch.setenv("AUTOQ_REPRO_CACHE_DIR", str(tmp_path / "default"))
        cache_dir = str(tmp_path / "cache")
        store_dir = os.path.join(cache_dir, "store")
        assert main(["campaign", "--family", "bv", "--size", "3", "--mutants", "3",
                     "--cache-dir", cache_dir,
                     "--report", str(tmp_path / "report.jsonl")]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache-dir", cache_dir]) == 0
        stats = json.loads(capsys.readouterr().out)["data"]["store"]
        assert stats["directory"] == store_dir
        assert stats["entries"] > 0
        assert main(["cache", "clear", "--json", "--cache-dir", cache_dir]) == 0
        cleared = json.loads(capsys.readouterr().out)["data"]
        assert cleared["store"] == store_dir
        assert cleared["removed_entries"] == stats["entries"]
        assert AutomatonStore.disk_stats(store_dir)["entries"] == 0

    def test_gc_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "gc", "--store-dir", str(tmp_path / "store")]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_and_clear_empty_the_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["campaign", "--family", "grover", "--mutants", "2", "--no-cache",
                     "--store-dir", store_dir,
                     "--report", str(tmp_path / "report.jsonl")]) == 0
        assert main(["cache", "gc", "--max-bytes", "0", "--store-dir", store_dir]) == 0
        assert main(["cache", "clear", "--store-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store-dir", store_dir,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "entries:      0" in capsys.readouterr().out

    def test_campaign_no_store_with_no_cache_prints_no_store_line(self, tmp_path, capsys):
        assert main(["campaign", "--family", "grover", "--mutants", "2", "--no-cache",
                     "--no-store", "--report", str(tmp_path / "report.jsonl")]) == 0
        assert "store:" not in capsys.readouterr().out
