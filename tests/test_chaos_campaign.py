"""End-to-end chaos tests: campaigns and the service under injected faults.

The invariant everywhere is *verdict equality*: a run under a seeded
kill/corrupt/raise plan must produce exactly the verdicts of the fault-free
run — robustness machinery may add retries, quarantined files, and counters,
but never change an answer.  ``scripts/chaos_smoke.py`` runs the same check
as a subprocess-level CI gate.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api import CircuitSource, SessionConfig, VerifyProblem
from repro.campaign import (
    CampaignConfig,
    MatrixScheduler,
    MatrixSpec,
    read_report,
    run_campaign,
)
from repro.dist import CLAIM_DIR, JobQueue, queue_dir_for
from repro.faults import FaultPlan, FaultSpec, install_fault_plan, install_injector
from repro.service import ServiceConfig, VerificationService
from repro.ta.store import QUARANTINE_DIR

#: import root of the package under test, for subprocess workers
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(autouse=True)
def _clean_process():
    """No armed plan leaks across tests."""
    install_injector(None)
    yield
    install_injector(None)


def _config(tmp_path, name: str, **overrides) -> CampaignConfig:
    """One isolated campaign run: its own report, cache, and store."""
    base = tmp_path / name
    settings = dict(
        family="grover",
        mutants=4,
        mutation_kinds=("insert", "remove"),
        workers=1,
        report_path=str(base / "report.jsonl"),
        cache_dir=str(base / "cache"),
        store_dir=str(base / "store"),
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def _verdicts(config: CampaignConfig):
    return [(record["job_id"], record["verdict"])
            for record in read_report(config.report_path)]


class TestStoreChaos:
    def test_store_faults_do_not_change_verdicts(self, tmp_path):
        clean = _config(tmp_path, "clean")
        clean_summary = run_campaign(clean)

        plan = FaultPlan(seed=1, sites=(
            FaultSpec(site="store.put", kind="corrupt-payload", rate=0.3),
            FaultSpec(site="store.get", kind="raise", every=5, limit=2),
        ))
        chaotic = _config(tmp_path, "chaos", fault_plan=plan)
        chaos_summary = run_campaign(chaotic)

        assert _verdicts(chaotic) == _verdicts(clean)
        assert chaos_summary.jobs == clean_summary.jobs == 5
        assert chaos_summary.errors == clean_summary.errors == 0
        # the plan actually did damage, and the run reported it
        assert chaos_summary.faults_injected > 0
        assert clean_summary.faults_injected == 0
        assert clean_summary.retries == 0

    def test_corrupted_puts_end_up_quarantined_on_reread(self, tmp_path):
        plan = FaultPlan(seed=3, sites=(
            FaultSpec(site="store.put", kind="corrupt-payload", rate=1.0,
                      limit=4),
        ))
        first = _config(tmp_path, "first", fault_plan=plan)
        run_campaign(first)
        # second run over the same store (fresh memo) must trip over the
        # corrupt entries, quarantine them, recompute, and agree anyway
        second = _config(tmp_path, "second", store_dir=first.store_dir)
        summary = run_campaign(second)
        assert _verdicts(second) == _verdicts(first)
        assert summary.quarantined_entries > 0
        quarantine = os.path.join(first.store_dir, QUARANTINE_DIR)
        assert any(name.endswith(".reason") for name in os.listdir(quarantine))


class TestWorkerChaos:
    def test_injected_cell_raise_is_retried_serially(self, tmp_path):
        clean = _config(tmp_path, "clean")
        run_campaign(clean)

        plan = FaultPlan(seed=0, sites=(
            FaultSpec(site="worker.cell", kind="raise", every=3, limit=1),
        ))
        chaotic = _config(tmp_path, "chaos", fault_plan=plan)
        summary = run_campaign(chaotic)

        assert _verdicts(chaotic) == _verdicts(clean)
        records = read_report(chaotic.report_path)
        assert sum(int(record.get("retried") or 0) for record in records) == 1
        assert summary.retries >= 1
        assert summary.errors == 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_job_retries", [0, 2])
    def test_exhausted_retries_degrade_to_an_error_record(self, tmp_path, workers,
                                                          max_job_retries):
        # every invocation raises: every cell becomes a synthetic worker-crash
        # error after exactly max_job_retries re-queues, in process and in a
        # pool alike, and the sweep still completes
        plan = FaultPlan(seed=0, sites=(
            FaultSpec(site="worker.cell", kind="raise", every=1),
        ))
        config = _config(tmp_path, "dead", fault_plan=plan, workers=workers,
                         max_job_retries=max_job_retries)
        summary = run_campaign(config)
        assert summary.jobs == 5
        assert summary.errors == 5
        assert summary.retries == 5 * max_job_retries
        records = read_report(config.report_path)
        assert all(record["verdict"] == "error" for record in records)
        assert all("worker-crash" in record["error"] for record in records)
        assert all(record["retried"] == max_job_retries for record in records)

    def test_pool_survives_killed_workers_with_identical_verdicts(self, tmp_path):
        clean = _config(tmp_path, "clean")
        clean_summary = run_campaign(clean)

        # each worker process SIGKILLs itself (os._exit) on its third cell;
        # with 5 jobs over 2 workers the pigeonhole guarantees at least one
        # kill, and corrupt writes gnaw at the shared store the whole time
        plan = FaultPlan(seed=2, sites=(
            FaultSpec(site="worker.cell", kind="crash-process", every=3,
                      limit=1),
            FaultSpec(site="store.put", kind="corrupt-payload", rate=0.1),
        ))
        chaotic = _config(tmp_path, "chaos", fault_plan=plan, workers=2,
                          max_job_retries=3)
        chaos_summary = run_campaign(chaotic)

        assert _verdicts(chaotic) == _verdicts(clean)
        assert chaos_summary.jobs == clean_summary.jobs
        assert chaos_summary.errors == 0
        records = read_report(chaotic.report_path)
        assert sum(int(record.get("retried") or 0) for record in records) >= 1
        assert chaos_summary.retries >= 1


def _fabric_scheduler(tmp_path, campaign_id="fabric", **overrides) -> MatrixScheduler:
    spec = MatrixSpec.from_mapping({"families": ["bv"], "sizes": "2-5", "mutants": 2})
    settings = dict(
        workers=1,
        report_dir=str(tmp_path / "reports" / campaign_id),
        manifest_dir=str(tmp_path / "manifests"),
        cache_dir=str(tmp_path / "cache" / campaign_id),
        campaign_id=campaign_id,
    )
    settings.update(overrides)
    return MatrixScheduler(spec, **settings)


def _spawn_joiner(tmp_path, campaign_id, name, faults=None) -> subprocess.Popen:
    """``campaign --join`` in a real separate process, JSON output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro.cli", "campaign",
            "--join", campaign_id, "--json",
            "--manifest-dir", str(tmp_path / "manifests"),
            "--cache-dir", str(tmp_path / "cache" / name),
            "--report-dir", str(tmp_path / "reports" / name)]
    if faults is not None:
        argv += ["--faults", json.dumps(faults.to_dict())]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _verdict_rows(rows):
    return sorted((row["cell"], row["jobs"], row["holds"], row["violated"],
                   row["unsupported"], row["errors"]) for row in rows)


class TestFabricChaos:
    def test_two_joined_processes_never_run_a_cell_twice(self, tmp_path):
        coordinator = _fabric_scheduler(tmp_path)
        coordinator.plan()

        workers = [_spawn_joiner(tmp_path, "fabric", f"joiner-{index}")
                   for index in range(2)]
        documents = []
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr
            documents.append(json.loads(stdout))

        executed = [
            {row["cell"] for row in document["data"]["cells"]}
            for document in documents
        ]
        # between them the joiners drained the whole sweep, without overlap
        assert executed[0].isdisjoint(executed[1])
        all_cells = {cell.cell_id for cell in coordinator.spec.cells()}
        assert executed[0] | executed[1] == all_cells
        for document in documents:
            counters = document["data"]["counters"]
            assert counters["duplicates"] == 0
            assert counters["conflicts"] == 0

        # the coordinator merges the joiners' results without re-executing
        result = coordinator.run(resume=True)
        assert result.trustworthy
        assert result.totals["errors"] == 0
        assert result.totals["jobs"] == len(all_cells) * 3  # reference + 2 mutants

    def test_sigkilled_joiner_is_stolen_and_verdicts_match_solo(self, tmp_path):
        solo = _fabric_scheduler(tmp_path, campaign_id="solo").run()

        coordinator = _fabric_scheduler(tmp_path)
        coordinator.plan()
        # slow every verification job down so the joiner is mid-cell for
        # seconds — long enough to observe its claim and SIGKILL it
        molasses = FaultPlan(seed=0, sites=(
            FaultSpec(site="worker.cell", kind="delay", rate=1.0,
                      delay_seconds=1.0),
        ))
        victim = _spawn_joiner(tmp_path, "fabric", "victim", faults=molasses)
        claim_dir = os.path.join(
            queue_dir_for(str(tmp_path / "manifests"), "fabric"), CLAIM_DIR)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if os.path.isdir(claim_dir) and os.listdir(claim_dir):
                break
            time.sleep(0.05)
        else:
            pytest.fail("joiner never claimed a cell")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        # the dead pid makes the victim's lease stale immediately; the
        # coordinator steals the cell and finishes the sweep
        result = coordinator.run(resume=True)
        assert result.trustworthy
        assert result.totals["cells_stolen"] >= 1
        assert _verdict_rows(result.rows) == _verdict_rows(solo.rows)
        # no cell was counted twice anywhere in the roll-up
        assert result.totals["jobs"] == solo.totals["jobs"]


class TestServiceChaos:
    def test_injected_request_fault_is_a_503_then_recovers(self):
        config = ServiceConfig(port=0, workers=2,
                               session=SessionConfig(cache_dir="", store_dir=""))
        with VerificationService(config) as service:
            document = VerifyProblem(
                circuit=CircuitSource.from_family("bv", 4)).to_dict()
            install_fault_plan(FaultPlan(seed=0, sites=(
                FaultSpec(site="service.request", kind="raise", every=1,
                          limit=1),
            )))
            status, payload = service.run_document(document)
            assert status == 503
            assert payload["error"] == "unavailable"
            # the fault budget is spent: the retried request goes through
            status, payload = service.run_document(document)
            assert status == 200
            assert payload["holds"] is True
            # the injection is visible on the metrics page
            text = service.metrics.render()
            assert 'repro_faults_injected_total{site="service.request"} 1' in text
