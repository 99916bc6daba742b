"""Distributed campaign fabric units (``repro.dist``).

Covers the lease queue's coordination primitives in-process — atomic claims
with fencing tokens, heartbeat renewal, the lease-liveness rule and
stale-lease stealing, idempotent first-writer-wins completion, the read-only
cell-state view — plus the per-client retry jitter derivation, and the
in-process plan → join → merge workflow, including a joiner sharing a warm
store directory.  The cross-*process* guarantees (two joined schedulers,
SIGKILLed joiner) live in ``tests/test_chaos_campaign.py``.
"""

import json
import os
import socket
import time

import pytest

from repro.api.client import ServiceClient
from repro.campaign import JoinRunResult, ManifestError, MatrixScheduler, MatrixSpec
from repro.dist import JobQueue, queue_dir_for, result_fingerprint
from repro.dist.queue import (
    LEASE_TTL_ENV,
    LEASE_TTL_SECONDS,
    QueueLease,
    default_lease_ttl,
    lease_is_stale,
)
from repro.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    install_fault_plan,
    install_injector,
)


@pytest.fixture(autouse=True)
def _no_armed_plan():
    install_injector(None)
    yield
    install_injector(None)


def _queue(tmp_path, **kwargs) -> JobQueue:
    return JobQueue(str(tmp_path), "camp", **kwargs)


def _summary(holds: int = 3, violated: int = 1) -> dict:
    return {"jobs": holds + violated, "holds": holds, "violated": violated,
            "unsupported": 0, "errors": 0, "reference_violated": False,
            "wall_seconds": 0.5}


def _foreign_live_lease() -> dict:
    """A lease no local liveness probe can invalidate: other host, fresh."""
    return {"pid": 4242, "host": "elsewhere.example", "heartbeat": time.time()}


def _write_claim(queue: JobQueue, cell_id: str, token: int, lease) -> str:
    """Forge another worker's claim (the queue creates its directories on
    first write, so a fresh queue may not have one yet)."""
    os.makedirs(queue.claim_dir, exist_ok=True)
    path = os.path.join(queue.claim_dir, f"{cell_id}.t{token}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"campaign_id": queue.campaign_id, "cell_id": cell_id,
                   "token": token, "lease": lease}, handle)
    return path


class TestClaims:
    def test_first_claim_takes_token_one(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.claim("cell-a")
        assert lease is not None
        assert lease.token == 1 and not lease.stolen
        assert os.path.exists(lease.path)
        # the claim file carries this process's lease
        assert lease.owner["pid"] == os.getpid()
        assert lease.owner["host"] == socket.gethostname()
        assert queue.current_claim("cell-a") == (1, lease.owner)
        assert queue.counters["cells_claimed"] == 1
        assert queue.counters["cells_stolen"] == 0

    def test_cell_held_by_a_live_foreign_worker_is_unavailable(self, tmp_path):
        queue = _queue(tmp_path)
        _write_claim(queue, "cell-a", 1, _foreign_live_lease())
        assert queue.claim("cell-a") is None
        assert queue.counters["cells_claimed"] == 0

    def test_stale_lease_is_stolen_at_the_next_token(self, tmp_path):
        queue = _queue(tmp_path)
        dead = {"pid": 4242, "host": "elsewhere.example",
                "heartbeat": time.time() - 10_000.0}
        old_path = _write_claim(queue, "cell-a", 1, dead)
        lease = queue.claim("cell-a")
        assert lease is not None
        assert lease.token == 2 and lease.stolen
        assert queue.counters["cells_stolen"] == 1
        assert queue.counters["cells_requeued"] == 1
        # the superseded generation was cleaned up
        assert not os.path.exists(old_path)

    def test_same_process_reclaim_is_not_a_steal(self, tmp_path):
        # lease_is_stale treats our own pid as stale (a same-process resume
        # reclaims its own cells), but that is a re-queue, not a steal
        queue = _queue(tmp_path)
        first = queue.claim("cell-a")
        second = queue.claim("cell-a")
        assert second is not None
        assert second.token == first.token + 1
        assert not second.stolen
        assert queue.counters["cells_requeued"] == 1
        assert queue.counters["cells_stolen"] == 0

    def test_losing_the_creation_race_returns_none(self, tmp_path, monkeypatch):
        queue = _queue(tmp_path)
        # freeze the pre-claim snapshot at "unclaimed", then let another
        # worker win the creation race for token 1 before we create it
        monkeypatch.setattr(queue, "current_claim", lambda cell_id: (0, None))
        _write_claim(queue, "cell-a", 1, _foreign_live_lease())
        assert queue.claim("cell-a") is None
        assert queue.counters["cells_claimed"] == 0

    def test_a_claim_being_written_is_not_read_as_stale(self, tmp_path, monkeypatch):
        # a second worker scans the cell while the first is still writing its
        # claim; a half-written claim must not read as a stale lease, so
        # exactly one of the two may own the cell
        first, second = _queue(tmp_path), _queue(tmp_path)
        monkeypatch.setattr(first, "_lease", _foreign_live_lease)
        rival = []
        write = json.dump

        def dump_while_a_rival_claims(payload, handle, **kwargs):
            if not rival:
                rival.append(None)  # the rival's own claim write comes back here
                rival[0] = second.claim("cell-a")
            write(payload, handle, **kwargs)

        monkeypatch.setattr(json, "dump", dump_while_a_rival_claims)
        mine = first.claim("cell-a")
        assert (mine is None) != (rival[0] is None)

    def test_completed_cell_is_never_claimable(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.claim("cell-a")
        assert queue.complete(lease, _summary()) == "accepted"
        assert queue.claim("cell-a") is None

    def test_claim_site_faults_are_retried(self, tmp_path):
        install_fault_plan(FaultPlan(seed=0, sites=(
            FaultSpec(site="queue.claim", kind="raise", every=1, limit=1),
        )))
        retries = []
        retry = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0,
                            sleep=lambda seconds: retries.append(seconds))
        queue = _queue(tmp_path, retry=retry)
        lease = queue.claim("cell-a")
        assert lease is not None and lease.token == 1

    def test_claim_site_fault_exhaustion_yields_none(self, tmp_path):
        install_fault_plan(FaultPlan(seed=0, sites=(
            FaultSpec(site="queue.claim", kind="raise", every=1),
        )))
        queue = _queue(tmp_path,
                       retry=RetryPolicy(attempts=2, base_delay=0.0,
                                         max_delay=0.0, sleep=lambda _s: None))
        assert queue.claim("cell-a") is None


class TestRenewal:
    def test_renew_refreshes_the_heartbeat_in_place(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.claim("cell-a")
        before = queue.current_claim("cell-a")[1]["heartbeat"]
        time.sleep(0.01)
        assert queue.renew(lease) is True
        after = queue.current_claim("cell-a")[1]["heartbeat"]
        assert after > before
        assert lease.renewals == 1
        assert queue.counters["lease_renewals"] == 1

    def test_renew_detects_deposition_by_a_higher_token(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.claim("cell-a")
        _write_claim(queue, "cell-a", lease.token + 1, _foreign_live_lease())
        assert queue.renew(lease) is False
        assert lease.renewals == 0

    def test_renew_fails_once_a_thief_completed_the_cell(self, tmp_path):
        # the thief's completion dropped every claim of the cell; the deposed
        # worker must not count a renewal or resurrect its claim file
        victim, thief = _queue(tmp_path), _queue(tmp_path)
        lease = victim.claim("cell-a")
        stolen = thief.claim("cell-a")  # our own pid reads as stale
        assert stolen.token == lease.token + 1
        assert thief.complete(stolen, _summary()) == "accepted"
        assert victim.renew(lease) is False
        assert lease.renewals == 0
        assert victim.counters["lease_renewals"] == 0
        assert os.listdir(victim.claim_dir) == []

    def test_failed_renewal_leaves_no_temp_file(self, tmp_path, monkeypatch):
        queue = _queue(tmp_path)
        lease = queue.claim("cell-a")

        def refuse(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        assert queue.renew(lease) is False
        assert os.listdir(queue.claim_dir) == [os.path.basename(lease.path)]
        assert lease.renewals == 0


class TestCompletion:
    def test_first_writer_wins_and_duplicates_are_discarded(self, tmp_path):
        queue = _queue(tmp_path)
        winner = queue.claim("cell-a")
        loser = QueueLease(cell_id="cell-a", token=winner.token + 1,
                           path=os.path.join(queue.claim_dir, "cell-a.t2.json"))
        assert queue.complete(winner, _summary()) == "accepted"
        assert queue.complete(loser, _summary()) == "duplicate"
        record = queue.result("cell-a")
        assert record["token"] == winner.token
        assert queue.counters["completions"] == 1
        assert queue.counters["duplicates"] == 1
        assert queue.counters["conflicts"] == 0

    def test_disagreeing_completion_counts_as_a_conflict(self, tmp_path):
        queue = _queue(tmp_path)
        winner = queue.claim("cell-a")
        queue.complete(winner, _summary(holds=3, violated=1))
        rogue = QueueLease(cell_id="cell-a", token=9,
                           path=os.path.join(queue.claim_dir, "cell-a.t9.json"))
        assert queue.complete(rogue, _summary(holds=2, violated=2)) == "conflict"
        assert queue.counters["conflicts"] == 1
        # first writer still owns the published record
        assert result_fingerprint(queue.result("cell-a")["summary"]) == \
            result_fingerprint(_summary(holds=3, violated=1))

    def test_completion_drops_the_cells_claim_files(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.claim("cell-a")
        queue.complete(lease, _summary())
        assert queue._claim_files("cell-a") == []

    def test_fingerprint_ignores_timings_and_worker_counters(self):
        one = _summary()
        two = dict(_summary(), wall_seconds=99.0, store_hits=7,
                   cells_claimed=3)
        assert result_fingerprint(one) == result_fingerprint(two)
        assert result_fingerprint(one) != result_fingerprint(
            dict(one, violated=one["violated"] + 1))

    def test_garbled_result_file_is_deleted_not_trusted(self, tmp_path):
        queue = _queue(tmp_path)
        os.makedirs(queue.result_dir)
        path = queue._result_path("cell-a")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert queue.result("cell-a") is None
        assert not os.path.exists(path)


class TestLeaseLiveness:
    """The rule every claim is judged by (``lease_is_stale``)."""

    def test_own_pid_is_reclaimable(self, tmp_path):
        # a same-process resume (e.g. after KeyboardInterrupt) re-claims its
        # own cells although the owning pid, ours, is alive
        queue = _queue(tmp_path)
        first = queue.claim("cell-a")
        assert lease_is_stale(first.owner)
        assert queue.cell_states(["cell-a"])["cell-a"].status == "interrupted"
        assert queue.claim("cell-a").token == first.token + 1

    def test_live_same_host_pid_blocks_the_claim(self, tmp_path):
        queue = _queue(tmp_path)
        # pid 1 is always alive and never ours
        lease = {"pid": 1, "host": socket.gethostname(), "heartbeat": time.time()}
        _write_claim(queue, "cell-a", 1, lease)
        assert not lease_is_stale(lease)
        assert queue.cell_states(["cell-a"])["cell-a"].status == "held"
        assert queue.claim("cell-a") is None

    def test_dead_same_host_pid_is_stolen_at_once(self, tmp_path):
        queue = _queue(tmp_path)
        dead = {"pid": 2**22 + 12345,  # beyond any default pid_max on CI hosts
                "host": socket.gethostname(), "heartbeat": time.time()}
        _write_claim(queue, "cell-a", 1, dead)
        assert lease_is_stale(dead)
        lease = queue.claim("cell-a")
        assert lease is not None and lease.token == 2 and lease.stolen

    def test_other_host_is_judged_by_heartbeat_alone(self, tmp_path):
        fresh = {"pid": 2**22 + 12345, "host": "elsewhere.example",
                 "heartbeat": time.time()}
        stale = dict(fresh, heartbeat=time.time() - LEASE_TTL_SECONDS - 1)
        assert not lease_is_stale(fresh)  # a pid dead *here* means nothing
        assert lease_is_stale(stale)
        queue = _queue(tmp_path, lease_ttl=LEASE_TTL_SECONDS)
        _write_claim(queue, "cell-fresh", 1, fresh)
        _write_claim(queue, "cell-stale", 1, stale)
        assert queue.claim("cell-fresh") is None
        assert queue.claim("cell-stale").stolen

    def test_missing_empty_and_garbled_leases_read_as_stale(self, tmp_path):
        assert lease_is_stale(None) and lease_is_stale({})
        queue = _queue(tmp_path)
        os.makedirs(queue.claim_dir)
        with open(os.path.join(queue.claim_dir, "cell-a.t1.json"), "w") as handle:
            handle.write("{not json")
        assert queue.current_claim("cell-a") == (1, None)
        assert queue.cell_states(["cell-a"])["cell-a"].status == "interrupted"
        lease = queue.claim("cell-a")
        assert lease is not None and lease.token == 2 and lease.stolen


def _dead_lease() -> dict:
    return {"pid": 4242, "host": "elsewhere.example",
            "heartbeat": time.time() - 10_000.0}


class TestCellStates:
    def test_done_held_interrupted_and_pending(self, tmp_path):
        queue = _queue(tmp_path)
        done = queue.claim("cell-done")
        queue.complete(done, _summary())
        _write_claim(queue, "cell-held", 1, _foreign_live_lease())
        _write_claim(queue, "cell-stale", 3, _dead_lease())
        cells = ["cell-done", "cell-held", "cell-stale", "cell-new"]
        states = queue.cell_states(cells)
        assert list(states) == cells
        assert [state.status for state in states.values()] == \
            ["done", "held", "interrupted", "pending"]
        assert [state.attempts for state in states.values()] == [1, 1, 3, 0]
        assert states["cell-done"].result["summary"] == _summary()
        assert states["cell-held"].lease["host"] == "elsewhere.example"
        assert states["cell-new"].lease is None and states["cell-new"].result is None

    def test_attempts_is_the_larger_of_result_and_claim_tokens(self, tmp_path):
        queue = _queue(tmp_path)
        _write_claim(queue, "cell-a", 2, _dead_lease())
        lease = queue.claim("cell-a")
        queue.complete(lease, _summary())  # drops the claims, keeps token 3
        assert queue.cell_states(["cell-a"])["cell-a"].attempts == 3
        # a leftover higher claim on a finished cell: still done
        _write_claim(queue, "cell-a", 5, _foreign_live_lease())
        state = queue.cell_states(["cell-a"])["cell-a"]
        assert (state.status, state.attempts) == ("done", 5)

    def test_the_view_creates_and_deletes_nothing(self, tmp_path):
        queue = _queue(tmp_path)
        assert queue.cell_states(["cell-a"])["cell-a"].status == "pending"
        assert not os.path.exists(queue.directory)
        # a garbled result is not trusted, but left for the scheduler to drop
        os.makedirs(queue.result_dir)
        path = queue._result_path("cell-a")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert queue.cell_states(["cell-a"])["cell-a"].status == "pending"
        assert os.path.exists(path)

    def test_lists_each_directory_once_per_call(self, tmp_path, monkeypatch):
        queue = _queue(tmp_path)
        cells = [f"cell-{index}" for index in range(6)]
        for cell_id in cells[:3]:
            queue.complete(queue.claim(cell_id), _summary())
        for cell_id in cells[3:5]:
            queue.claim(cell_id)
        listed = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir",
                            lambda path: (listed.append(path), listdir(path))[1])
        queue.cell_states(cells)
        assert sorted(listed) == sorted([queue.claim_dir, queue.result_dir])


class TestQueueInventory:
    def test_reset_drops_claims_and_results(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.claim("cell-a")
        queue.complete(lease, _summary())
        queue.claim("cell-b")
        queue.reset()
        states = queue.cell_states(["cell-a", "cell-b"])
        assert [state.status for state in states.values()] == ["pending", "pending"]
        assert queue._claim_files("cell-b") == []

    def test_queue_dir_lives_next_to_the_manifest(self, tmp_path):
        assert queue_dir_for("/m", "abc") == os.path.join("/m", "abc.queue")
        queue = _queue(tmp_path)
        assert queue.directory == os.path.join(str(tmp_path), "camp.queue")

    def test_lease_ttl_env_override(self, monkeypatch):
        monkeypatch.delenv(LEASE_TTL_ENV, raising=False)
        base = default_lease_ttl()
        monkeypatch.setenv(LEASE_TTL_ENV, "2.5")
        assert default_lease_ttl() == 2.5
        monkeypatch.setenv(LEASE_TTL_ENV, "not-a-number")
        assert default_lease_ttl() == base
        monkeypatch.setenv(LEASE_TTL_ENV, "-1")
        assert default_lease_ttl() == base


class TestClientJitter:
    def test_default_clients_derive_distinct_backoff_seeds(self):
        first = ServiceClient("http://127.0.0.1:1")
        second = ServiceClient("http://127.0.0.1:1")
        assert first.retry.seed != second.retry.seed
        # the rest of the policy is still the patient client profile
        assert first.retry.attempts == second.retry.attempts

    def test_explicit_retry_policy_is_preserved_verbatim(self):
        policy = RetryPolicy(attempts=1, seed=0)
        client = ServiceClient("http://127.0.0.1:1", retry=policy)
        assert client.retry is policy


def _spec() -> MatrixSpec:
    return MatrixSpec.from_mapping(
        {"families": ["bv"], "sizes": "2-3", "mutants": 2})


def _scheduler(tmp_path, **overrides) -> MatrixScheduler:
    settings = dict(
        workers=1,
        report_dir=str(tmp_path / "reports"),
        manifest_dir=str(tmp_path / "manifests"),
        cache_dir=str(tmp_path / "cache"),
        campaign_id="fabric-test",
    )
    settings.update(overrides)
    return MatrixScheduler(_spec(), **settings)


class TestJoinWorkflow:
    def test_plan_join_then_coordinator_merge(self, tmp_path):
        coordinator = _scheduler(tmp_path)
        coordinator.plan()

        joiner = MatrixScheduler.join(
            "fabric-test", report_dir=str(tmp_path / "join-reports"),
            manifest_dir=str(tmp_path / "manifests"),
            cache_dir=str(tmp_path / "cache"))
        outcome = joiner.run_join()
        assert isinstance(outcome, JoinRunResult)
        assert outcome.cells_executed == 2
        assert outcome.counters["completions"] == 2
        assert outcome.counters["conflicts"] == 0
        assert outcome.trustworthy
        # fabric counters are stamped into each published summary
        assert all(row["cells_claimed"] == 1 for row in outcome.rows)
        # the joiner wrote its own per-cell JSONL reports
        for row in outcome.rows:
            assert os.path.exists(row["report_path"])

        result = coordinator.run(resume=True)
        assert [row["cell"] for row in result.rows] == \
            [row["cell"] for row in sorted(outcome.rows, key=lambda r: r["cell"])]
        assert result.totals["jobs"] == outcome.totals["jobs"]
        assert result.trustworthy
        with open(result.summary_path, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
        # the joiner finished before the coordinator resumed: its cells were
        # done when the run started, so they count as reused, not merged
        assert summary["reused_cells"] == result.reused_cells == 2
        assert summary["merged_cells"] == 0

    def test_second_joiner_finds_nothing_claimable(self, tmp_path):
        coordinator = _scheduler(tmp_path)
        coordinator.plan()
        kwargs = dict(report_dir=str(tmp_path / "join-reports"),
                      manifest_dir=str(tmp_path / "manifests"),
                      cache_dir=str(tmp_path / "cache"))
        first = MatrixScheduler.join("fabric-test", **kwargs).run_join()
        second = MatrixScheduler.join("fabric-test", **kwargs).run_join()
        assert first.cells_executed == 2
        assert second.cells_executed == 0
        assert second.counters["cells_claimed"] == 0

    def test_join_requires_an_existing_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            MatrixScheduler.join("no-such-campaign",
                                 manifest_dir=str(tmp_path / "manifests"))

    def test_solo_run_matches_fabric_run_verdicts(self, tmp_path):
        solo = _scheduler(tmp_path, campaign_id="solo",
                          report_dir=str(tmp_path / "solo-reports")).run()
        fabric = _scheduler(tmp_path)
        fabric.plan()
        MatrixScheduler.join(
            "fabric-test", report_dir=str(tmp_path / "join-reports"),
            manifest_dir=str(tmp_path / "manifests"),
            cache_dir=str(tmp_path / "cache")).run_join()
        merged = fabric.run(resume=True)
        assert _verdicts(merged.rows) == _verdicts(solo.rows)

    def test_joiner_on_a_warm_shared_store_directory_hits_it(self, tmp_path):
        # hosts share a store the way they share the manifests: one directory
        shared = str(tmp_path / "shared-store")
        warm = _scheduler(tmp_path, campaign_id="warm", cache_dir="",
                          store_dir=shared,
                          report_dir=str(tmp_path / "warm-reports")).run()
        assert warm.totals["store_publishes"] > 0
        _scheduler(tmp_path, cache_dir="", store_dir=shared).plan()
        joined = MatrixScheduler.join(
            "fabric-test", report_dir=str(tmp_path / "join-reports"),
            manifest_dir=str(tmp_path / "manifests"), cache_dir="",
            store_dir=shared).run_join()
        assert joined.cells_executed == 2
        assert joined.totals["store_hits"] > 0
        assert joined.totals["store_misses"] == 0
        assert _verdicts(sorted(joined.rows, key=lambda row: row["cell"])) == \
            _verdicts(warm.rows)


def _verdicts(rows):
    return [(row["cell"], row["jobs"], row["holds"], row["violated"],
             row["unsupported"], row["errors"]) for row in rows]
