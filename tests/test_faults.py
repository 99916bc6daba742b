"""Tests for the deterministic fault-injection framework (``repro.faults``).

Covers the plan/spec model (validation, JSON round-trips, env activation),
the injector's deterministic schedule (``every``/``rate``/``limit``), the
shared :class:`RetryPolicy`, and the store-level resilience the plan
exercises: retry-healed reads, corrupt-write quarantine, and graceful
degradation after a fault streak.  The end-to-end campaign/service chaos
runs live in ``tests/test_chaos_campaign.py``.
"""

import json
import os
import pickle
import random

import pytest

from repro.faults import (
    DEFAULT_CLIENT_RETRY,
    DEFAULT_STORE_RETRY,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    active_injector,
    corrupt_text,
    inject,
    install_fault_plan,
    install_injector,
    plan_from_env,
)
from repro.faults import plan as plan_module
from repro.ta import basis_state_ta
from repro.ta.store import QUARANTINE_DIR, AutomatonStore


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no process-wide plan armed."""
    install_injector(None)
    yield
    install_injector(None)


def _plan(site: str, **spec) -> FaultPlan:
    return FaultPlan(seed=spec.pop("seed", 0),
                     sites=(FaultSpec(site=site, **spec),))


#: retries without real sleeps, for fast store-integration tests
_FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="store.get", kind="explode")

    def test_schedule_bounds_validated(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="store.get", rate=1.5)
        with pytest.raises(ValueError, match="every"):
            FaultSpec(site="store.get", every=-1)
        with pytest.raises(ValueError, match="limit"):
            FaultSpec(site="store.get", limit=-2)
        with pytest.raises(ValueError, match="delay"):
            FaultSpec(site="store.get", kind="delay", delay_seconds=-0.5)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            FaultSpec.from_mapping("store.get", {"kind": "raise", "often": 1})


class TestFaultPlan:
    def test_json_round_trip_is_identity(self):
        plan = FaultPlan(seed=7, sites=(
            FaultSpec(site="store.put", kind="corrupt-payload", rate=0.05),
            FaultSpec(site="worker.cell", kind="raise", every=10, limit=2),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_sites_are_sorted_for_determinism(self):
        document = {"sites": {"worker.cell": {}, "store.get": {}}}
        plan = FaultPlan.from_mapping(document)
        assert [spec.site for spec in plan.sites] == ["store.get", "worker.cell"]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            FaultPlan.from_mapping({"seed": 1, "faults": {}})

    def test_invalid_json_and_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            FaultPlan.from_json("{ nope")
        with pytest.raises(ValueError, match="object"):
            FaultPlan.from_json("[1, 2]")

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 3, "sites": {"store.get": {"kind": "delay"}}}')
        plan = FaultPlan.from_file(str(path))
        assert plan.seed == 3
        assert plan.spec_for("store.get").kind == "delay"
        assert plan.spec_for("store.put") is None

    def test_unreadable_plan_path_is_a_value_error_naming_it(self, tmp_path):
        missing = str(tmp_path / "missing" / "plan.json")
        with pytest.raises(ValueError, match="missing/plan.json"):
            FaultPlan.parse(missing)
        with pytest.raises(ValueError, match="cannot read fault plan"):
            plan_from_env({"AUTOQ_REPRO_FAULTS": missing})

    def test_plan_from_env_inline_and_path(self, tmp_path):
        assert plan_from_env({}) is None
        assert plan_from_env({"AUTOQ_REPRO_FAULTS": ""}) is None
        inline = plan_from_env(
            {"AUTOQ_REPRO_FAULTS": '{"seed": 2, "sites": {"store.put": {}}}'})
        assert inline.seed == 2
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 9, "sites": {}}')
        assert plan_from_env({"AUTOQ_REPRO_FAULTS": str(path)}).seed == 9


class TestFaultInjector:
    def test_every_fires_on_each_nth_invocation(self):
        injector = FaultInjector(_plan("store.get", kind="delay", every=3))
        fired = [injector.fire("store.get") is not None for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_limit_caps_total_firings(self):
        injector = FaultInjector(_plan("store.get", kind="delay", every=1, limit=2))
        fired = [injector.fire("store.get") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_rate_schedule_is_a_pure_function_of_the_plan(self):
        plan = _plan("store.put", kind="delay", rate=0.5, seed=123)
        left, right = FaultInjector(plan), FaultInjector(plan)
        fired_left = [left.fire("store.put") is not None for _ in range(64)]
        fired_right = [right.fire("store.put") is not None for _ in range(64)]
        assert fired_left == fired_right
        assert any(fired_left) and not all(fired_left)

    def test_rate_draw_is_invocation_indexed_alongside_every(self):
        # 'every' firing on an invocation must not shift later 'rate' draws
        mixed = FaultInjector(_plan("s", kind="delay", rate=0.3, every=5, seed=1))
        rate_only = FaultInjector(_plan("s", kind="delay", rate=0.3, seed=1))
        mixed_fired = [mixed.fire("s") is not None for _ in range(40)]
        rate_fired = [rate_only.fire("s") is not None for _ in range(40)]
        for index, fired in enumerate(rate_fired):
            if fired:
                assert mixed_fired[index]

    def test_unarmed_site_is_a_noop(self):
        injector = FaultInjector(_plan("store.get", kind="raise", every=1))
        assert injector.fire("store.put") is None
        assert injector.counters() == {}

    def test_raise_kind_raises_with_site_and_ordinal(self):
        injector = FaultInjector(_plan("worker.cell", kind="raise", every=2))
        assert injector.fire("worker.cell") is None
        with pytest.raises(InjectedFault) as caught:
            injector.fire("worker.cell")
        assert caught.value.site == "worker.cell"
        assert caught.value.ordinal == 2
        assert isinstance(caught.value, OSError)

    def test_injected_fault_pickles_like_a_pool_result(self):
        fault = InjectedFault("worker.cell", 3)
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert (clone.site, clone.ordinal) == ("worker.cell", 3)

    def test_counters_track_per_site_injections(self):
        injector = FaultInjector(_plan("store.get", kind="delay", every=2))
        for _ in range(6):
            injector.fire("store.get")
        assert injector.counters() == {"store.get": 3}
        assert injector.total_injected() == 3

    def test_corrupt_text_is_deterministic_and_damaging(self):
        text = json.dumps({"store_schema": 1, "automaton": {"leaves": [1, 2, 3]}})
        first = corrupt_text(text, random.Random(5))
        second = corrupt_text(text, random.Random(5))
        assert first == second
        assert first != text
        with pytest.raises(ValueError):
            json.loads(first)

    def test_all_kinds_are_constructible(self):
        for kind in FAULT_KINDS:
            FaultSpec(site="s", kind=kind)


class TestInstallation:
    def test_inject_is_a_noop_without_a_plan(self):
        assert inject("store.get") is None

    def test_install_fault_plan_arms_and_disarms(self):
        injector = install_fault_plan(_plan("store.get", kind="raise", every=1))
        assert active_injector() is injector
        with pytest.raises(InjectedFault):
            inject("store.get")
        assert install_fault_plan(None) is None
        assert inject("store.get") is None

    def test_install_injector_returns_the_previous_one(self):
        outer = install_fault_plan(_plan("store.get", kind="delay", every=1))
        inner = FaultInjector(_plan("store.put", kind="delay", every=1))
        assert install_injector(inner) is outer
        assert active_injector() is inner
        assert install_injector(outer) is inner
        assert active_injector() is outer

    def test_env_plan_is_armed_lazily(self, monkeypatch):
        monkeypatch.setenv(plan_module.FAULTS_ENV_VAR,
                           '{"seed": 4, "sites": {"store.get": {"kind": "delay"}}}')
        monkeypatch.setattr(plan_module, "_ACTIVE_INJECTOR", None)
        monkeypatch.setattr(plan_module, "_ENV_CHECKED", False)
        injector = active_injector()
        assert injector is not None
        assert injector.plan.seed == 4
        # explicit installs beat the ambient env var from then on
        install_injector(None)
        assert active_injector() is None


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        sleeps, seen = [], []
        policy = RetryPolicy(attempts=3, base_delay=0.1, jitter=0.0,
                             sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky, on_retry=lambda a, e: seen.append(a)) == "ok"
        assert calls["n"] == 3
        assert seen == [1, 2]
        assert sleeps == [0.1, 0.2]  # exponential, no jitter

    def test_exhausted_attempts_raise_the_last_error(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0)

        def always():
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            policy.call(always)

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(attempts=5, base_delay=0.0, retryable=(OSError,))
        calls = {"n": 0}

        def wrong():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(wrong)
        assert calls["n"] == 1

    def test_backoff_is_capped_and_jitter_bounded(self):
        policy = RetryPolicy(attempts=9, base_delay=1.0, max_delay=4.0,
                             jitter=0.25)
        rng = random.Random(0)
        for attempt in range(1, 9):
            delay = policy.delay_for(attempt, rng)
            assert 0.0 <= delay <= 4.0 * 1.25

    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1.0)

    def test_shared_defaults_have_the_documented_shape(self):
        assert DEFAULT_STORE_RETRY.attempts == 3
        assert OSError in DEFAULT_STORE_RETRY.retryable
        assert DEFAULT_CLIENT_RETRY.attempts == 3
        assert DEFAULT_CLIENT_RETRY.max_delay > DEFAULT_STORE_RETRY.max_delay


class TestStoreResilience:
    def test_injected_read_fault_is_healed_by_retry(self, tmp_path):
        store = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        key = store.gate_key("fp", "h:0", "hybrid", True)
        assert store.put(key, basis_state_ta(1, "0"))
        install_fault_plan(_plan("store.get", kind="raise", every=1, limit=1))
        fresh = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        entry = fresh.get(key)
        assert entry is not None
        assert fresh.counters["retries"] == 1
        assert fresh.counters["hits"] == 1
        assert fresh.counters["quarantined"] == 0

    def test_persistent_read_fault_quarantines_the_entry(self, tmp_path):
        store = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        key = store.gate_key("fp", "h:0", "hybrid", True)
        assert store.put(key, basis_state_ta(1, "0"))
        install_fault_plan(_plan("store.get", kind="raise", every=1))
        fresh = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        assert fresh.get(key) is None
        assert fresh.counters["retries"] == 2  # attempts - 1
        assert fresh.counters["rejected"] == 1
        quarantine = tmp_path / QUARANTINE_DIR
        assert sorted(os.listdir(quarantine)) == [
            os.path.basename(fresh._path(key)),
            os.path.basename(fresh._path(key)) + ".reason",
        ]

    def test_corrupt_payload_put_is_quarantined_then_recomputable(self, tmp_path):
        install_fault_plan(_plan("store.put", kind="corrupt-payload", every=1,
                                 limit=1))
        store = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        key = store.gate_key("fp", "h:0", "hybrid", True)
        assert store.put(key, basis_state_ta(1, "0"))  # write "succeeds", torn
        fresh = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        assert fresh.get(key) is None
        assert fresh.counters["quarantined"] == 1
        reason_files = [name for name in os.listdir(tmp_path / QUARANTINE_DIR)
                        if name.endswith(".reason")]
        assert len(reason_files) == 1
        # the caller recomputes and republishes; the plan's limit is spent
        assert fresh.put(key, basis_state_ta(1, "0"))
        assert AutomatonStore(str(tmp_path), retry=_FAST_RETRY).get(key) is not None

    def test_fault_streak_disables_the_store(self, tmp_path):
        install_fault_plan(_plan("store.put", kind="raise", every=1))
        store = AutomatonStore(str(tmp_path), retry=RetryPolicy(attempts=1),
                               fault_threshold=2)
        key = store.gate_key("fp", "h:0", "hybrid", True)
        assert not store.put(key, basis_state_ta(1, "0"))
        assert not store.disabled
        assert not store.put(key, basis_state_ta(1, "0"))
        assert store.disabled
        # disabled means inert, not broken: every operation is a fast no-op
        assert store.get(key) is None
        assert not store.put(key, basis_state_ta(1, "0"))
        assert store.counter_snapshot()["disabled"] is True

    def test_a_success_resets_the_fault_streak(self, tmp_path):
        install_fault_plan(_plan("store.put", kind="raise", every=2))
        store = AutomatonStore(str(tmp_path), retry=RetryPolicy(attempts=1),
                               fault_threshold=2)
        key = store.gate_key("fp", "h:0", "hybrid", True)
        for index in range(8):  # alternating success/fault never hits the streak
            store.put(store.gate_key("fp", f"g:{index}", "hybrid", True),
                      basis_state_ta(1, "0"))
        assert not store.disabled

    def test_quarantine_shows_up_in_disk_stats_and_clear(self, tmp_path):
        store = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "0"))
        with open(store._path(key), "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        fresh = AutomatonStore(str(tmp_path), retry=_FAST_RETRY)
        assert fresh.get(key) is None
        stats = AutomatonStore.disk_stats(str(tmp_path))
        assert stats["quarantined_entries"] == 1
        fresh.clear()  # returns live entries only; quarantine is swept too
        assert os.listdir(tmp_path / QUARANTINE_DIR) == []
        assert AutomatonStore.disk_stats(str(tmp_path))["quarantined_entries"] == 0
