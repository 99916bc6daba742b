"""Tests for the cross-process automaton store and its payload codec.

Covers the three layers the store spans: the lossless payload codec in
``repro.ta.serialization`` (round-trips must preserve ``structure_key()``
exactly, including composition tags), the content-addressed on-disk store in
``repro.ta.store`` (atomic puts, corruption/schema rejection, gc), and
the engine's two-tier lookup (process memo -> store -> compute + publish).
"""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import build_family
from repro.circuits import Circuit, random_circuit
from repro.core import verify_triple
from repro.core.engine import CircuitEngine, EngineStatistics, GateRuntime, run_circuit
from repro.core import engine as engine_module
from repro.core.permutation import PermutationUnsupported, supports_permutation
from repro.core.tagging import tag
from repro.states import QuantumState
from repro.ta import (
    AutomatonStore,
    all_basis_states_ta,
    basis_state_ta,
    check_equivalence,
    from_quantum_states,
    serialization,
)
from repro.ta import store as store_module
from repro.ta.store import open_store
from repro.algebraic import AlgebraicNumber


def _random_reduced_automaton(seed: int):
    """A reduced automaton the way the differential harness produces them:
    a random circuit prefix run over the all-basis-states precondition."""
    rng = random.Random(seed)
    num_qubits = rng.randint(1, 3)
    circuit = random_circuit(num_qubits, num_gates=rng.randint(0, 6), seed=seed)
    return run_circuit(circuit, all_basis_states_ta(num_qubits)).output


def _explicit_states_automaton(seed: int):
    """An *unreduced* automaton with redundant structure and rich amplitudes."""
    rng = random.Random(seed)
    num_qubits = rng.randint(1, 3)
    amplitudes = [
        AlgebraicNumber(1, 0, 0, 0, 0),
        AlgebraicNumber(-1, 0, 0, 0, 0),
        AlgebraicNumber(0, 1, 0, 0, 0),
        AlgebraicNumber(1, 0, 0, 0, 1),
    ]
    states = []
    for _ in range(rng.randint(1, 3)):
        state = QuantumState(num_qubits)
        for bits in range(2**num_qubits):
            if rng.random() < 0.4:
                assignment = tuple((bits >> i) & 1 for i in reversed(range(num_qubits)))
                state[assignment] = rng.choice(amplitudes)
        if state:
            states.append(state)
    if not states:
        states.append(QuantumState.zero_state(num_qubits))
    return from_quantum_states(states, reduce=False)


class TestPayloadCodec:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_is_structure_key_identity_on_reduced_automata(self, seed):
        automaton = _random_reduced_automaton(seed)
        rebuilt = serialization.from_payload(serialization.to_payload(automaton))
        assert rebuilt.structure_key() == automaton.structure_key()
        assert store_module.fingerprint(rebuilt) == store_module.fingerprint(automaton)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_preserves_unreduced_structure_and_language(self, seed):
        automaton = _explicit_states_automaton(seed)
        rebuilt = serialization.from_payload(serialization.to_payload(automaton))
        assert rebuilt.structure_key() == automaton.structure_key()
        assert check_equivalence(automaton, rebuilt).equivalent

    def test_roundtrip_keeps_composition_tags(self):
        tagged = tag(basis_state_ta(2, "01"))
        rebuilt = serialization.from_payload(serialization.to_payload(tagged))
        assert rebuilt.structure_key() == tagged.structure_key()
        assert rebuilt.is_tagged()

    def test_payload_is_json_serialisable(self):
        payload = serialization.to_payload(all_basis_states_ta(3))
        assert serialization.from_payload(json.loads(json.dumps(payload))).num_qubits == 3

    def test_wrong_schema_rejected(self):
        payload = serialization.to_payload(basis_state_ta(1, "0"))
        payload["schema"] = serialization.PAYLOAD_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            serialization.from_payload(payload)

    def test_malformed_payload_rejected(self):
        payload = serialization.to_payload(basis_state_ta(1, "0"))
        del payload["leaves"]
        with pytest.raises(ValueError, match="malformed"):
            serialization.from_payload(payload)
        with pytest.raises(ValueError):
            serialization.from_payload("not a dict")


class TestFingerprint:
    def test_invariant_under_state_renaming(self):
        automaton = all_basis_states_ta(3)
        shifted = automaton.shifted(1000)
        assert automaton.structure_key() != shifted.structure_key()
        assert store_module.fingerprint(automaton) == store_module.fingerprint(shifted)

    def test_distinguishes_structures(self):
        assert store_module.fingerprint(basis_state_ta(2, "00")) != store_module.fingerprint(
            basis_state_ta(2, "01")
        )

    def test_codec_roundtrip_preserves_the_fingerprint(self):
        automaton = _random_reduced_automaton(7)
        rebuilt = serialization.from_payload(serialization.to_payload(automaton))
        assert store_module.fingerprint(rebuilt) == store_module.fingerprint(automaton)

    def test_digest_is_cached_on_the_automaton(self):
        automaton = all_basis_states_ta(2)
        first = store_module.fingerprint(automaton)
        assert store_module.fingerprint(automaton) is first

    def test_golden_digests(self):
        # entries already on disk are keyed by these digests, so a change to
        # the digest material would make every existing store miss
        golden = [
            (all_basis_states_ta(3),
             "575b219103fbc1f7bbc52ac86935423a644e5e78021912276f791f42af0b3234"),
            (tag(basis_state_ta(2, "01")),
             "8d26271ed3de283bff83a75ae5172538b87e5ba00c05f2b415b27e0c72bc81b7"),
            (basis_state_ta(3, "101").union(basis_state_ta(3, "011")),
             "5e1a848ae52fb6829fc18377e7bb3a51f591345350b9190147ce44d5260f2a76"),
        ]
        for automaton, digest in golden:
            assert store_module.fingerprint(automaton) == digest


class TestAutomatonStore:
    def test_put_get_roundtrip_with_meta(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        automaton = _random_reduced_automaton(3)
        key = store.gate_key("abc", "h:0", "hybrid", True)
        assert store.get(key) is None
        assert store.put(key, automaton, {"used_permutation": False, "reduced": True})
        entry = store.get(key)
        assert entry.automaton.structure_key() == automaton.structure_key()
        assert entry.meta == {"used_permutation": False, "reduced": True}

    def test_miss_is_none_and_entries_live_in_key_prefix_shards(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "x:0", "hybrid", True)
        assert store.get(key) is None
        # a missing file is a plain miss, never a retried I/O fault
        assert store.counters["misses"] == 1
        assert store.counters["retries"] == 0
        assert store.put(key, basis_state_ta(1, "1"))
        assert os.path.isfile(os.path.join(str(tmp_path), key[:2], f"{key}.json"))

    @pytest.mark.parametrize("location", ["http://127.0.0.1:8642",
                                          "https://store.example"])
    def test_url_locations_are_refused_and_create_nothing(self, location, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="directory"):
            open_store(location)
        with pytest.raises(ValueError, match="directory"):
            AutomatonStore.disk_stats(location)
        assert os.listdir(str(tmp_path)) == []

    def test_fresh_store_object_reads_what_another_wrote(self, tmp_path):
        automaton = basis_state_ta(2, "10")
        key = AutomatonStore.gate_key("in", "x:1", "hybrid", True)
        AutomatonStore(str(tmp_path)).put(key, automaton)
        entry = AutomatonStore(str(tmp_path)).get(key)
        assert entry is not None
        assert check_equivalence(entry.automaton, automaton).equivalent

    def test_gate_key_depends_on_every_component(self):
        base = AutomatonStore.gate_key("fp", "h:0", "hybrid", True)
        assert AutomatonStore.gate_key("fp2", "h:0", "hybrid", True) != base
        assert AutomatonStore.gate_key("fp", "h:1", "hybrid", True) != base
        assert AutomatonStore.gate_key("fp", "h:0", "composition", True) != base
        assert AutomatonStore.gate_key("fp", "h:0", "hybrid", False) != base

    def test_corrupted_entry_is_a_miss_and_deleted(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "0"))
        path = store._path(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ this is not json")
        fresh = AutomatonStore(str(tmp_path))  # counters start at zero
        assert fresh.get(key) is None
        assert not os.path.exists(path)
        assert fresh.counters["rejected"] == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, all_basis_states_ta(3))
        path = store._path(key)
        with open(path, "r+", encoding="utf-8") as handle:
            content = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(content[: len(content) // 2])
        assert AutomatonStore(str(tmp_path)).get(key) is None

    def test_torn_write_is_quarantined_then_recomputable(self, tmp_path):
        # a put interrupted mid-replace leaves a partial final file *and* an
        # orphaned temp file; the next read must quarantine, not trust either
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, all_basis_states_ta(2))
        path = store._path(key)
        with open(path, "r+", encoding="utf-8") as handle:
            content = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(content[: len(content) // 3])
        orphan = os.path.join(os.path.dirname(path), "tmptorn.tmp")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write(content[: len(content) // 2])

        fresh = AutomatonStore(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.counters["rejected"] == 1
        assert fresh.counters["quarantined"] == 1
        quarantine = os.path.join(str(tmp_path), store_module.QUARANTINE_DIR)
        name = os.path.basename(path)
        assert name in os.listdir(quarantine)
        with open(os.path.join(quarantine, name + ".reason"), encoding="utf-8") as handle:
            assert handle.read().strip()

        # recomputation republishes cleanly next to the quarantined copy
        assert fresh.put(key, all_basis_states_ta(2))
        assert fresh.get(key) is not None
        assert len(fresh) == 1  # the quarantined file is not a live entry
        stats = AutomatonStore.disk_stats(str(tmp_path))
        assert stats["quarantined_entries"] == 1
        assert stats["temp_files"] == 1

    def test_quarantine_survives_gc_and_never_resurfaces(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "0"))
        with open(store._path(key), "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        fresh = AutomatonStore(str(tmp_path))
        assert fresh.get(key) is None
        outcome = fresh.gc(max_bytes=0)  # evict everything evictable
        assert outcome["remaining_bytes"] == 0
        quarantine = os.path.join(str(tmp_path), store_module.QUARANTINE_DIR)
        assert any(name.endswith(".json") for name in os.listdir(quarantine))
        assert fresh.get(key) is None  # still just a miss, never fatal

    def test_entry_schema_mismatch_is_a_miss(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "1"))
        path = store._path(key)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["store_schema"] = store_module.STORE_SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        fresh = AutomatonStore(str(tmp_path))
        assert fresh.get(key) is None
        assert not os.path.exists(path)

    def test_payload_schema_mismatch_inside_entry_is_a_miss(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "1"))
        path = store._path(key)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["automaton"]["schema"] = serialization.PAYLOAD_SCHEMA + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert AutomatonStore(str(tmp_path)).get(key) is None

    def test_version_stamp_mismatch_invalidates_the_whole_store(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "0"))
        with open(os.path.join(str(tmp_path), "STORE_VERSION.json"), "w") as handle:
            json.dump({"store_schema": -1, "payload_schema": -1}, handle)
        reopened = AutomatonStore(str(tmp_path))
        assert len(reopened) == 0
        assert reopened.get(key) is None
        # the stamp was rewritten to the current schema
        with open(os.path.join(str(tmp_path), "STORE_VERSION.json")) as handle:
            assert json.load(handle)["store_schema"] == store_module.STORE_SCHEMA_VERSION

    def test_get_reads_the_entry_file_every_time(self, tmp_path):
        # no in-process copy: an entry deleted after its put is a plain miss
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "0"))
        assert store.get(key) is not None
        os.unlink(store._path(key))
        assert store.get(key) is None
        assert store.counters["hits"] == 1
        assert store.counters["misses"] == 1

    def test_stats_and_len(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        assert len(store) == 0
        store.put(store.gate_key("a", "h:0", "hybrid", True), basis_state_ta(1, "0"))
        store.put(store.gate_key("b", "h:0", "hybrid", True), basis_state_ta(1, "1"))
        stats = store.stats()
        assert stats["entries"] == len(store) == 2
        assert stats["total_bytes"] > 0
        assert stats["publishes"] == 2

    def test_gc_shrinks_to_budget_oldest_first(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        keys = [store.gate_key("fp", f"g:{index}", "hybrid", True) for index in range(5)]
        for index, key in enumerate(keys):
            store.put(key, basis_state_ta(2, "01"))
            path = store._path(key)
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        size = os.path.getsize(store._path(keys[0]))
        # under budget: a no-op gc removes nothing
        assert store.gc(max_bytes=5 * size)["removed_entries"] == 0
        assert all(os.path.exists(store._path(key)) for key in keys)
        outcome = store.gc(max_bytes=2 * size)
        assert outcome["removed_entries"] == 3
        assert outcome["remaining_bytes"] <= 2 * size
        survivors = [key for key in keys if os.path.exists(store._path(key))]
        assert survivors == keys[-2:]

    def test_counter_snapshot_reports_memory_without_touching_disk(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "0"))
        assert store.get(key) is not None
        snapshot = store.counter_snapshot()
        assert set(snapshot) == {"directory", "disabled", "hits", "misses", "publishes",
                                 "rejected", "quarantined", "retries"}
        assert snapshot["directory"] == str(tmp_path)
        assert snapshot["publishes"] == 1 and snapshot["hits"] == 1

    def test_clear_removes_everything(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        for index in range(3):
            store.put(store.gate_key("fp", f"g:{index}", "hybrid", True),
                      basis_state_ta(1, "0"))
        assert store.clear() == 3
        assert len(store) == 0

    def test_disk_hits_refresh_recency_so_gc_keeps_hot_entries(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        keys = [store.gate_key("fp", f"g:{index}", "hybrid", True) for index in range(3)]
        for index, key in enumerate(keys):
            store.put(key, basis_state_ta(2, "01"))
            os.utime(store._path(key), (1_000_000 + index, 1_000_000 + index))
        # read the oldest entry through a fresh store: the hit must bump its
        # mtime past the others, so gc evicts them first
        fresh = AutomatonStore(str(tmp_path))
        assert fresh.get(keys[0]) is not None
        size = os.path.getsize(fresh._path(keys[0]))
        fresh.gc(max_bytes=size)
        assert os.path.exists(fresh._path(keys[0]))
        assert not os.path.exists(fresh._path(keys[1]))
        assert not os.path.exists(fresh._path(keys[2]))

    def test_orphaned_temp_files_are_counted_and_swept(self, tmp_path):
        store = AutomatonStore(str(tmp_path))
        key = store.gate_key("fp", "h:0", "hybrid", True)
        store.put(key, basis_state_ta(1, "0"))
        shard = os.path.dirname(store._path(key))
        orphan = os.path.join(shard, "tmpdead.tmp")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write("x" * 128)
        stats = store.stats()
        assert stats["temp_files"] == 1
        assert stats["total_bytes"] >= 128
        outcome = store.gc(max_bytes=10**9)  # budget huge: only temps go
        assert outcome["removed_entries"] == 0
        assert outcome["removed_bytes"] >= 128
        assert not os.path.exists(orphan)
        # clear also sweeps a fresh orphan
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write("y")
        assert store.clear() == 1
        assert not os.path.exists(orphan)

    def test_disk_stats_is_read_only(self, tmp_path):
        missing = tmp_path / "never-created"
        stats = AutomatonStore.disk_stats(str(missing))
        assert stats["entries"] == 0
        assert not missing.exists()
        # a mismatched stamp is reported, not acted upon
        store = AutomatonStore(str(tmp_path / "real"))
        store.put(store.gate_key("fp", "h:0", "hybrid", True), basis_state_ta(1, "0"))
        stamp_path = tmp_path / "real" / "STORE_VERSION.json"
        stamp_path.write_text(json.dumps({"store_schema": -1, "payload_schema": -1}))
        stats = AutomatonStore.disk_stats(str(tmp_path / "real"))
        assert stats["entries"] == 1  # still there — inspection must not wipe
        assert stats["disk_stamp"] == {"store_schema": -1, "payload_schema": -1}


class TestEngineStoreTier:
    def test_fresh_process_simulation_hits_the_store(self, tmp_path):
        bench = build_family("grover", 2)
        first = verify_triple(bench.precondition, bench.circuit, bench.postcondition,
                              runtime=GateRuntime(store=open_store(str(tmp_path))))
        assert first.statistics.store_hits == 0
        assert first.statistics.store_publishes > 0
        assert first.statistics.store_publishes == first.statistics.store_misses

        # a fresh runtime is a brand-new process as far as caches go: only
        # the on-disk store survives
        second = verify_triple(bench.precondition, bench.circuit, bench.postcondition,
                               runtime=GateRuntime(store=open_store(str(tmp_path))))
        assert second.holds == first.holds
        assert second.statistics.store_misses == 0
        assert second.statistics.store_hits == first.statistics.store_publishes
        assert "store" in second.statistics.phase_seconds
        assert check_equivalence(second.output, first.output).equivalent

    def test_store_results_chain_across_modes_and_match_computation(self, tmp_path):
        # the two Hadamards are composition-encoded (stored); every gate of the
        # seed-11 circuit is permutation-encoded (recomputed, never stored)
        circuit = Circuit(2).add("h", 0).add("h", 1).concatenated(
            random_circuit(2, num_gates=6, seed=11))
        composition_gates = sum(
            1 for gate in circuit.decomposed() if not supports_permutation(gate))
        assert 0 < composition_gates < circuit.num_gates
        precondition = all_basis_states_ta(2)
        baseline = run_circuit(circuit, precondition).output

        # publish pass on a cold memo, so every gate application reaches (and
        # fills) the store; then a fresh runtime reads it back
        run_circuit(circuit, precondition, runtime=GateRuntime(store=open_store(str(tmp_path))))
        statistics = EngineStatistics()
        engine = CircuitEngine(runtime=GateRuntime(store=open_store(str(tmp_path))))
        automaton = precondition
        for gate in circuit.decomposed():
            automaton = engine.apply_gate(automaton, gate, statistics)
        assert statistics.store_hits > 0
        assert statistics.store_misses == 0
        assert statistics.store_hits == composition_gates
        assert check_equivalence(automaton, baseline).equivalent

    def test_permutation_encoded_gates_bypass_the_store(self, tmp_path):
        circuit = random_circuit(2, num_gates=6, seed=11)
        assert all(supports_permutation(gate) for gate in circuit.decomposed())
        precondition = all_basis_states_ta(2)
        store = AutomatonStore(str(tmp_path))

        hybrid = run_circuit(circuit, precondition, mode="hybrid",
                             runtime=GateRuntime(store=store)).statistics
        assert hybrid.gates_permutation == circuit.num_gates
        assert (hybrid.store_hits, hybrid.store_misses, hybrid.store_publishes) == (0, 0, 0)
        assert "store" not in hybrid.phase_seconds
        assert len(store) == 0

        # the same gates applied with the composition encoding are all stored
        composition = run_circuit(circuit, precondition, mode="composition",
                                  runtime=GateRuntime(store=store)).statistics
        assert composition.gates_composition == circuit.num_gates
        assert composition.store_misses == circuit.num_gates
        assert composition.store_publishes == circuit.num_gates
        assert len(store) == circuit.num_gates

    def test_hybrid_fallback_to_composition_is_not_stored(self, tmp_path, monkeypatch):
        # a gate routed to the permutation encoding that falls back to
        # composition at run time stays out of the store as well
        def unsupported(_automaton, gate):
            raise PermutationUnsupported(f"no permutation encoding for {gate.kind!r}")

        circuit = random_circuit(2, num_gates=6, seed=11)
        precondition = all_basis_states_ta(2)
        baseline = run_circuit(circuit, precondition, mode="composition",
                               runtime=GateRuntime()).output
        monkeypatch.setattr(engine_module, "apply_permutation_gate", unsupported)
        store = AutomatonStore(str(tmp_path))

        hybrid = run_circuit(circuit, precondition, mode="hybrid",
                             runtime=GateRuntime(store=store))
        statistics = hybrid.statistics
        assert statistics.gates_composition == circuit.num_gates
        assert (statistics.store_hits, statistics.store_misses,
                statistics.store_publishes) == (0, 0, 0)
        assert len(store) == 0
        assert check_equivalence(hybrid.output, baseline).equivalent

    def test_disabled_store_is_reported_by_a_permutation_only_run(self, tmp_path):
        # the degraded-store detach runs before the encoding check, so a run
        # that never consults the store still flags and detaches it
        circuit = random_circuit(2, num_gates=6, seed=11)
        store = AutomatonStore(str(tmp_path))
        store.disabled = True
        runtime = GateRuntime(store=store)

        statistics = run_circuit(circuit, all_basis_states_ta(2), mode="hybrid",
                                 runtime=runtime).statistics
        assert statistics.gates_permutation == circuit.num_gates
        assert statistics.store_disabled
        assert runtime.store is None

    def test_detached_store_records_nothing(self):
        bench = build_family("grover", 2)
        result = verify_triple(bench.precondition, bench.circuit, bench.postcondition,
                               runtime=GateRuntime(store=None))
        assert result.statistics.store_hits == 0
        assert result.statistics.store_misses == 0
        assert result.statistics.store_publishes == 0

    def test_unusable_store_directory_degrades_to_no_store(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store directory should go")
        store = open_store(str(blocker))
        assert store is None
        bench = build_family("grover", 2)
        assert verify_triple(bench.precondition, bench.circuit, bench.postcondition,
                             runtime=GateRuntime(store=store)).holds

    def test_statistics_to_dict_carries_store_counters(self, tmp_path):
        bench = build_family("grover", 2)
        result = verify_triple(bench.precondition, bench.circuit, bench.postcondition,
                               runtime=GateRuntime(store=open_store(str(tmp_path))))
        summary = result.statistics.to_dict()
        assert summary["store_publishes"] == result.statistics.store_publishes > 0
        assert set(summary) >= {"store_hits", "store_misses", "store_publishes"}
