"""Tests for the typed service layer: problems, sessions, results, schema."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    API_VERSION,
    BugHuntProblem,
    CampaignProblem,
    CircuitSource,
    ConditionSpec,
    EquivalenceProblem,
    Problem,
    Result,
    SchemaError,
    Session,
    SessionConfig,
    SimulateProblem,
    ToolResult,
    VerifyProblem,
    validate_document,
)
from repro.api.results import CampaignResult, EquivalenceResult, VerifyResult
from repro.circuits import Circuit, save_qasm_file
from repro.core.engine import EngineStatistics, default_gate_runtime
from repro.ta import basis_state_ta


def bell_circuit() -> Circuit:
    return Circuit(2).add("h", 0).add("cx", 0, 1)


def buggy_bell_circuit() -> Circuit:
    return Circuit(2).add("h", 0).add("cx", 0, 1).add("z", 1)


class TestCircuitSource:
    def test_exactly_one_source_is_required(self):
        with pytest.raises(ValueError):
            CircuitSource()
        with pytest.raises(ValueError):
            CircuitSource(qasm="x", family="bv")

    def test_size_needs_a_family(self):
        with pytest.raises(ValueError):
            CircuitSource(qasm="x", size=3)

    def test_circuit_round_trips_through_qasm(self):
        source = CircuitSource.from_circuit(bell_circuit())
        circuit, benchmark = source.resolve()
        assert benchmark is None
        assert circuit.num_gates == 2 and circuit.num_qubits == 2

    def test_family_source_resolves_benchmark(self):
        circuit, benchmark = CircuitSource.from_family("ghz", 3).resolve()
        assert benchmark is not None
        assert "GHZ" in benchmark.name
        assert circuit.num_qubits == 3

    def test_path_source(self, tmp_path):
        path = tmp_path / "bell.qasm"
        save_qasm_file(bell_circuit(), str(path))
        circuit, benchmark = CircuitSource.from_path(str(path)).resolve()
        assert benchmark is None
        assert circuit.num_gates == 2

    def test_dict_round_trip(self):
        source = CircuitSource.from_family("bv", 4)
        assert CircuitSource.from_dict(source.to_dict()) == source


class TestConditionSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ConditionSpec(kind="every-other-state")

    def test_value_constraints(self):
        with pytest.raises(ValueError):
            ConditionSpec(kind="basis")  # needs bits
        with pytest.raises(ValueError):
            ConditionSpec(kind="zero", value="00")  # takes none
        with pytest.raises(ValueError):
            ConditionSpec(kind="basis", value="012")  # malformed bits
        with pytest.raises(ValueError):
            ConditionSpec(kind="ta", value="qubits\n")  # short line
        with pytest.raises(ValueError):  # leaf state 3 at depths 1 and 2
            ConditionSpec(kind="ta", value="qubits 2\nroots 0\nleaf 3 1 0 0 0 0\n"
                                           "leaf 4 0 0 0 0 0\ntrans 0 x0 1 3\n"
                                           "trans 1 x1 3 4\n")

    def test_zero_and_basis_resolve(self):
        from repro.states import QuantumState

        zero = ConditionSpec(kind="zero").resolve(2)
        assert zero.accepts(QuantumState.zero_state(2))
        basis = ConditionSpec(kind="basis", value="10").resolve(2)
        assert basis.accepts(QuantumState.basis_state(2, "10"))
        assert not basis.accepts(QuantumState.zero_state(2))

    def test_inline_ta_round_trips(self):
        spec = ConditionSpec.from_automaton(basis_state_ta(2, "01"))
        restored = ConditionSpec.from_dict(spec.to_dict())
        from repro.states import QuantumState

        assert restored.resolve(2).accepts(QuantumState.basis_state(2, "01"))


class TestProblemSerialization:
    def problems(self, tmp_path):
        path = tmp_path / "bell.qasm"
        save_qasm_file(bell_circuit(), str(path))
        return [
            VerifyProblem(circuit=CircuitSource.from_family("grover", 2)),
            VerifyProblem(
                circuit=CircuitSource.from_circuit(bell_circuit()),
                precondition=ConditionSpec(kind="zero"),
                postcondition=ConditionSpec.from_automaton(basis_state_ta(2, "00")),
                mode="composition",
                inclusion_only=True,
            ),
            EquivalenceProblem(
                first=CircuitSource.from_path(str(path)),
                second=CircuitSource.from_circuit(buggy_bell_circuit()),
                inputs=ConditionSpec(kind="basis", value="00"),
            ),
            BugHuntProblem(reference=CircuitSource.from_path(str(path)), inject_seed=3),
            SimulateProblem(circuit=CircuitSource.from_circuit(bell_circuit()), input_bits="10"),
            CampaignProblem(family="grover", mutants=5, mutation_kinds=("insert", "remove")),
        ]

    def test_every_problem_round_trips(self, tmp_path):
        for problem in self.problems(tmp_path):
            document = problem.to_dict()
            assert document["api_version"] == API_VERSION
            assert document["kind"].startswith("problem/")
            validate_document(document)
            assert Problem.from_json(problem.to_json()) == problem

    def test_kind_dispatch_rejects_wrong_class(self, tmp_path):
        verify = self.problems(tmp_path)[0]
        with pytest.raises(SchemaError):
            CampaignProblem.from_dict(verify.to_dict())

    def test_validation_failures(self):
        with pytest.raises(ValueError):
            VerifyProblem(circuit=CircuitSource.from_circuit(bell_circuit()))  # no P/Q
        with pytest.raises(ValueError):
            BugHuntProblem(reference=CircuitSource.from_circuit(bell_circuit()))  # no candidate
        with pytest.raises(ValueError):
            BugHuntProblem(
                reference=CircuitSource.from_circuit(bell_circuit()),
                candidate=CircuitSource.from_circuit(bell_circuit()),
                inject_seed=1,
            )  # both
        with pytest.raises(ValueError):
            CampaignProblem(family="")
        with pytest.raises(ValueError):
            VerifyProblem(circuit=CircuitSource.from_family("bv"), mode="turbo")


class TestSessionRuns:
    def test_verify_family_problem(self):
        with Session() as session:
            result = session.run(VerifyProblem(circuit=CircuitSource.from_family("bv", 3)))
        assert result.holds and result.exit_code == 0
        assert result.benchmark.startswith("BV")
        assert result.statistics.gates_total > 0

    def test_verify_explicit_conditions(self):
        problem = VerifyProblem(
            circuit=CircuitSource.from_circuit(Circuit(2).add("x", 0)),
            precondition=ConditionSpec(kind="zero"),
            postcondition=ConditionSpec.from_automaton(basis_state_ta(2, "10")),
        )
        with Session() as session:
            assert session.run(problem).holds

    def test_verify_violation_reports_witness(self):
        problem = VerifyProblem(
            circuit=CircuitSource.from_circuit(Circuit(2).add("x", 0)),
            precondition=ConditionSpec(kind="zero"),
            postcondition=ConditionSpec.from_automaton(basis_state_ta(2, "01")),
        )
        with Session() as session:
            result = session.run(problem)
        assert not result.holds and result.exit_code == 1
        assert result.witness is not None and result.witness_kind is not None

    def test_equivalence_problem(self):
        problem = EquivalenceProblem(
            first=CircuitSource.from_circuit(bell_circuit()),
            second=CircuitSource.from_circuit(buggy_bell_circuit()),
        )
        with Session() as session:
            result = session.run(problem)
        assert result.non_equivalent and result.exit_code == 1

    def test_bughunt_problem_with_injection(self):
        problem = BugHuntProblem(
            reference=CircuitSource.from_circuit(bell_circuit()), inject_seed=3
        )
        with Session() as session:
            result = session.run(problem)
        assert result.injected_mutation is not None
        assert result.exit_code in (0, 1)

    def test_simulate_problem(self):
        problem = SimulateProblem(circuit=CircuitSource.from_circuit(bell_circuit()))
        with Session() as session:
            result = session.run(problem)
        assert sorted(entry["basis"] for entry in result.amplitudes) == ["00", "11"]

    def test_campaign_problem(self, tmp_path):
        problem = CampaignProblem(
            family="grover", mutants=3, report_path=str(tmp_path / "report.jsonl")
        )
        with Session(cache_dir="", store_dir="") as session:
            result = session.run(problem)
        assert result.jobs == 4
        assert result.exit_code == 0

    def test_unknown_problem_type_rejected(self):
        with Session() as session:
            with pytest.raises(TypeError):
                session.run(object())

    def test_session_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(workers=0)


class TestSessionIsolation:
    """The acceptance-criterion leakage regression tests: nothing a session
    does may touch module-level runtime state."""

    def test_session_store_never_leaks_into_default_runtime(self, tmp_path):
        with Session(store_dir=str(tmp_path / "store")) as session:
            session.run(VerifyProblem(circuit=CircuitSource.from_family("ghz", 3)))
            assert session.runtime.store is not None
            assert default_gate_runtime().store is None  # default runtime untouched
            assert default_gate_runtime().memo_stats()["size"] == 0  # default memo untouched
            assert session.runtime.memo_stats()["size"] > 0

    def test_two_sessions_have_independent_runtimes(self):
        first = Session()
        second = Session()
        try:
            first.run(VerifyProblem(circuit=CircuitSource.from_family("ghz", 3)))
            assert first.runtime.memo_stats()["size"] > 0
            assert second.runtime.memo_stats()["size"] == 0
        finally:
            first.close()
            second.close()

    def test_two_sessions_share_no_reduction_work(self):
        """``reduce()`` keeps no process-wide cache: a second session that
        verifies the same circuit repeats every reduction the first made."""
        from repro.ta import kernel

        backend = kernel.active_backend()
        layered = backend.reduce_layered
        calls = []

        def counting(automaton):
            calls.append(None)
            return layered(automaton)

        problem = VerifyProblem(circuit=CircuitSource.from_family("bv", 4))
        counts = []
        backend.reduce_layered = counting
        try:
            for _ in range(2):
                with Session() as session:
                    before = len(calls)
                    session.run(problem)
                    counts.append(len(calls) - before)
        finally:
            del backend.reduce_layered
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_exiting_the_context_resets_the_runtime(self, tmp_path):
        with Session(store_dir=str(tmp_path / "store")) as session:
            session.run(VerifyProblem(circuit=CircuitSource.from_family("ghz", 3)))
        assert session.runtime.store is None
        assert session.runtime.memo_stats() == {"size": 0, "hits": 0, "misses": 0}

    @pytest.mark.parametrize("store_dir", [None, "session-store"],
                             ids=["store-less", "named-store"])
    def test_campaign_never_swaps_the_session_store(self, tmp_path, store_dir):
        """A campaign runs on its own runtime and store; mid-run, the
        session still holds the store it was built with."""
        if store_dir is not None:
            store_dir = str(tmp_path / store_dir)
        with Session(cache_dir=str(tmp_path / "cache"), store_dir=store_dir) as session:
            built_with = session.runtime.store
            assert (built_with is None) == (store_dir is None)
            seen = []
            result = session.run_campaign(
                CampaignProblem(family="grover", mutants=2,
                                report_path=str(tmp_path / "r.jsonl")),
                on_record=lambda _record: seen.append(session.runtime.store),
            )
            assert result.store_publishes > 0  # the campaign had a store
            assert len(seen) == result.jobs
            assert all(store is built_with for store in seen)
            assert session.runtime.store is built_with

    def test_overlapping_campaigns_leave_a_storeless_session_storeless(self, tmp_path):
        """B starts after A's first record and finishes after A returns: any
        save/restore of the session's store would restore out of order."""
        a_recorded, b_recorded, a_returned = (threading.Event() for _ in range(3))
        errors = []

        def wait(event, what):
            if not event.wait(timeout=60):
                raise TimeoutError(f"timed out waiting for {what}")

        def on_a_record(_record):
            a_recorded.set()
            wait(b_recorded, "campaign B's first record")

        def on_b_record(_record):
            b_recorded.set()
            wait(a_returned, "campaign A to return")

        def run(family, on_record, returned):
            try:
                session.run_campaign(
                    CampaignProblem(family=family, size=3, mutants=2,
                                    report_path=str(tmp_path / f"{family}.jsonl")),
                    on_record=on_record,
                )
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)
            finally:
                returned.set()

        with Session(cache_dir=str(tmp_path / "cache")) as session:
            first = threading.Thread(target=run, args=("grover", on_a_record, a_returned))
            second = threading.Thread(target=run, args=("bv", on_b_record, threading.Event()))
            first.start()
            wait(a_recorded, "campaign A's first record")
            second.start()
            first.join(timeout=120)
            second.join(timeout=120)
            assert not first.is_alive() and not second.is_alive()
            assert not errors
            assert session.runtime.store is None


class TestResultSerialization:
    def test_verify_result_round_trip_preserves_documents(self):
        with Session() as session:
            result = session.run(VerifyProblem(circuit=CircuitSource.from_family("bv", 3)))
        document = result.to_json()
        restored = Result.from_json(document)
        assert isinstance(restored, VerifyResult)
        assert restored.to_json() == document
        assert isinstance(restored.statistics, EngineStatistics)

    def test_from_json_dispatches_on_kind(self):
        document = EquivalenceResult(non_equivalent=True, witness_side="first-only").to_json()
        restored = Result.from_json(document)
        assert isinstance(restored, EquivalenceResult)
        assert restored.exit_code == 1

    def test_typed_from_json_rejects_other_kinds(self):
        document = json.loads(EquivalenceResult().to_json())
        with pytest.raises(SchemaError):
            VerifyResult.from_dict(document)

    def test_foreign_api_version_is_rejected(self):
        document = json.loads(EquivalenceResult().to_json())
        document["api_version"] = API_VERSION + 1
        with pytest.raises(SchemaError):
            Result.from_dict(document)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SchemaError):
            Result.from_dict({"api_version": API_VERSION, "kind": "fortune"})

    def test_missing_required_field_is_rejected(self):
        document = json.loads(EquivalenceResult().to_json())
        del document["witness_side"]
        with pytest.raises(SchemaError):
            validate_document(document)

    def test_tool_result_round_trip(self):
        result = ToolResult(tool="stats", data={"qubits": 3, "histogram": {"h": 1}})
        restored = Result.from_json(result.to_json())
        assert isinstance(restored, ToolResult)
        assert restored == result

    def test_tool_result_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ToolResult(tool="horoscope", data={})

    def test_tool_result_failure_kinds_carry_exit_codes(self):
        """Deserialized documents report the same status the CLI exited with."""
        assert ToolResult(tool="baselines", data={"any_difference": True}).exit_code == 1
        assert ToolResult(tool="baselines", data={"any_difference": False}).exit_code == 0
        assert ToolResult(tool="campaign-matrix", data={"trustworthy": False}).exit_code == 1
        assert ToolResult(tool="campaign-matrix", data={"trustworthy": True}).exit_code == 0
        assert ToolResult(tool="stats", data={}).exit_code == 0

    def test_campaign_result_exit_code_contract(self):
        assert CampaignResult(violated=10).exit_code == 0  # catching mutants is the job
        assert CampaignResult(errors=1).exit_code == 1
        assert CampaignResult(reference_violated=True).exit_code == 1


class TestEngineStatisticsRoundTrip:
    """Satellite: ``to_dict ∘ from_dict ≡ id`` on the JSON-visible fields."""

    @given(
        samples=st.lists(st.floats(min_value=0.0, max_value=10.0,
                                   allow_nan=False, allow_infinity=False),
                         min_size=0, max_size=20),
        permutation_flags=st.lists(st.booleans(), min_size=20, max_size=20),
        store_counts=st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
        phases=st.dictionaries(
            st.sampled_from(["tag", "terms", "bin", "untag", "permutation", "reduce", "store"]),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_to_dict_from_dict_is_identity(self, samples, permutation_flags, store_counts, phases):
        automaton = basis_state_ta(1, "0")
        statistics = EngineStatistics()
        for elapsed, used_permutation in zip(samples, permutation_flags):
            statistics.record(automaton, elapsed, used_permutation)
        statistics.store_hits, statistics.store_misses, statistics.store_publishes = store_counts
        for phase, seconds in phases.items():
            statistics.record_phase(phase, seconds)
        first = statistics.to_dict()
        second = EngineStatistics.from_dict(first).to_dict()
        assert second == first
        # and it survives an actual JSON round-trip too
        third = EngineStatistics.from_dict(json.loads(json.dumps(first))).to_dict()
        assert third == first

    def test_round_trip_of_a_real_run(self):
        with Session() as session:
            result = session.run(VerifyProblem(circuit=CircuitSource.from_family("grover", 2)))
        payload = result.statistics.to_dict()
        assert EngineStatistics.from_dict(payload).to_dict() == payload


class TestCampaignRecordSchema:
    def test_jsonl_records_carry_the_versioned_envelope(self, tmp_path):
        report = tmp_path / "report.jsonl"
        problem = CampaignProblem(family="grover", mutants=3, report_path=str(report))
        with Session(cache_dir="", store_dir="") as session:
            session.run(problem)
        with open(report, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert records
        for record in records:
            assert record["api_version"] == API_VERSION
            assert record["kind"] == "campaign-job"
            validate_document(record, kind="campaign-job")

    def test_record_statistics_round_trip_through_engine_statistics(self, tmp_path):
        report = tmp_path / "report.jsonl"
        problem = CampaignProblem(family="grover", mutants=2, report_path=str(report))
        with Session(cache_dir="", store_dir="") as session:
            session.run(problem)
        with open(report, "r", encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        payload = record["statistics"]
        assert EngineStatistics.from_dict(payload).to_dict() == payload
