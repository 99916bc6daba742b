"""Tests for the differential fuzzing engine and the regression corpus.

Covers every layer of :mod:`repro.fuzz`:

* **generators** — the case streams are deterministic under their seed;
* **oracles** — the cross-mode and boolean oracles pass on a healthy tree,
  and *catch* deliberately broken engines (a boolean ``complement`` whose
  final-state set is flipped, a permutation kernel that drops ``z`` gates)
  injected via monkeypatching;
* **shrink** — greedy minimization preserves the divergence predicate;
* **corpus** — content-addressed entries round-trip through the versioned
  schema, duplicate finds are idempotent, malformed entries raise;
* **driver** — budgeted runs, corpus writing, replay as a regression gate
  (including the campaign ``--corpus`` gate), and the memo-poisoning
  guarantee: a broken fuzz run must not contaminate later healthy replays;
* the ``FuzzProblem``/``FuzzResult`` API surface and the ``fuzz`` CLI.
"""

from __future__ import annotations

import json

import pytest

import repro.core.engine as engine_module
import repro.fuzz.driver as driver_module
import repro.ta.boolean as boolean_module
from repro.api import FuzzProblem, FuzzResult, Problem, Result, Session
from repro.circuits import Circuit
from repro.circuits.qasm import to_qasm
from repro.cli import main as cli_main
from repro.fuzz.corpus import Corpus, CorpusError, entry_id
from repro.fuzz.driver import FuzzSettings, replay_corpus, run_fuzz
from repro.fuzz.generators import generate_boolean_cases, generate_cases
from repro.fuzz.oracles import boolean_oracle, cross_mode_oracle, static_prefilter
from repro.fuzz.shrink import shrink_circuit, shrink_states
from repro.states import QuantumState
from repro.ta.construction import from_quantum_states


@pytest.fixture
def broken_complement(monkeypatch):
    """Emulate a complement whose final-state set was flipped instead of built
    by subset construction: the language becomes the *completion* of L(A)
    rather than its complement — exactly ``complement(complement(A))``."""
    real = boolean_module.complement

    def flipped(automaton, alphabet=None):
        return real(real(automaton, alphabet), alphabet)

    monkeypatch.setattr(boolean_module, "complement", flipped)
    return flipped


@pytest.fixture
def broken_permutation_engine(monkeypatch):
    """A permutation kernel that silently drops ``z`` gates."""
    real = engine_module.apply_permutation_gate

    def dropped(automaton, gate, *args, **kwargs):
        if gate.kind == "z":
            return automaton
        return real(automaton, gate, *args, **kwargs)

    monkeypatch.setattr(engine_module, "apply_permutation_gate", dropped)
    return dropped


# ------------------------------------------------------------------ generators


class TestGenerators:
    def test_cross_mode_stream_is_deterministic(self):
        stream_a, stream_b = generate_cases(7), generate_cases(7)
        first = [next(stream_a) for _ in range(10)]
        second = [next(stream_b) for _ in range(10)]
        for a, b in zip(first, second):
            assert to_qasm(a.circuit) == to_qasm(b.circuit)
            assert to_qasm(a.reference) == to_qasm(b.reference)
            assert a.input_bits == b.input_bits
            assert (a.record is None) == (b.record is None)
            if a.record is not None:
                assert a.record.to_dict() == b.record.to_dict()

    def test_different_seeds_differ(self):
        a = [to_qasm(next(generate_cases(0)).circuit) for _ in range(5)]
        stream = generate_cases(1)
        b = [to_qasm(next(stream).circuit) for _ in range(5)]
        assert a != b

    def test_boolean_stream_is_deterministic_and_bounded(self):
        stream_a, stream_b = generate_boolean_cases(3), generate_boolean_cases(3)
        for _ in range(10):
            a, b = next(stream_a), next(stream_b)
            assert a.num_qubits == b.num_qubits <= 3
            assert a.alphabet == b.alphabet
            assert list(a.left) == list(b.left) and list(a.right) == list(b.right)


# --------------------------------------------------------------------- oracles


class TestOracles:
    def test_cross_mode_passes_on_bell_circuit(self):
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1)
        verdict = cross_mode_oracle(circuit, (0, 0))
        assert verdict.ok, verdict.detail

    def test_cross_mode_catches_a_broken_permutation_kernel(
        self, broken_permutation_engine
    ):
        # h puts qubit 0 in superposition, so a dropped z is observable
        circuit = Circuit(1).add("h", 0).add("z", 0)
        verdict = cross_mode_oracle(circuit, (0,))
        assert not verdict.ok
        assert verdict.gate_index == 1
        assert "z" in verdict.detail

    def test_boolean_oracle_passes_on_basis_sets(self):
        left = from_quantum_states([QuantumState.basis_state(2, 0)])
        right = from_quantum_states([QuantumState.basis_state(2, 3)])
        verdict = boolean_oracle(left, right)
        assert verdict.ok, verdict.detail

    def test_boolean_oracle_catches_flipped_complement(self, broken_complement):
        left = from_quantum_states([QuantumState.basis_state(2, 0)])
        right = from_quantum_states([QuantumState.basis_state(2, 1)])
        verdict = boolean_oracle(left, right)
        assert not verdict.ok
        assert verdict.operation in ("complement", "difference")

    def test_prefilter_drops_identical_circuits(self):
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1)
        assert static_prefilter(circuit, circuit.copy()) == "identical-circuit"

    def test_prefilter_drops_commuting_transpositions(self):
        from repro.circuits import MutationRecord

        reference = Circuit(2).add("z", 0).add("x", 1)
        mutant = Circuit(2).add("x", 1).add("z", 0)
        record = MutationRecord(("transpose", 0, mutant[0]))
        assert static_prefilter(reference, mutant, record) == "commuting-transpose"

    def test_prefilter_drops_symmetric_operand_swaps(self):
        from repro.circuits import MutationRecord

        reference = Circuit(2).add("h", 0).add("cz", 0, 1)
        mutant = Circuit(2).add("h", 0).add("cz", 1, 0)
        record = MutationRecord(("swap-operands", 1, mutant[1]))
        assert static_prefilter(reference, mutant, record) == "symmetric-operands"

    def test_prefilter_keeps_real_mutants(self):
        reference = Circuit(2).add("h", 0).add("cx", 0, 1)
        mutant = Circuit(2).add("h", 0).add("cx", 0, 1).add("t", 0)
        assert static_prefilter(reference, mutant) is None


# ---------------------------------------------------------------------- shrink


class TestShrink:
    def test_shrink_circuit_reaches_a_local_minimum(self):
        circuit = (
            Circuit(2).add("h", 0).add("x", 1).add("t", 0).add("cx", 0, 1).add("z", 1)
        )

        def still_bad(candidate):
            return any(gate.kind == "cx" for gate in candidate)

        minimized = shrink_circuit(circuit, still_bad)
        assert [gate.kind for gate in minimized] == ["cx"]

    def test_shrink_circuit_never_returns_a_passing_candidate(self):
        circuit = Circuit(1).add("x", 0).add("z", 0)
        minimized = shrink_circuit(circuit, lambda candidate: candidate.num_gates >= 2)
        assert minimized.num_gates == 2

    def test_shrink_states_keeps_at_least_one(self):
        states = [QuantumState.basis_state(1, i) for i in (0, 1)]
        kept = shrink_states(states, lambda remaining: len(remaining) >= 1)
        assert len(kept) == 1


# ---------------------------------------------------------------------- corpus


class TestCorpus:
    def test_add_and_reload_round_trips(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        identifier = corpus.add("cross-mode", {"circuit_qasm": "x"}, seed=3, detail="d")
        (entry,) = Corpus(tmp_path / "corpus").entries()
        assert entry["entry_id"] == identifier
        assert entry["check"] == "cross-mode"
        assert entry["seed"] == 3
        assert entry["payload"] == {"circuit_qasm": "x"}

    def test_entry_id_is_a_pure_content_address(self):
        first = entry_id("boolean", 1, None, {"a": 1})
        assert first == entry_id("boolean", 1, None, {"a": 1})
        assert first != entry_id("boolean", 2, None, {"a": 1})
        assert first != entry_id("boolean", 1, None, {"a": 2})

    def test_duplicate_adds_are_idempotent(self, tmp_path):
        corpus = Corpus(tmp_path)
        a = corpus.add("boolean", {"x": 1})
        b = corpus.add("boolean", {"x": 1}, detail="different detail is not identity")
        assert a == b
        assert len(corpus) == 1

    def test_malformed_entry_raises_corpus_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(CorpusError):
            Corpus(tmp_path).entries()

    def test_schema_invalid_entry_raises_corpus_error(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"api_version": 2, "kind": "verify"}))
        with pytest.raises(CorpusError):
            Corpus(tmp_path).entries()

    def test_missing_directory_is_an_empty_corpus(self, tmp_path):
        assert Corpus(tmp_path / "nowhere").entries() == []


# ---------------------------------------------------------------------- driver


class TestDriver:
    def test_healthy_run_finds_nothing(self):
        outcome = run_fuzz(FuzzSettings(budget_seconds=30, seed=0, max_cases=20))
        assert outcome.cases == 20
        assert outcome.divergences == 0
        assert outcome.ok

    def test_runs_are_deterministic_per_seed(self):
        a = run_fuzz(FuzzSettings(budget_seconds=60, seed=5, max_cases=15))
        b = run_fuzz(FuzzSettings(budget_seconds=60, seed=5, max_cases=15))
        assert (a.cases, a.prefiltered, a.findings) == (b.cases, b.prefiltered, b.findings)

    def test_boolean_cases_reach_the_max_qubits_bound(self, monkeypatch):
        widths = []
        run_case = driver_module._run_boolean_case

        def recording(case, outcome, corpus):
            widths.append(case.num_qubits)
            return run_case(case, outcome, corpus)

        monkeypatch.setattr(driver_module, "_run_boolean_case", recording)
        outcome = run_fuzz(FuzzSettings(
            budget_seconds=60, seed=0, checks=("boolean",), max_qubits=3, max_cases=12,
        ))
        assert outcome.divergences == 0, outcome.findings
        assert max(widths) == 3

    def test_broken_complement_is_caught_and_minimized(self, tmp_path, broken_complement):
        outcome = run_fuzz(FuzzSettings(
            budget_seconds=60, seed=0, checks=("boolean",), max_cases=6,
            corpus_dir=str(tmp_path),
        ))
        assert outcome.divergences > 0
        assert outcome.corpus_entries
        for document in Corpus(tmp_path).entries():
            assert document["check"] == "boolean"
            assert document["payload"]["operations"]  # the diverging operation
        finding = outcome.findings[0]
        assert finding["check"] == "boolean"
        assert finding["entry_id"] in outcome.corpus_entries

    def test_broken_engine_is_caught_and_localised(self, tmp_path, broken_permutation_engine):
        outcome = run_fuzz(FuzzSettings(
            budget_seconds=120, seed=0, checks=("cross-mode",), max_cases=60,
            corpus_dir=str(tmp_path),
        ))
        assert outcome.divergences > 0
        assert any(f["mutation"] is not None for f in outcome.findings)

    def test_replay_is_a_regression_gate(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        # harvest entries under a broken complement (fixture-free: patch by hand
        # so the breakage ends before the healthy replay below)
        real = boolean_module.complement
        boolean_module.complement = lambda a, alphabet=None: real(real(a, alphabet), alphabet)
        try:
            broken = run_fuzz(FuzzSettings(
                budget_seconds=60, seed=0, checks=("boolean",), max_cases=4,
                corpus_dir=str(corpus_dir),
            ))
            assert broken.divergences > 0
            # while still broken, replay must fail every stored entry
            replay_broken = replay_corpus(corpus_dir)
            assert replay_broken.replayed == len(list(Corpus(corpus_dir).paths()))
            assert replay_broken.divergences == replay_broken.replayed
        finally:
            boolean_module.complement = real
        # on the healthy tree every entry re-verifies
        replay_healthy = replay_corpus(corpus_dir)
        assert replay_healthy.replayed > 0
        assert replay_healthy.divergences == 0

    def test_broken_fuzzing_does_not_poison_later_replays(
        self, tmp_path, broken_permutation_engine, monkeypatch
    ):
        # the divergent run and the healthy replay share a process; only the
        # private per-run GateRuntime keeps the broken memo entries out of the
        # healthy verdicts
        outcome = run_fuzz(FuzzSettings(
            budget_seconds=120, seed=0, checks=("cross-mode",), max_cases=60,
            corpus_dir=str(tmp_path),
        ))
        assert outcome.divergences > 0
        monkeypatch.undo()  # heal the engine
        replay = replay_corpus(tmp_path)
        assert replay.divergences == 0, replay.findings

    def test_replay_of_missing_directory_raises(self, tmp_path):
        with pytest.raises(CorpusError):
            replay_corpus(tmp_path / "typo")

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            FuzzSettings(checks=("nonsense",))
        with pytest.raises(ValueError):
            FuzzSettings(modes=("nonsense",))
        with pytest.raises(ValueError):
            FuzzSettings(budget_seconds=-1)


# ------------------------------------------------------------------------- API


class TestFuzzApi:
    def test_problem_round_trips_through_json(self):
        problem = FuzzProblem(budget_seconds=2.5, seed=9, checks=("boolean",),
                              max_cases=3, corpus_dir="somewhere")
        assert Problem.from_json(problem.to_json()) == problem

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            FuzzProblem(checks=("nope",))
        with pytest.raises(ValueError):
            FuzzProblem(replay=True)  # replay needs a corpus_dir
        with pytest.raises(ValueError):
            FuzzProblem(max_cases=-1)

    def test_session_runs_a_fuzz_problem(self):
        with Session() as session:
            result = session.run(FuzzProblem(budget_seconds=30, seed=0, max_cases=8))
        assert isinstance(result, FuzzResult)
        assert result.cases == 8
        assert result.divergences == 0
        assert result.exit_code == 0
        assert Result.from_json(result.to_json()) == result

    def test_session_replays_a_corpus(self, tmp_path):
        with Session() as session:
            result = session.run(FuzzProblem(replay=True, corpus_dir=str(tmp_path)))
        assert result.replay
        assert result.replayed == 0
        assert result.exit_code == 0

    def test_campaign_corpus_gate_passes_and_counts(self, tmp_path):
        from repro.api import CampaignProblem

        corpus_dir = tmp_path / "corpus"
        Corpus(corpus_dir).add("cross-mode", {
            "circuit_qasm": to_qasm(Circuit(1).add("x", 0)),
            "reference_qasm": to_qasm(Circuit(1)),
            "input_bits": "0",
            "modes": ["hybrid"],
            "include_path_sum": False,
            "localised_gate": 0,
        })
        problem = CampaignProblem(
            family="bv", size=3, mutants=2, corpus_dir=str(corpus_dir),
            report_path=str(tmp_path / "report.jsonl"),
        )
        with Session(cache_dir="") as session:
            result = session.run(problem)
        assert result.corpus_replayed == 1
        assert result.corpus_failures == 0
        assert result.exit_code == 0

    def test_campaign_corpus_gate_fails_the_run_on_regression(
        self, tmp_path, broken_complement
    ):
        from repro.api import CampaignProblem
        from repro.ta import serialization

        corpus_dir = tmp_path / "corpus"
        left = from_quantum_states([QuantumState.basis_state(1, 0)])
        right = from_quantum_states([QuantumState.basis_state(1, 1)])
        Corpus(corpus_dir).add("boolean", {
            "num_qubits": 1,
            "alphabet": [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
            "left_ta": serialization.to_payload(left),
            "right_ta": serialization.to_payload(right),
            "operations": ["complement"],
            "witness": None,
        })
        problem = CampaignProblem(
            family="bv", size=3, mutants=2, corpus_dir=str(corpus_dir),
            report_path=str(tmp_path / "report.jsonl"),
        )
        with Session(cache_dir="") as session:
            result = session.run(problem)
        assert result.corpus_replayed == 1
        assert result.corpus_failures == 1
        assert result.exit_code == 1


# ------------------------------------------------------------------------- CLI


class TestFuzzCli:
    def test_fuzz_run_exits_zero_on_healthy_tree(self, capsys):
        assert cli_main(["fuzz", "--budget", "30", "--cases", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "10 case(s)" in out
        assert "no divergences" in out

    def test_fuzz_json_document_round_trips(self, capsys):
        assert cli_main(["fuzz", "--budget", "30", "--cases", "5", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        result = Result.from_dict(document)
        assert isinstance(result, FuzzResult)
        assert result.cases == 5

    def test_fuzz_replay_needs_a_directory(self, capsys):
        assert cli_main(["fuzz", "replay"]) == 2
        assert "corpus directory" in capsys.readouterr().err

    def test_fuzz_replay_of_missing_directory_fails(self, tmp_path, capsys):
        assert cli_main(["fuzz", "replay", str(tmp_path / "typo")]) == 2

    def test_fuzz_positional_without_replay_is_rejected(self, tmp_path, capsys):
        # argparse itself rejects a non-'replay' action positional
        with pytest.raises(SystemExit) as info:
            cli_main(["fuzz", str(tmp_path)])
        assert info.value.code == 2

    def test_fuzz_corpus_env_var_is_the_default(self, tmp_path, capsys, monkeypatch):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        monkeypatch.setenv("AUTOQ_REPRO_FUZZ_CORPUS", str(corpus_dir))
        assert cli_main(["fuzz", "replay"]) == 0
        assert "0 corpus entry(ies)" in capsys.readouterr().out

    def test_fuzz_replay_round_trip_through_the_cli(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        real = boolean_module.complement
        boolean_module.complement = lambda a, alphabet=None: real(real(a, alphabet), alphabet)
        try:
            assert cli_main([
                "fuzz", "--budget", "60", "--cases", "4", "--checks", "boolean",
                "--corpus", str(corpus_dir),
            ]) == 1
        finally:
            boolean_module.complement = real
        capsys.readouterr()
        assert cli_main(["fuzz", "replay", str(corpus_dir)]) == 0
        assert "corpus clean" in capsys.readouterr().out

    def test_campaign_corpus_flag_is_rejected_in_matrix_mode(self, tmp_path, capsys):
        assert cli_main([
            "campaign", "--families", "bv", "--sizes", "3",
            "--corpus", str(tmp_path),
        ]) == 2


# ------------------------------------------------------------------ slow sweep


@pytest.mark.fuzz_slow
class TestFuzzSlow:
    """Deeper sweeps excluded from tier-1 (run with ``-m fuzz_slow``)."""

    def test_long_healthy_sweep_with_path_sum(self):
        outcome = run_fuzz(FuzzSettings(
            budget_seconds=120, seed=0, max_cases=150, include_path_sum=True,
        ))
        assert outcome.divergences == 0, outcome.findings

    def test_committed_corpus_replays_clean(self):
        import os

        corpus_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")
        outcome = replay_corpus(corpus_dir)
        assert outcome.replayed > 0
        assert outcome.divergences == 0, outcome.findings
