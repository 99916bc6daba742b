"""The :class:`Session` runtime: one object owning all run configuration.

A ``Session`` gathers run configuration — cache and store directories,
worker count, fault plan — behind one façade:

* it owns a private :class:`~repro.core.engine.GateRuntime` (gate memo + the
  optional cross-process automaton store) for its verify, equivalence,
  bug-hunt and fuzz problems, so nothing a session does can leak into
  another session or a test; campaigns and matrix sweeps build their own
  runtimes on the configured store and never touch the session's;
* :meth:`Session.run` accepts any :class:`~repro.api.problems.Problem` and
  returns the matching typed :class:`~repro.api.results.Result`;
* it is a context manager — leaving the ``with`` block resets the runtime, so
  configuration cannot outlive the session.

Example::

    from repro.api import Session, VerifyProblem, CircuitSource

    with Session(workers=4) as session:
        result = session.run(VerifyProblem(circuit=CircuitSource.from_family("bv", 4)))
        print(result.to_json())
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from ..campaign.runner import Campaign, CampaignConfig
from ..campaign.scheduler import MatrixRunResult, MatrixScheduler, MatrixSpec
from ..circuits import inject_random_gate
from ..core.engine import GateRuntime
from ..core.equivalence import IncrementalBugHunter, check_circuit_equivalence
from ..core.verification import verify_triple
from ..faults import FaultPlan
from ..simulator import StateVectorSimulator
from ..states import QuantumState
from ..ta import all_basis_states_ta
from ..ta.store import open_store
from .problems import (
    BugHuntProblem,
    CampaignProblem,
    EquivalenceProblem,
    FuzzProblem,
    Problem,
    SimulateProblem,
    VerifyProblem,
)
from .results import (
    BugHuntResult,
    CampaignResult,
    EquivalenceResult,
    FuzzResult,
    Result,
    SimulateResult,
    VerifyResult,
)

__all__ = ["SessionConfig", "Session"]


@dataclass(frozen=True)
class SessionConfig:
    """Everything about *how* problems run (never *what* runs — see Problem).

    ``cache_dir``/``store_dir`` follow the campaign conventions: ``None``
    means "the default location" for campaign problems (direct
    verify/equivalence/bughunt runs leave the store off unless ``store_dir``
    names a directory), and ``""`` disables the tier outright.
    """

    #: campaign result-cache directory (None = default, "" = disabled)
    cache_dir: Optional[str] = None
    #: cross-process automaton store directory; campaigns resolve ``None`` to
    #: the default store, direct runs attach a store only when one is named
    store_dir: Optional[str] = None
    #: worker processes for campaign problems (1 = run in-process)
    workers: int = 1
    #: front-ends render per-phase timing breakdowns when set (the engine
    #: always *records* phase timings into ``EngineStatistics``; this flag is
    #: the one switch front-ends sharing a session consult to display them)
    profile: bool = False
    #: campaign-matrix manifest directory (None = default)
    manifest_dir: Optional[str] = None
    #: campaign-matrix per-cell report directory
    report_dir: str = "campaign_reports"
    #: deterministic fault-injection plan for chaos testing (see
    #: ``docs/robustness.md``); ``None`` = the ambient ``AUTOQ_REPRO_FAULTS``
    #: env plan, if any.  Threaded into campaigns (parent + pool workers).
    fault_plan: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


class Session:
    """Runs :class:`Problem` requests under one isolated runtime configuration."""

    def __init__(self, config: Optional[SessionConfig] = None, **overrides):
        self.config = replace(config or SessionConfig(), **overrides)
        # direct (non-campaign) runs use the store only when it is
        # explicitly named; campaigns do their own resolution per run
        self._runtime = GateRuntime(store=open_store(self.config.store_dir or None))
        self._handlers: Dict[type, Callable[[Problem], Result]] = {
            VerifyProblem: self._run_verify,
            EquivalenceProblem: self._run_equivalence,
            BugHuntProblem: self._run_bughunt,
            SimulateProblem: self._run_simulate,
            CampaignProblem: self._run_campaign,
            FuzzProblem: self._run_fuzz,
        }

    # ----------------------------------------------------------- lifecycle
    @property
    def runtime(self) -> GateRuntime:
        """The session's private gate memo + store (never a module global)."""
        return self._runtime

    def close(self) -> None:
        """Reset the runtime: drop the memo and detach the store."""
        self._runtime.reset()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ----------------------------------------------------------- dispatch
    def run(self, problem: Problem) -> Result:
        """Answer any problem shape; returns the matching typed result."""
        handler = self._handlers.get(type(problem))
        if handler is None:
            raise TypeError(
                f"cannot run {type(problem).__name__}; expected one of "
                f"{sorted(cls.__name__ for cls in self._handlers)}"
            )
        return handler(problem)

    # ----------------------------------------------------------- workloads
    def _run_verify(self, problem: VerifyProblem) -> VerifyResult:
        circuit, benchmark = problem.circuit.resolve()
        if problem.precondition is not None:
            precondition = problem.precondition.resolve(circuit.num_qubits)
        else:
            precondition = benchmark.precondition
        if problem.postcondition is not None:
            postcondition = problem.postcondition.resolve(circuit.num_qubits)
        else:
            postcondition = benchmark.postcondition
        outcome = verify_triple(
            precondition, circuit, postcondition,
            mode=problem.mode,
            inclusion_only=problem.inclusion_only,
            runtime=self._runtime,
        )
        return VerifyResult(
            holds=outcome.holds,
            check=outcome.check,
            witness=None if outcome.witness is None else repr(outcome.witness),
            witness_kind=outcome.witness_kind,
            mode=problem.mode,
            benchmark=None if benchmark is None else benchmark.name,
            description=None if benchmark is None else benchmark.description,
            circuit_qubits=circuit.num_qubits,
            circuit_gates=circuit.num_gates,
            precondition_summary=precondition.size_summary(),
            output_summary=outcome.output.size_summary(),
            statistics=outcome.statistics,
            comparison_seconds=outcome.comparison_seconds,
        )

    def _run_equivalence(self, problem: EquivalenceProblem) -> EquivalenceResult:
        first, _ = problem.first.resolve()
        second, _ = problem.second.resolve()
        if problem.inputs is not None:
            inputs = problem.inputs.resolve(first.num_qubits)
        else:
            inputs = all_basis_states_ta(first.num_qubits)
        outcome = check_circuit_equivalence(
            first, second, inputs, mode=problem.mode, runtime=self._runtime
        )
        return EquivalenceResult(
            non_equivalent=outcome.non_equivalent,
            witness=None if outcome.witness is None else repr(outcome.witness),
            witness_side=outcome.witness_side,
            mode=problem.mode,
            analysis_seconds=outcome.analysis_seconds,
            comparison_seconds=outcome.comparison_seconds,
        )

    def _run_bughunt(self, problem: BugHuntProblem) -> BugHuntResult:
        reference, _ = problem.reference.resolve()
        mutation = None
        if problem.candidate is not None:
            candidate, _ = problem.candidate.resolve()
        else:
            candidate, mutation = inject_random_gate(reference, seed=problem.inject_seed)
        hunter = IncrementalBugHunter(
            mode=problem.mode,
            seed=problem.seed,
            max_iterations=problem.max_iterations,
            runtime=self._runtime,
        )
        outcome = hunter.hunt(reference, candidate)
        return BugHuntResult(
            bug_found=outcome.bug_found,
            iterations=outcome.iterations,
            total_seconds=outcome.total_seconds,
            witness=None if outcome.witness is None else repr(outcome.witness),
            witness_side=outcome.witness_side,
            final_input_size=outcome.final_input_size,
            per_iteration_seconds=list(outcome.per_iteration_seconds),
            mode=problem.mode,
            injected_mutation=None if mutation is None else str(mutation),
        )

    def _run_simulate(self, problem: SimulateProblem) -> SimulateResult:
        circuit, _ = problem.circuit.resolve()
        if problem.input_bits is None:
            initial = QuantumState.zero_state(circuit.num_qubits)
        else:
            initial = QuantumState.basis_state(circuit.num_qubits, problem.input_bits)
        output = StateVectorSimulator().run(circuit, initial)
        amplitudes = []
        for bits, amplitude in output.items():
            approx = amplitude.to_complex()
            amplitudes.append({
                "basis": "".join(map(str, bits)),
                "amplitude": str(amplitude),
                "approx": [approx.real, approx.imag],
            })
        return SimulateResult(
            num_qubits=circuit.num_qubits,
            num_gates=circuit.num_gates,
            amplitudes=amplitudes,
        )

    def _run_campaign(self, problem: CampaignProblem) -> CampaignResult:
        return self.run_campaign(problem)

    def _run_fuzz(self, problem: FuzzProblem) -> FuzzResult:
        # imported lazily: repro.fuzz depends on the campaign package, which
        # this module already imports at the top level
        from ..fuzz.driver import FuzzSettings, replay_corpus, run_fuzz

        if problem.replay:
            outcome = replay_corpus(problem.corpus_dir, runtime=self._runtime)
        else:
            settings = FuzzSettings(
                budget_seconds=problem.budget_seconds,
                seed=problem.seed,
                max_qubits=problem.max_qubits,
                max_gates=problem.max_gates,
                checks=problem.checks,
                modes=problem.modes,
                mutation_kinds=problem.mutation_kinds,
                corpus_dir=problem.corpus_dir,
                max_cases=problem.max_cases,
                include_path_sum=problem.include_path_sum,
            )
            outcome = run_fuzz(settings, runtime=self._runtime)
        return FuzzResult(
            cases=outcome.cases,
            prefiltered=outcome.prefiltered,
            divergences=outcome.divergences,
            corpus_entries=list(outcome.corpus_entries),
            findings=list(outcome.findings),
            elapsed_seconds=outcome.elapsed_seconds,
            budget_seconds=problem.budget_seconds,
            seed=problem.seed,
            checks=list(problem.checks),
            replay=problem.replay,
            replayed=outcome.replayed,
        )

    def run_campaign(
        self,
        problem: CampaignProblem,
        on_record: Optional[Callable[[Dict], None]] = None,
    ) -> CampaignResult:
        """Run a campaign, optionally observing each verdict as it lands.

        Identical to ``run(problem)`` except for ``on_record``, which is
        called with every stamped ``campaign-job`` document as soon as it is
        written to the JSONL report — the streaming hook behind the service
        daemon's SSE endpoint and any front-end that wants live progress.
        """
        config = CampaignConfig(
            family=problem.family,
            size=problem.size,
            mutants=problem.mutants,
            mutation_kinds=problem.mutation_kinds,
            mode=problem.mode,
            workers=self.config.workers,
            seed=problem.seed,
            include_reference=problem.include_reference,
            report_path=problem.report_path,
            cache_dir=self.config.cache_dir,
            store_dir=self.config.store_dir,
            corpus_dir=problem.corpus_dir,
            fault_plan=self.config.fault_plan,
        )
        summary = Campaign(config).run(on_record=on_record)
        return CampaignResult.from_summary(summary)

    # ----------------------------------------------------------- matrices
    def run_matrix(
        self,
        spec: MatrixSpec,
        campaign_id: Optional[str] = None,
        resume: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ) -> MatrixRunResult:
        """Drive a whole families × sizes × modes sweep under this session.

        Matrix sweeps return the scheduler's
        :class:`~repro.campaign.scheduler.MatrixRunResult` (per-cell rows +
        totals) rather than a wire ``Result`` — they are an orchestration of
        many campaign problems, each of which already reports through the
        versioned schema in its JSONL records.
        """
        scheduler = self.matrix_scheduler(spec, campaign_id=campaign_id)
        return scheduler.run(resume=resume, progress=progress)

    def matrix_scheduler(
        self, spec: MatrixSpec, campaign_id: Optional[str] = None
    ) -> MatrixScheduler:
        """A :class:`MatrixScheduler` wired to this session's configuration."""
        return MatrixScheduler(
            spec,
            workers=self.config.workers,
            report_dir=self.config.report_dir,
            manifest_dir=self.config.manifest_dir,
            cache_dir=self.config.cache_dir,
            campaign_id=campaign_id,
            store_dir=self.config.store_dir,
            fault_plan=self.config.fault_plan,
        )

    def resume_matrix_scheduler(self, campaign_id: str) -> MatrixScheduler:
        """Rebuild a scheduler from a manifest alone (``campaign --resume``)."""
        return MatrixScheduler.resume(
            campaign_id,
            workers=self.config.workers,
            report_dir=self.config.report_dir,
            manifest_dir=self.config.manifest_dir,
            cache_dir=self.config.cache_dir,
            store_dir=self.config.store_dir,
            fault_plan=self.config.fault_plan,
        )

    def join_matrix_scheduler(self, campaign_id: str) -> MatrixScheduler:
        """Rebuild a scheduler to attach to a running campaign as a fabric
        worker (``campaign --join``); run it with
        :meth:`~repro.campaign.MatrixScheduler.run_join`."""
        return MatrixScheduler.join(
            campaign_id,
            workers=self.config.workers,
            report_dir=self.config.report_dir,
            manifest_dir=self.config.manifest_dir,
            cache_dir=self.config.cache_dir,
            store_dir=self.config.store_dir,
            fault_plan=self.config.fault_plan,
        )
