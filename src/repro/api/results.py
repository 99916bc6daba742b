"""Typed result objects sharing one versioned JSON schema.

Every :meth:`repro.api.Session.run` call returns one of these dataclasses;
``to_json``/``from_json`` round-trip each through the flat document form
described in :mod:`repro.api.schema` (``api_version`` + ``kind`` envelope),
which is the exact shape the CLI prints under ``--json``.  Deserialization
dispatches on ``kind``: ``Result.from_json(text)`` rebuilds the right class
from any document the framework emits.

Witness quantum states are carried as their ``repr`` strings — results are a
wire format, and diagnosing a witness (``repro.core.diagnosis``) happens on
the machine that holds the automata, not from the serialized verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Optional

from ..core.engine import EngineStatistics
from .schema import (
    API_VERSION,
    ERROR_KIND,
    SchemaError,
    TOOL_RESULT_KINDS,
    validate_document,
)

__all__ = [
    "Result",
    "VerifyResult",
    "EquivalenceResult",
    "BugHuntResult",
    "SimulateResult",
    "CampaignResult",
    "FuzzResult",
    "ToolResult",
    "ErrorResult",
]


@dataclass
class Result:
    """Base class: envelope handling + ``kind``-dispatched deserialization."""

    KIND: ClassVar[str] = ""

    @property
    def kind(self) -> str:
        return self.KIND

    @property
    def exit_code(self) -> int:
        """The process exit status a CLI front-end should report (0 = fine)."""
        return 0

    def _payload(self) -> Dict:
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, EngineStatistics):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    def to_dict(self) -> Dict:
        return {"api_version": API_VERSION, "kind": self.kind, **self._payload()}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON (sorted keys) — byte-stable round-trips."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, document: Dict) -> "Result":
        """Rebuild the typed result for any known document kind."""
        validate_document(document)
        kind = document["kind"]
        if kind in TOOL_RESULT_KINDS:
            target = ToolResult
        else:
            target = _RESULT_CLASSES.get(kind)
        if target is None:
            raise SchemaError(f"document kind {kind!r} is not a result")
        if cls is not Result and cls is not target:
            raise SchemaError(f"{kind!r} document does not describe a {cls.__name__}")
        return target._from_document(document)

    @classmethod
    def from_json(cls, text: str) -> "Result":
        return cls.from_dict(json.loads(text))

    @classmethod
    def _from_document(cls, document: Dict) -> "Result":
        kwargs = {}
        for spec in fields(cls):
            if spec.name not in document:
                continue
            value = document[spec.name]
            if spec.name == "statistics" and value is not None:
                value = EngineStatistics.from_dict(value)
            kwargs[spec.name] = value
        return cls(**kwargs)


@dataclass
class VerifyResult(Result):
    """Outcome of a :class:`~repro.api.VerifyProblem` (``{P} C {Q}`` check)."""

    holds: bool = False
    #: "equivalence" or "inclusion" depending on how Q was compared
    check: str = "equivalence"
    witness: Optional[str] = None
    witness_kind: Optional[str] = None
    mode: str = "hybrid"
    #: family benchmark name (None for file/inline circuit sources)
    benchmark: Optional[str] = None
    description: Optional[str] = None
    circuit_qubits: int = 0
    circuit_gates: int = 0
    precondition_summary: Optional[str] = None
    output_summary: Optional[str] = None
    statistics: Optional[EngineStatistics] = None
    comparison_seconds: float = 0.0

    KIND: ClassVar[str] = "verify"

    def __bool__(self) -> bool:
        return self.holds

    @property
    def exit_code(self) -> int:
        return 0 if self.holds else 1


@dataclass
class EquivalenceResult(Result):
    """Outcome of an :class:`~repro.api.EquivalenceProblem` (output-set comparison)."""

    non_equivalent: bool = False
    witness: Optional[str] = None
    #: which circuit reaches the witness: "first-only" or "second-only"
    witness_side: Optional[str] = None
    mode: str = "hybrid"
    analysis_seconds: float = 0.0
    comparison_seconds: float = 0.0

    KIND: ClassVar[str] = "equivalence"

    def __bool__(self) -> bool:
        return self.non_equivalent

    @property
    def exit_code(self) -> int:
        return 1 if self.non_equivalent else 0


@dataclass
class BugHuntResult(Result):
    """Outcome of a :class:`~repro.api.BugHuntProblem` (incremental hunt)."""

    bug_found: bool = False
    iterations: int = 0
    total_seconds: float = 0.0
    witness: Optional[str] = None
    witness_side: Optional[str] = None
    final_input_size: int = 0
    per_iteration_seconds: List[float] = field(default_factory=list)
    mode: str = "hybrid"
    #: repr of the injected mutation, when the problem used ``inject_seed``
    injected_mutation: Optional[str] = None

    KIND: ClassVar[str] = "bughunt"

    def __bool__(self) -> bool:
        return self.bug_found

    @property
    def exit_code(self) -> int:
        return 1 if self.bug_found else 0


@dataclass
class SimulateResult(Result):
    """Outcome of a :class:`~repro.api.SimulateProblem` (exact simulation).

    ``amplitudes`` holds one entry per nonzero basis amplitude:
    ``{"basis": "01", "amplitude": "<exact algebraic repr>",
    "approx": [re, im]}``.
    """

    num_qubits: int = 0
    num_gates: int = 0
    amplitudes: List[Dict] = field(default_factory=list)

    KIND: ClassVar[str] = "simulate"


@dataclass
class CampaignResult(Result):
    """Outcome of a :class:`~repro.api.CampaignProblem` (mutant sweep).

    Field-for-field the JSON form of
    :class:`repro.campaign.runner.CampaignSummary`; the exit-code contract is
    the campaign one — finding violated mutants is the *purpose*, so only
    crashed jobs or a self-violating reference taint the run.
    """

    benchmark: str = ""
    mode: str = "hybrid"
    workers: int = 1
    jobs: int = 0
    holds: int = 0
    violated: int = 0
    unsupported: int = 0
    errors: int = 0
    cache_hits: int = 0
    analysis_seconds: float = 0.0
    wall_seconds: float = 0.0
    report_path: str = ""
    reference_violated: bool = False
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    store_hits: int = 0
    store_misses: int = 0
    store_publishes: int = 0
    #: fuzz regression gate (0/0 when the campaign ran without a corpus)
    corpus_replayed: int = 0
    corpus_failures: int = 0
    #: robustness roll-up (see ``docs/robustness.md``); mirrors
    #: ``CampaignSummary``: injected faults, job re-queues + store retries,
    #: quarantined store entries, store-tier self-degradation
    faults_injected: int = 0
    retries: int = 0
    quarantined_entries: int = 0
    store_disabled: bool = False
    #: distributed-fabric counters (``docs/distributed.md``): for cells run
    #: under the fabric queue, claim generations, steals, re-queues, and
    #: lease renewals.  ``backend_hits`` is always 0; it stays only so that
    #: ``campaign`` documents keep their v4 shape.
    backend_hits: int = 0
    cells_claimed: int = 0
    cells_stolen: int = 0
    cells_requeued: int = 0
    lease_renewals: int = 0

    KIND: ClassVar[str] = "campaign"

    @classmethod
    def from_summary(cls, summary) -> "CampaignResult":
        """Lift a :class:`~repro.campaign.runner.CampaignSummary`."""
        return cls(**summary.to_dict())

    @property
    def exit_code(self) -> int:
        return 1 if self.errors or self.reference_violated or self.corpus_failures else 0


@dataclass
class FuzzResult(Result):
    """Outcome of a :class:`~repro.api.FuzzProblem` (fuzz run or corpus replay).

    ``findings`` holds one flattened
    :class:`~repro.fuzz.oracles.OracleVerdict` row per divergence (plus the
    stored ``entry_id`` and the localised gate, when known);
    ``corpus_entries`` lists the content addresses written this run.  For
    replay runs, ``replayed`` counts re-executed entries and every finding is
    a regression.
    """

    cases: int = 0
    prefiltered: int = 0
    divergences: int = 0
    corpus_entries: List[str] = field(default_factory=list)
    findings: List[Dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    budget_seconds: float = 0.0
    seed: int = 0
    checks: List[str] = field(default_factory=list)
    replay: bool = False
    replayed: int = 0

    KIND: ClassVar[str] = "fuzz"

    def __bool__(self) -> bool:
        return bool(self.divergences)

    @property
    def exit_code(self) -> int:
        # divergences are engine bugs (or corpus regressions), never success
        return 1 if self.divergences else 0


@dataclass
class ToolResult(Result):
    """Generic envelope for auxiliary CLI documents (stats, generate, cache …).

    ``tool`` is the document kind (one of
    :data:`repro.api.schema.TOOL_RESULT_KINDS`) and ``data`` its payload;
    these documents have no cross-version field contract beyond the envelope,
    which keeps one-off tool output cheap to add without widening the typed
    result surface.
    """

    tool: str = ""
    data: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tool not in TOOL_RESULT_KINDS:
            raise ValueError(
                f"unknown tool result kind {self.tool!r}; expected one of {TOOL_RESULT_KINDS}"
            )

    @property
    def kind(self) -> str:
        return self.tool

    @property
    def exit_code(self) -> int:
        """Tool kinds that carry a failure signal expose it here too, so a
        deserialized document reports the same status the CLI exited with."""
        if self.tool == "baselines":
            return 1 if self.data.get("any_difference") else 0
        if self.tool == "campaign-matrix":
            return 0 if self.data.get("trustworthy", True) else 1
        return 0

    def _payload(self) -> Dict:
        return {"data": self.data}

    @classmethod
    def _from_document(cls, document: Dict) -> "ToolResult":
        return cls(tool=document["kind"], data=document.get("data") or {})


@dataclass
class ErrorResult(Result):
    """Machine-readable failure envelope (kind ``"error"``).

    Emitted instead of free-text stderr whenever a ``--json`` CLI invocation
    fails, and as the body of every non-200 service response.  ``error`` is a
    short stable slug callers can dispatch on ("invalid-request", "os-error",
    "manifest-error", "timeout", "saturated", "not-found", "internal");
    ``message`` carries the human-readable detail.  ``code`` is the numeric
    status of whichever front-end produced the envelope — the CLI exit status
    or the HTTP response status — so the same document explains both.
    """

    error: str = "internal"
    message: str = ""
    code: int = 2

    KIND: ClassVar[str] = ERROR_KIND

    @property
    def exit_code(self) -> int:
        # HTTP statuses (>= 100) don't survive the 8-bit process exit space;
        # a relayed remote failure exits with the generic usage-error status.
        return self.code if 0 < self.code < 100 else 2


_RESULT_CLASSES: Dict[str, type] = {
    cls.KIND: cls
    for cls in (VerifyResult, EquivalenceResult, BugHuntResult, SimulateResult,
                CampaignResult, FuzzResult, ErrorResult)
}
