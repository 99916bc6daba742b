"""The versioned JSON document schema behind every repro entry point.

Every machine-readable document the framework emits — ``Session.run``
results, ``--json`` CLI output, campaign JSONL report lines — is a flat JSON
object carrying the same two-field envelope::

    {"api_version": 1, "kind": "verify", ...}

``api_version`` stamps the schema revision (bump :data:`API_VERSION` on any
incompatible change to a document layout, and record the migration in
``docs/api.md``), and ``kind`` names the document type.  The registries in
this module are the single source of truth for which kinds exist and which
fields each kind must carry; :func:`validate_document` enforces the contract
and is used by both the test suite's golden-schema assertions and
:meth:`repro.api.Result.from_dict` dispatch.

This module deliberately imports nothing from the rest of the package, so
low-level modules (e.g. :mod:`repro.campaign.report`) can stamp documents
without creating import cycles.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "API_VERSION",
    "CAMPAIGN_RECORD_KIND",
    "ERROR_KIND",
    "FUZZ_ENTRY_KIND",
    "PROBLEM_KIND_PREFIX",
    "PROBLEM_KINDS",
    "RESULT_KINDS",
    "TOOL_RESULT_KINDS",
    "REQUIRED_FIELDS",
    "SchemaError",
    "document_kinds",
    "validate_document",
]

#: revision of every document layout this package emits; a bump invalidates
#: old documents *loudly* (``validate_document`` / ``from_json`` reject them).
#: v2: campaign documents gained the ``corpus_replayed``/``corpus_failures``
#: regression-gate fields, and the ``fuzz`` / ``problem/fuzz`` /
#: ``fuzz-entry`` kinds were added.
#: v3: campaign documents gained the robustness counters
#: (``faults_injected``/``retries``/``quarantined_entries``/``store_disabled``)
#: and campaign-job records the ``retried``/``faults`` fields
#: (see ``docs/api.md`` for the migrations).
#: v4: campaign documents gained the distributed-fabric counters
#: (``backend_hits``/``cells_claimed``/``cells_stolen``/``cells_requeued``/
#: ``lease_renewals``) and the ``campaign-join`` tool kind was added
#: (see ``docs/api.md`` / ``docs/distributed.md``).  Within v4,
#: ``backend_hits`` always reads 0: the remote store transport it counted
#: was deleted.
API_VERSION = 4

#: kinds with a dedicated dataclass in :mod:`repro.api.results`
RESULT_KINDS: Tuple[str, ...] = (
    "verify",
    "equivalence",
    "bughunt",
    "simulate",
    "campaign",
    "fuzz",
)

#: auxiliary CLI tool documents, carried by the generic
#: :class:`repro.api.ToolResult` (``{"kind": <kind>, "data": {...}}``)
TOOL_RESULT_KINDS: Tuple[str, ...] = (
    "generate",
    "inject",
    "stats",
    "export-ta",
    "baselines",
    "campaign-matrix",
    "campaign-join",
    "campaign-ls",
    "cache-stats",
    "cache-gc",
    "cache-clear",
    "serve",
)

#: one line of a campaign JSONL report (fields: ``repro.campaign.report.REPORT_FIELDS``)
CAMPAIGN_RECORD_KIND = "campaign-job"

#: one minimized regression scenario on disk (``repro.fuzz.corpus``): a
#: content-addressed JSON file that ``repro fuzz replay`` re-executes
FUZZ_ENTRY_KIND = "fuzz-entry"

#: machine-readable failure envelope: ``--json`` CLI error paths and every
#: non-200 service response carry this kind instead of free-text stderr.
#: Deliberately *not* part of :data:`RESULT_KINDS` — there is no
#: ``problem/error`` request, errors only ever travel as responses.
ERROR_KIND = "error"

#: problem documents use ``"kind": "problem/<name>"`` so a request can never
#: be mistaken for a result on the wire
PROBLEM_KIND_PREFIX = "problem/"
PROBLEM_KINDS: Tuple[str, ...] = tuple(
    PROBLEM_KIND_PREFIX + kind for kind in RESULT_KINDS
)

#: fields (beyond the envelope) every document of a kind must carry; the
#: typed result/problem dataclasses are generated-from/checked-against this
#: in the API-surface snapshot test
REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "verify": (
        "holds", "check", "witness", "witness_kind", "mode", "benchmark",
        "description", "circuit_qubits", "circuit_gates",
        "precondition_summary", "output_summary", "statistics",
        "comparison_seconds",
    ),
    "equivalence": (
        "non_equivalent", "witness", "witness_side", "mode",
        "analysis_seconds", "comparison_seconds",
    ),
    "bughunt": (
        "bug_found", "iterations", "total_seconds", "witness", "witness_side",
        "final_input_size", "per_iteration_seconds", "mode",
        "injected_mutation",
    ),
    "simulate": ("num_qubits", "num_gates", "amplitudes"),
    "campaign": (
        "benchmark", "mode", "workers", "jobs", "holds", "violated",
        "unsupported", "errors", "cache_hits", "analysis_seconds",
        "wall_seconds", "report_path", "reference_violated", "phase_seconds",
        "store_hits", "store_misses", "store_publishes",
        "corpus_replayed", "corpus_failures",
        "faults_injected", "retries", "quarantined_entries", "store_disabled",
        "backend_hits", "cells_claimed", "cells_stolen", "cells_requeued",
        "lease_renewals",
    ),
    "fuzz": (
        "cases", "prefiltered", "divergences", "corpus_entries", "findings",
        "elapsed_seconds", "budget_seconds", "seed", "checks", "replay",
        "replayed",
    ),
    FUZZ_ENTRY_KIND: (
        "entry_id", "check", "seed", "detail", "mutation", "payload",
    ),
    CAMPAIGN_RECORD_KIND: (
        "job_id", "benchmark", "mode", "mutation_kind", "mutation", "seed",
        "num_qubits", "num_gates", "circuit_fingerprint",
        "precondition_fingerprint", "postcondition_fingerprint", "verdict",
        "witness", "witness_kind", "error", "statistics",
        "comparison_seconds", "elapsed_seconds", "cached", "deduplicated",
        "retried", "faults",
    ),
    #: ``error``: short machine slug ("invalid-request", "os-error", ...);
    #: ``message``: human-readable detail; ``code``: CLI exit status or HTTP
    #: status, whichever front-end produced the envelope
    ERROR_KIND: ("error", "message", "code"),
}
#: generic tool documents all share one required payload field
for _kind in TOOL_RESULT_KINDS:
    REQUIRED_FIELDS[_kind] = ("data",)
del _kind


class SchemaError(ValueError):
    """A document does not match the versioned schema."""


def document_kinds() -> Tuple[str, ...]:
    """Every ``kind`` value a document may carry (sorted, for snapshots)."""
    return tuple(sorted(
        set(RESULT_KINDS) | set(TOOL_RESULT_KINDS)
        | {CAMPAIGN_RECORD_KIND, FUZZ_ENTRY_KIND, ERROR_KIND} | set(PROBLEM_KINDS)
    ))


def validate_document(document: Mapping, kind: Optional[str] = None) -> Mapping:
    """Check the envelope and per-kind required fields; returns ``document``.

    Raises :class:`SchemaError` when ``document`` is not a mapping, carries a
    missing/foreign ``api_version``, an unknown ``kind`` (or not the expected
    ``kind``), or lacks a required field.  Problem documents
    (``kind="problem/..."``) only have their envelope checked here — their
    field constraints live in the :mod:`repro.api.problems` constructors.
    """
    if not isinstance(document, Mapping):
        raise SchemaError(f"expected a JSON object, got {type(document).__name__}")
    version = document.get("api_version")
    if version != API_VERSION:
        raise SchemaError(
            f"api_version {version!r} is not the supported version {API_VERSION}"
        )
    actual = document.get("kind")
    if actual not in document_kinds():
        raise SchemaError(f"unknown document kind {actual!r}")
    if kind is not None and actual != kind:
        raise SchemaError(f"expected a {kind!r} document, got {actual!r}")
    for field in REQUIRED_FIELDS.get(actual, ()):
        if field not in document:
            raise SchemaError(f"{actual!r} document is missing required field {field!r}")
    return document
