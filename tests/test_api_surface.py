"""Public-API surface snapshot: fail loudly on unreviewed drift.

The service layer (:mod:`repro.api`) is a wire contract — distributed
campaign workers, scripts, and the CLI all speak its schema.  These tests
pin the exported names, the document kinds, the per-kind required fields,
and the schema version, so any change to the surface shows up as an explicit
snapshot update in review (and forces the author to think about whether
``API_VERSION`` must be bumped).

When a test here fails because you *intentionally* changed the surface:

1. decide whether the change is compatible (pure addition) or breaking
   (renamed/removed field, changed meaning) — breaking changes must bump
   ``repro.api.schema.API_VERSION`` and be documented in ``docs/api.md``;
2. update the snapshot below in the same commit.
"""

import repro
import repro.api as api
from repro.api import schema
from repro.campaign.report import REPORT_FIELDS

#: the one and only place the expected schema version is spelled out in tests
EXPECTED_API_VERSION = 4

EXPECTED_API_ALL = [
    "API_VERSION",
    "BugHuntProblem",
    "BugHuntResult",
    "CampaignProblem",
    "CampaignResult",
    "CircuitSource",
    "ConditionSpec",
    "EquivalenceProblem",
    "EquivalenceResult",
    "ErrorResult",
    "FuzzProblem",
    "FuzzResult",
    "Problem",
    "Result",
    "SchemaError",
    "Session",
    "SessionConfig",
    "SimulateProblem",
    "SimulateResult",
    "ToolResult",
    "VerifyProblem",
    "VerifyResult",
    "document_kinds",
    "validate_document",
]

EXPECTED_DOCUMENT_KINDS = [
    "baselines",
    "bughunt",
    "cache-clear",
    "cache-gc",
    "cache-stats",
    "campaign",
    "campaign-job",
    "campaign-join",
    "campaign-ls",
    "campaign-matrix",
    "equivalence",
    "error",
    "export-ta",
    "fuzz",
    "fuzz-entry",
    "generate",
    "inject",
    "problem/bughunt",
    "problem/campaign",
    "problem/equivalence",
    "problem/fuzz",
    "problem/simulate",
    "problem/verify",
    "serve",
    "simulate",
    "stats",
    "verify",
]


#: ``repro.core.engine`` exports; ``perfbench/tracer.py`` imports
#: ``default_gate_runtime`` from there to read the pool workers' memo
EXPECTED_ENGINE_ALL = [
    "AnalysisMode",
    "CircuitEngine",
    "EngineResult",
    "EngineStatistics",
    "GateRuntime",
    "default_gate_runtime",
    "run_circuit",
]


class TestSurfaceSnapshot:
    def test_api_version_is_pinned(self):
        assert api.API_VERSION == EXPECTED_API_VERSION
        assert schema.API_VERSION == EXPECTED_API_VERSION

    def test_api_all_is_pinned(self):
        assert sorted(api.__all__) == EXPECTED_API_ALL

    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_document_kinds_are_pinned(self):
        assert list(schema.document_kinds()) == EXPECTED_DOCUMENT_KINDS

    def test_top_level_package_reexports_the_service_layer(self):
        for name in ("api", "API_VERSION", "Session", "SessionConfig", "Problem",
                     "CircuitSource", "ConditionSpec", "VerifyProblem",
                     "EquivalenceProblem", "BugHuntProblem", "SimulateProblem",
                     "CampaignProblem"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


class TestRequiredFieldContracts:
    def test_every_kind_has_a_field_contract(self):
        for kind in schema.RESULT_KINDS + schema.TOOL_RESULT_KINDS:
            assert kind in schema.REQUIRED_FIELDS, kind
        assert schema.CAMPAIGN_RECORD_KIND in schema.REQUIRED_FIELDS

    def test_typed_result_fields_match_the_schema_contract(self):
        """REQUIRED_FIELDS and the dataclasses can never drift apart."""
        from dataclasses import fields

        from repro.api.results import (
            BugHuntResult,
            CampaignResult,
            EquivalenceResult,
            ErrorResult,
            FuzzResult,
            SimulateResult,
            VerifyResult,
        )

        for cls in (VerifyResult, EquivalenceResult, BugHuntResult,
                    SimulateResult, CampaignResult, FuzzResult, ErrorResult):
            declared = {spec.name for spec in fields(cls)}
            assert declared == set(schema.REQUIRED_FIELDS[cls.KIND]), cls.KIND

    def test_campaign_record_contract_matches_report_fields(self):
        envelope = {"api_version", "kind"}
        assert set(REPORT_FIELDS) - envelope == set(
            schema.REQUIRED_FIELDS[schema.CAMPAIGN_RECORD_KIND]
        )

    def test_empty_results_emit_schema_valid_documents(self):
        from repro.api.results import (
            BugHuntResult,
            CampaignResult,
            EquivalenceResult,
            ErrorResult,
            FuzzResult,
            SimulateResult,
            VerifyResult,
        )

        for cls in (VerifyResult, EquivalenceResult, BugHuntResult,
                    SimulateResult, CampaignResult, FuzzResult, ErrorResult):
            schema.validate_document(cls().to_dict(), kind=cls.KIND)


class TestEngineHooks:
    """The engine and campaign names the traced benchmark imports and wraps."""

    def test_engine_all_is_pinned(self):
        from repro.core import engine

        assert sorted(engine.__all__) == EXPECTED_ENGINE_ALL

    def test_worker_runtime_imports_from_the_engine(self):
        from repro.core.engine import GateRuntime, default_gate_runtime

        assert isinstance(default_gate_runtime(), GateRuntime)

    def test_execute_job_takes_a_job_and_an_optional_runtime(self):
        import inspect

        from repro.campaign.runner import execute_job

        parameters = inspect.signature(execute_job).parameters
        assert list(parameters) == ["job", "runtime"]
        assert parameters["runtime"].default is None
