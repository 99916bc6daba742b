"""Parallel bug-hunting campaigns (the paper's Tables 2-3 workload at scale).

A *campaign* sweeps a whole family of mutated circuits against one
``{P} C {Q}`` specification: a benchmark family instance (from
:mod:`repro.benchgen`) is mutated many times (via
:mod:`repro.circuits.mutations`), every mutant is verified against the family's
pre-/post-condition automata, and the structured verdicts are streamed into a
JSON-lines report.  Jobs fan out over a :mod:`multiprocessing` worker pool and
a persistent on-disk cache keyed by ``(circuit fingerprint, precondition
fingerprint, mode)`` lets re-runs skip already-verified jobs.

A *matrix* campaign (:mod:`repro.campaign.scheduler`) lifts this one level up,
to the shape of the paper's evaluation tables: a declarative
:class:`MatrixSpec` (families × sizes × modes, from a TOML/JSON file or CLI
flags) expands into one campaign per cell, cells are scheduled cheapest-first
over a shared worker pool, and every cell is claimed and published through
the campaign's lease queue (:mod:`repro.dist.queue`) so ``campaign --resume
<id>`` skips completed cells and re-queues interrupted ones; the
:class:`~repro.campaign.manifest.CampaignManifest` records the sweep itself.
"""

from .cache import (
    ResultCache,
    atomic_write_json,
    default_cache_dir,
    fingerprint_circuit,
    resolve_store_dir,
)
from .manifest import CampaignManifest, ManifestError, default_manifest_dir, list_campaign_ids
from .plan import CampaignJob, MutationPlan
from .report import CampaignReportWriter, format_cell_table, read_report, summarise_records
from .runner import Campaign, CampaignConfig, CampaignSummary, run_campaign
from .scheduler import (
    JoinRunResult,
    MatrixCell,
    MatrixRunResult,
    MatrixScheduler,
    MatrixSpec,
    estimate_cell_cost,
    parse_sizes,
)

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignSummary",
    "run_campaign",
    "CampaignJob",
    "MutationPlan",
    "ResultCache",
    "default_cache_dir",
    "resolve_store_dir",
    "fingerprint_circuit",
    "atomic_write_json",
    "CampaignReportWriter",
    "read_report",
    "summarise_records",
    "format_cell_table",
    "CampaignManifest",
    "ManifestError",
    "default_manifest_dir",
    "list_campaign_ids",
    "MatrixCell",
    "MatrixSpec",
    "MatrixScheduler",
    "MatrixRunResult",
    "JoinRunResult",
    "estimate_cell_cost",
    "parse_sizes",
]
