"""JSON-lines campaign reports and sweep summary tables.

One line per verification job, flushed as soon as the verdict is known, so a
running campaign can be tailed (``tail -f report.jsonl``) and a crashed one
loses at most the in-flight jobs.  :func:`summarise_records` aggregates a
report back into the campaign-level counters printed by the CLI, and
:func:`format_cell_table` renders the per-cell roll-up a matrix sweep
(:mod:`repro.campaign.scheduler`) prints when it finishes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

__all__ = [
    "REPORT_FIELDS",
    "CampaignReportWriter",
    "read_report",
    "summarise_records",
    "format_cell_table",
]

#: the keys every report line carries (schema contract checked by the tests);
#: ``api_version`` and ``kind`` are the envelope of the versioned service-layer
#: schema (:mod:`repro.api.schema`) — the writer stamps them on every line so a
#: JSONL record validates as a ``campaign-job`` document
REPORT_FIELDS = (
    "api_version",
    "kind",
    "job_id",
    "benchmark",
    "mode",
    "mutation_kind",
    "mutation",
    "seed",
    "num_qubits",
    "num_gates",
    "circuit_fingerprint",
    "precondition_fingerprint",
    "postcondition_fingerprint",
    "verdict",  # "holds" | "violated" | "unsupported" | "error"
    "witness",
    "witness_kind",
    "error",
    "statistics",
    "comparison_seconds",
    "elapsed_seconds",
    "cached",
    "deduplicated",  # verdict reused from an identical in-run mutant
    "retried",  # times this job was re-queued after a dead worker / injected fault
    "faults",  # worker-side robustness counters: injected/quarantined/store_retries/store_disabled
)


class CampaignReportWriter:
    """Streams result records to a JSONL file (context-manager)."""

    def __init__(self, path: str):
        self.path = path
        self._handle = None
        self.lines_written = 0

    def __enter__(self) -> "CampaignReportWriter":
        self._handle = open(self.path, "w", encoding="utf-8")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def write(self, record: Dict) -> Dict:
        """Append one record (missing schema fields are filled with ``None``).

        Every line is stamped with the current ``api_version`` and the
        ``campaign-job`` document kind, even when the verdict was replayed
        from a cache entry written by an older version.  Returns the stamped
        document exactly as written, so callers (e.g. the service daemon's
        SSE stream) can forward the wire form without re-deriving it.
        """
        if self._handle is None:
            raise RuntimeError("report writer used outside its context manager")
        from ..api.schema import API_VERSION, CAMPAIGN_RECORD_KIND

        full = {key: record.get(key) for key in REPORT_FIELDS}
        full["api_version"] = API_VERSION
        full["kind"] = CAMPAIGN_RECORD_KIND
        self._handle.write(json.dumps(full, sort_keys=True) + "\n")
        self._handle.flush()
        self.lines_written += 1
        return full


def read_report(path: str) -> List[Dict]:
    """Load every record of a JSONL report."""
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def summarise_records(records: Iterable[Dict], wall_seconds: Optional[float] = None) -> Dict:
    """Aggregate report records into the campaign-level counters."""
    records = list(records)
    verdicts = [record.get("verdict") for record in records]
    # only count analysis actually performed by this run: cached and
    # deduplicated records carry another job's timings, which would make
    # cheap re-runs (or colliding mutants) look heavy
    analysis = 0.0
    phase_totals: Dict[str, float] = {}
    store_totals = {"store_hits": 0, "store_misses": 0, "store_publishes": 0}
    faults_injected = 0
    retries = 0
    quarantined = 0
    store_disabled = False
    for record in records:
        # robustness counters count even on cached/deduplicated records: a
        # re-queued job whose verdict was then served from the cache still
        # cost a retry, and hiding it would make chaos runs look clean
        retries += int(record.get("retried") or 0)
        faults = record.get("faults") or {}
        faults_injected += int(faults.get("injected") or 0)
        retries += int(faults.get("store_retries") or 0)
        quarantined += int(faults.get("quarantined") or 0)
        store_disabled = store_disabled or bool(faults.get("store_disabled"))
        if record.get("cached") or record.get("deduplicated"):
            continue
        statistics = record.get("statistics") or {}
        store_disabled = store_disabled or bool(statistics.get("store_disabled"))
        analysis += float(statistics.get("analysis_seconds") or 0.0)
        for phase, seconds in (statistics.get("phase_seconds") or {}).items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + float(seconds)
        for key in store_totals:
            store_totals[key] += int(statistics.get(key) or 0)
    summary = {
        "jobs": len(records),
        "holds": verdicts.count("holds"),
        "violated": verdicts.count("violated"),
        # mutants no encoding under this mode can express (permutation-only
        # cells hit these) — distinct from crashes, which taint the sweep
        "unsupported": verdicts.count("unsupported"),
        "errors": verdicts.count("error"),
        "cache_hits": sum(1 for record in records if record.get("cached")),
        "analysis_seconds": analysis,
        "phase_seconds": phase_totals,
        # cross-process automaton-store traffic of the freshly verified jobs
        **store_totals,
        # robustness roll-up (see docs/robustness.md): injected faults seen
        # by workers, job re-queues + store I/O retries, quarantined store
        # entries, and whether any worker's store tier degraded itself
        "faults_injected": faults_injected,
        "retries": retries,
        "quarantined_entries": quarantined,
        "store_disabled": store_disabled,
    }
    if wall_seconds is not None:
        summary["wall_seconds"] = wall_seconds
    return summary


#: (header, row key, right-align?) columns of the matrix sweep table
_CELL_COLUMNS = (
    ("cell", "cell", False),
    ("jobs", "jobs", True),
    ("holds", "holds", True),
    ("violated", "violated", True),
    ("unsup", "unsupported", True),
    ("errors", "errors", True),
    ("cache", "cache_hits", True),
    ("wall_s", "wall_seconds", True),
    ("note", "note", False),
)


def format_cell_table(rows: Iterable[Dict], totals: Optional[Dict] = None) -> str:
    """Render matrix sweep rows (see ``MatrixScheduler.run``) as an aligned
    text table, with an optional ``total`` footer line.

    Each row's ``note`` flags what a reader must not miss: ``resumed`` for
    cells whose verdicts were reused from the manifest, ``REF-VIOLATED`` when
    the unmutated reference circuit failed its own specification.
    """
    prepared: List[Dict] = []
    for row in rows:
        notes = []
        if row.get("reused"):
            notes.append("resumed")
        if row.get("reference_violated"):
            notes.append("REF-VIOLATED")
        prepared.append({**row, "note": ",".join(notes)})
    if totals is not None:
        prepared.append({"cell": "total", "note": "", **totals})

    def cell_text(row: Dict, key: str) -> str:
        value = row.get(key, "")
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    widths = {
        header: max(len(header), *(len(cell_text(row, key)) for row in prepared))
        for header, key, _align in _CELL_COLUMNS
    }
    lines = ["  ".join(header.ljust(widths[header]) for header, _k, _a in _CELL_COLUMNS).rstrip()]
    lines.append("  ".join("-" * widths[header] for header, _k, _a in _CELL_COLUMNS).rstrip())
    for row in prepared:
        parts = []
        for header, key, right in _CELL_COLUMNS:
            text = cell_text(row, key)
            parts.append(text.rjust(widths[header]) if right else text.ljust(widths[header]))
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines)
