"""Thread-safe counters for the service daemon, in Prometheus text form.

The daemon answers many concurrent requests on one process, so every counter
here is guarded by a single lock — contention is negligible (a handful of
integer bumps per request) and the rendered ``/metrics`` page is always a
consistent snapshot.

Two kinds of numbers appear on the page:

* **request-level counters** accumulated here as requests finish — totals by
  document kind, failures by error slug, rejections, timeouts, per-kind wall
  seconds, engine gate/analysis totals lifted from each result's
  :class:`~repro.core.engine.EngineStatistics`, campaign job and SSE record
  counts;
* **runtime-level gauges** sampled at scrape time from the shared
  :class:`~repro.core.engine.GateRuntime` via
  :meth:`~repro.core.engine.GateRuntime.stats_snapshot` — gate-memo
  hits/misses/size and, when a cross-process store is attached, its
  hit/miss/publish/reject session counters.

The exposition format is the Prometheus text format (``# HELP`` / ``# TYPE``
plus samples); no client library is required to scrape it.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..faults import active_injector

__all__ = ["ServiceMetrics"]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _sample(name: str, value, labels: Optional[Dict[str, str]] = None) -> str:
    if labels:
        body = ",".join(f'{key}="{_escape(str(val))}"'
                        for key, val in sorted(labels.items()))
        return f"{name}{{{body}}} {value}"
    return f"{name} {value}"


class ServiceMetrics:
    """Mutable counter set shared by every request handler thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests_total: Dict[str, int] = {}
        self.request_seconds_total: Dict[str, float] = {}
        self.failures_total: Dict[str, int] = {}
        self.rejected_total = 0
        self.timeouts_total = 0
        self.in_flight = 0
        self.engine_gates_total = 0
        self.engine_analysis_seconds_total = 0.0
        self.campaign_jobs_total = 0
        self.sse_records_total = 0

    # ------------------------------------------------------------- updates
    def request_started(self) -> None:
        with self._lock:
            self.in_flight += 1

    def request_finished(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.in_flight -= 1
            self.requests_total[kind] = self.requests_total.get(kind, 0) + 1
            self.request_seconds_total[kind] = (
                self.request_seconds_total.get(kind, 0.0) + seconds
            )

    def request_rejected(self) -> None:
        """Count one request refused at admission (never started, so the
        in-flight gauge is untouched)."""
        with self._lock:
            self.failures_total["saturated"] = self.failures_total.get("saturated", 0) + 1
            self.rejected_total += 1

    def request_refused(self, slug: str) -> None:
        """Count one request refused before admission for reason ``slug``
        (e.g. an injected ``service.request`` fault); in-flight untouched."""
        with self._lock:
            self.failures_total[slug] = self.failures_total.get(slug, 0) + 1

    def request_failed(self, error: str) -> None:
        """Count one admitted request whose work ended in failure, by error
        slug."""
        with self._lock:
            self.in_flight -= 1
            self.failures_total[error] = self.failures_total.get(error, 0) + 1

    def request_detached(self, slug: str) -> None:
        """Count one admitted request that ended before its work did, by
        slug: ``timeout`` (answered 504 — the daemon's capacity signal) or
        ``disconnected`` (a stream's consumer left).  The work still runs
        and holds its admission slot, so the in-flight gauge stays up until
        :meth:`work_finished`."""
        with self._lock:
            self.failures_total[slug] = self.failures_total.get(slug, 0) + 1
            if slug == "timeout":
                self.timeouts_total += 1

    def work_finished(self) -> None:
        """The work of a detached request finished; it leaves the gauge."""
        with self._lock:
            self.in_flight -= 1

    def observe_result(self, result) -> None:
        """Fold a finished result's engine numbers into the running totals."""
        statistics = getattr(result, "statistics", None)
        jobs = getattr(result, "jobs", None)
        analysis = getattr(result, "analysis_seconds", None)
        with self._lock:
            if statistics is not None:
                self.engine_gates_total += statistics.gates_total
                self.engine_analysis_seconds_total += statistics.analysis_seconds
            elif analysis is not None:
                self.engine_analysis_seconds_total += analysis
            if jobs is not None:
                self.campaign_jobs_total += jobs

    def record_streamed(self, count: int = 1) -> None:
        with self._lock:
            self.sse_records_total += count

    # ------------------------------------------------------------ rendering
    def render(self, runtime_snapshot: Optional[Dict] = None,
               uptime_seconds: float = 0.0) -> str:
        """The ``/metrics`` page body (Prometheus text exposition format)."""
        with self._lock:
            lines = [
                "# HELP repro_uptime_seconds Seconds since the daemon started.",
                "# TYPE repro_uptime_seconds gauge",
                _sample("repro_uptime_seconds", f"{uptime_seconds:.3f}"),
                "# HELP repro_requests_in_flight Requests currently admitted.",
                "# TYPE repro_requests_in_flight gauge",
                _sample("repro_requests_in_flight", self.in_flight),
                "# HELP repro_requests_total Completed requests by document kind.",
                "# TYPE repro_requests_total counter",
            ]
            for kind in sorted(self.requests_total):
                lines.append(_sample("repro_requests_total",
                                     self.requests_total[kind], {"kind": kind}))
            lines += [
                "# HELP repro_request_seconds_total Wall seconds spent answering requests.",
                "# TYPE repro_request_seconds_total counter",
            ]
            for kind in sorted(self.request_seconds_total):
                lines.append(_sample("repro_request_seconds_total",
                                     f"{self.request_seconds_total[kind]:.6f}",
                                     {"kind": kind}))
            lines += [
                "# HELP repro_request_failures_total Failed requests by error slug.",
                "# TYPE repro_request_failures_total counter",
            ]
            for slug in sorted(self.failures_total):
                lines.append(_sample("repro_request_failures_total",
                                     self.failures_total[slug], {"error": slug}))
            lines += [
                "# HELP repro_requests_rejected_total Requests refused with 429 (budget full).",
                "# TYPE repro_requests_rejected_total counter",
                _sample("repro_requests_rejected_total", self.rejected_total),
                "# HELP repro_request_timeouts_total Requests that hit the per-request timeout.",
                "# TYPE repro_request_timeouts_total counter",
                _sample("repro_request_timeouts_total", self.timeouts_total),
                "# HELP repro_engine_gates_total Gate applications recorded by finished analyses.",
                "# TYPE repro_engine_gates_total counter",
                _sample("repro_engine_gates_total", self.engine_gates_total),
                "# HELP repro_engine_analysis_seconds_total Engine analysis seconds recorded by finished analyses.",
                "# TYPE repro_engine_analysis_seconds_total counter",
                _sample("repro_engine_analysis_seconds_total",
                        f"{self.engine_analysis_seconds_total:.6f}"),
                "# HELP repro_campaign_jobs_total Campaign jobs completed by this daemon.",
                "# TYPE repro_campaign_jobs_total counter",
                _sample("repro_campaign_jobs_total", self.campaign_jobs_total),
                "# HELP repro_sse_records_total Campaign records streamed over SSE.",
                "# TYPE repro_sse_records_total counter",
                _sample("repro_sse_records_total", self.sse_records_total),
            ]
        if runtime_snapshot is not None:
            memo = runtime_snapshot.get("memo") or {}
            lines += [
                "# HELP repro_gate_memo_entries In-process gate-memo entries of the shared runtime.",
                "# TYPE repro_gate_memo_entries gauge",
                _sample("repro_gate_memo_entries", memo.get("size", 0)),
                "# HELP repro_gate_memo_hits_total Gate-memo hits of the shared runtime.",
                "# TYPE repro_gate_memo_hits_total counter",
                _sample("repro_gate_memo_hits_total", memo.get("hits", 0)),
                "# HELP repro_gate_memo_misses_total Gate-memo misses of the shared runtime.",
                "# TYPE repro_gate_memo_misses_total counter",
                _sample("repro_gate_memo_misses_total", memo.get("misses", 0)),
            ]
            store = runtime_snapshot.get("store")
            if store is not None:
                for counter in ("hits", "misses", "publishes", "rejected",
                                "quarantined", "retries"):
                    name = f"repro_store_{counter}_total"
                    lines += [
                        f"# HELP {name} Automaton-store session counter '{counter}'.",
                        f"# TYPE {name} counter",
                        _sample(name, store.get(counter, 0)),
                    ]
                lines += [
                    "# HELP repro_store_disabled Whether the store tier degraded itself off (1) after consecutive faults.",
                    "# TYPE repro_store_disabled gauge",
                    _sample("repro_store_disabled", int(bool(store.get("disabled")))),
                ]
        injector = active_injector()
        lines += [
            "# HELP repro_faults_injected_total Deterministically injected faults by site (absent without an armed plan).",
            "# TYPE repro_faults_injected_total counter",
        ]
        if injector is not None:
            for site, count in sorted(injector.counters().items()):
                lines.append(_sample("repro_faults_injected_total", count,
                                     {"site": site}))
        return "\n".join(lines) + "\n"
