"""The verification service daemon: the PR 5 typed API over HTTP + JSON.

One long-lived :class:`~repro.api.Session` — hence one warm
:class:`~repro.core.engine.GateRuntime` whose gate memo and cross-process
store amortize across every request — answers problem documents POSTed by any
client speaking the versioned :mod:`repro.api.schema`:

``POST /v1/run``
    body: any ``problem/*`` document; response: the matching result document
    (200) or an ``error`` document (400 invalid request, 429 admission budget
    full, 504 per-request timeout, 500 crash).
``POST /v1/campaign/stream``
    body: a ``problem/campaign`` document; response: ``text/event-stream``
    with one ``record`` event per stamped ``campaign-job`` document as each
    verdict lands, then a final ``summary`` event carrying the ``campaign``
    result.  Failures arrive in-band as an ``error`` event (SSE has no
    late-status channel).
``GET /healthz``
    liveness JSON (status, uptime, in-flight count).
``GET /metrics``
    Prometheus text exposition (:mod:`repro.service.metrics`): request /
    failure / rejection counters plus live gate-memo and store hit rates from
    the shared runtime.

No endpoint reads or writes the automaton store: hosts that share a store
share its directory on a common mount (``docs/distributed.md``).

Concurrency model: requests are admitted against a
:class:`threading.BoundedSemaphore` of ``max_in_flight`` slots (excess load
is refused immediately with 429 instead of queueing unboundedly) and executed
on a ``ThreadPoolExecutor`` of ``workers`` threads sharing the one session.
A request that exceeds ``request_timeout`` gets a 504, but its work keeps its
slot, and its place in the in-flight gauge, until it actually finishes — the
budget reflects true engine load, so a flood of timed-out requests cannot
pile up unbounded work.  Shutdown drains:
:meth:`VerificationService.close` waits for in-flight work before the
process exits.

The HTTP layer is the stdlib ``ThreadingHTTPServer`` — zero dependencies.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple

from ..api.problems import CampaignProblem, InvalidProblem, Problem
from ..api.results import ErrorResult
from ..api.schema import API_VERSION, SchemaError
from ..api.session import Session, SessionConfig
from ..faults import InjectedFault, inject
from .metrics import ServiceMetrics

__all__ = [
    "ServiceConfig",
    "VerificationService",
    "ServiceServer",
]

#: request bodies above this are refused outright (a problem document is a
#: few KB; anything larger is a mistake or abuse)
MAX_BODY_BYTES = 8 * 1024 * 1024

#: transient refusals (saturated, draining, fault-injected, timed out) carry
#: this ``Retry-After`` hint so clients can pace their next attempt
TRANSIENT_STATUSES = (429, 503, 504)
RETRY_AFTER_HINT_SECONDS = 1


@dataclass(frozen=True)
class ServiceConfig:
    """How the daemon listens and how much concurrent work it admits."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an OS-assigned ephemeral port (tests, smoke runs)
    port: int = 8642
    #: executor threads answering admitted requests
    workers: int = 4
    #: seconds before an admitted request is answered with 504 (its work
    #: still runs to completion and holds its admission slot until done)
    request_timeout: float = 300.0
    #: admission budget: requests in flight beyond this are refused with 429
    max_in_flight: int = 8
    #: the shared session every request runs under (store/cache directories,
    #: campaign worker processes, …)
    session: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")


class VerificationService:
    """Transport-independent daemon core: one warm session + admission control.

    The HTTP handler below calls :meth:`run_document` /
    :meth:`stream_campaign` / :meth:`health` / :meth:`render_metrics` and does
    nothing else, so every behaviour worth testing lives here.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        self.config = replace(config or ServiceConfig(), **overrides)
        self.session = Session(self.config.session)
        self.metrics = ServiceMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._slots = threading.BoundedSemaphore(self.config.max_in_flight)
        self._started = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    def close(self, drain: bool = True) -> None:
        """Stop accepting work; with ``drain`` wait for in-flight requests."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=drain)
        self.session.close()

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ endpoints
    def health(self) -> Dict:
        return {
            "status": "ok",
            "api_version": API_VERSION,
            "uptime_seconds": round(self.uptime_seconds, 3),
            "in_flight": self.metrics.in_flight,
            "workers": self.config.workers,
            "max_in_flight": self.config.max_in_flight,
        }

    def render_metrics(self) -> str:
        return self.metrics.render(
            runtime_snapshot=self.session.runtime.stats_snapshot(),
            uptime_seconds=self.uptime_seconds,
        )

    def _admit(self, document, campaign: bool = False) -> Problem:
        """Parse ``document`` and take an admission slot for it.

        Returns the problem once admitted (slot held, in-flight gauge
        raised); raises :class:`_Refused` with the error to answer instead.
        """
        try:
            inject("service.request")
        except InjectedFault as error:
            self.metrics.request_refused("unavailable")
            raise _Refused("unavailable", str(error), 503) from None
        try:
            problem = Problem.from_dict(document)
            if campaign and not isinstance(problem, CampaignProblem):
                raise ValueError("the stream endpoint takes a problem/campaign document")
        except (SchemaError, ValueError, TypeError, KeyError) as error:
            self.metrics.request_refused("invalid-request")
            raise _Refused("invalid-request", str(error), 400) from None
        if self._closed:
            raise _Refused("shutting-down", "the daemon is draining", 503)
        if not self._slots.acquire(blocking=False):
            self.metrics.request_rejected()
            raise _Refused(
                "saturated",
                f"admission budget full ({self.config.max_in_flight} in flight); retry later",
                429,
            )
        self.metrics.request_started()
        return problem

    def _detach(self, future, slug: str) -> None:
        """The request ends before its work does: answered 504 (``timeout``)
        or its stream's consumer left (``disconnected``).  Counts one
        ``slug`` failure now; the work leaves the in-flight gauge when it
        finishes."""
        self.metrics.request_detached(slug)
        future.add_done_callback(lambda _f: self.metrics.work_finished())

    def _failed(self, error: BaseException) -> ErrorResult:
        """Count an admitted request whose work raised ``error`` and build
        its answer: an input found bad on resolution is the client's fault
        (400), anything else a crash (500)."""
        if isinstance(error, InvalidProblem):
            self.metrics.request_failed("invalid-request")
            return ErrorResult("invalid-request", str(error), 400)
        self.metrics.request_failed("internal")
        return ErrorResult("internal", f"{type(error).__name__}: {error}", 500)

    def run_document(self, document) -> Tuple[int, Dict]:
        """Answer one problem document; returns ``(http_status, document)``."""
        try:
            problem = self._admit(document)
        except _Refused as refusal:
            return refusal.status, refusal.document
        start = time.perf_counter()
        future = self._executor.submit(self.session.run, problem)
        future.add_done_callback(lambda _f: self._slots.release())
        try:
            result = future.result(timeout=self.config.request_timeout)
        except _FutureTimeout:
            self._detach(future, "timeout")
            return 504, ErrorResult(
                "timeout",
                f"no answer within {self.config.request_timeout:g}s; the work "
                "still runs and holds its admission slot until it finishes",
                504,
            ).to_dict()
        except Exception as error:  # a crashed analysis must not kill the daemon
            failure = self._failed(error)
            return failure.code, failure.to_dict()
        self.metrics.observe_result(result)
        self.metrics.request_finished(result.kind, time.perf_counter() - start)
        return 200, result.to_dict()

    def stream_campaign(self, document) -> Iterator[Tuple[str, Dict]]:
        """SSE event source for one campaign: ``(event_name, document)`` pairs.

        Yields a ``record`` event per ``campaign-job`` document, then exactly
        one terminal event: ``summary`` (the ``campaign`` result) or
        ``error``.  ``request_timeout`` bounds the *gap between events*, not
        the whole run — a streaming consumer is getting progress, so only
        silence signals a stuck campaign.  Closing the stream before its
        terminal event counts as a ``disconnected`` failure; the campaign
        still runs to the end.
        """
        try:
            problem = self._admit(document, campaign=True)
        except _Refused as refusal:
            yield "error", refusal.document
            return
        start = time.perf_counter()
        events: "queue.Queue[Tuple[str, object]]" = queue.Queue()

        def produce() -> None:
            try:
                result = self.session.run_campaign(
                    problem, on_record=lambda record: events.put(("record", record))
                )
            except Exception as error:
                events.put(("failure", error))
            else:
                events.put(("summary", result))

        future = self._executor.submit(produce)
        future.add_done_callback(lambda _f: self._slots.release())
        ended = False
        try:
            while True:
                try:
                    kind, payload = events.get(timeout=self.config.request_timeout)
                except queue.Empty:
                    ended = True
                    self._detach(future, "timeout")
                    yield "error", ErrorResult(
                        "timeout",
                        f"no campaign progress within {self.config.request_timeout:g}s",
                        504,
                    ).to_dict()
                    return
                if kind == "record":
                    self.metrics.record_streamed()
                    yield "record", payload
                elif kind == "summary":
                    ended = True
                    self.metrics.observe_result(payload)
                    self.metrics.request_finished(payload.kind, time.perf_counter() - start)
                    yield "summary", payload.to_dict()
                    return
                else:
                    ended = True
                    yield "error", self._failed(payload).to_dict()
                    return
        finally:
            if not ended:
                self._detach(future, "disconnected")


class _Refused(Exception):
    """A request turned away before admission, with the error to answer."""

    def __init__(self, error: str, message: str, status: int):
        super().__init__(message)
        self.status = status
        self.document = ErrorResult(error, message, status).to_dict()


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: VerificationService


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "autoq-repro-serve"

    @property
    def service(self) -> VerificationService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics page's job, not stderr's

    # -------------------------------------------------------------- helpers
    def _send_json(self, status: int, payload: Dict) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in TRANSIENT_STATUSES:
            self.send_header("Retry-After", str(RETRY_AFTER_HINT_SECONDS))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_document(self, error: str, message: str, code: int) -> None:
        self._send_json(code, ErrorResult(error, message, code).to_dict())

    def _read_document(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("missing request body (send one problem document)")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as error:
            raise ValueError(f"request body is not JSON: {error}") from error

    # ------------------------------------------------------------ endpoints
    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
        elif self.path == "/metrics":
            body = self.service.render_metrics().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_error_document("not-found", f"no endpoint {self.path!r}", 404)

    def do_POST(self) -> None:
        if self.path == "/v1/run":
            try:
                document = self._read_document()
            except ValueError as error:
                self._send_error_document("invalid-request", str(error), 400)
                return
            status, payload = self.service.run_document(document)
            self._send_json(status, payload)
        elif self.path == "/v1/campaign/stream":
            try:
                document = self._read_document()
            except ValueError as error:
                self._send_error_document("invalid-request", str(error), 400)
                return
            self.close_connection = True
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            stream = self.service.stream_campaign(document)
            try:
                for event, payload in stream:
                    chunk = f"event: {event}\ndata: {json.dumps(payload, sort_keys=True)}\n\n"
                    self.wfile.write(chunk.encode("utf-8"))
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                stream.close()  # client went away mid-stream; the campaign finishes anyway
        else:
            self._send_error_document("not-found", f"no endpoint {self.path!r}", 404)


class ServiceServer:
    """A :class:`VerificationService` bound to a listening HTTP socket.

    Foreground use (the CLI)::

        server = ServiceServer(config)
        try:
            server.serve_forever()        # until SIGINT/SIGTERM
        finally:
            server.stop()                 # drains in-flight work

    Background use (tests, benchmarks, smoke scripts)::

        server = ServiceServer(config, port=0).start()
        ... ServiceClient(server.url) ...
        server.stop()
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        self.service = VerificationService(config, **overrides)
        cfg = self.service.config
        self._httpd = _ServiceHTTPServer((cfg.host, cfg.port), _Handler)
        self._httpd.service = self.service
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the OS-assigned one when configured with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block answering requests until :meth:`stop` (or KeyboardInterrupt)."""
        self._httpd.serve_forever(poll_interval=0.2)

    def start(self) -> "ServiceServer":
        """Serve on a daemon thread; returns self once the socket is live."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-listener", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop listening, then drain (or abandon) in-flight work."""
        if self._thread is not None and self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join()
        self._httpd.server_close()
        self.service.close(drain=drain)

