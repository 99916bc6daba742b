"""Thin HTTP client for the verification service daemon (``repro serve``).

Speaks exactly the documents :mod:`repro.api.schema` defines — a problem
document goes out, a result document comes back, and
:meth:`repro.api.Result.from_dict` rebuilds the same typed object a local
:class:`~repro.api.Session` would have returned.  This is what the CLI's
``--server URL`` flag and the test/benchmark harnesses use; it depends only
on :mod:`urllib`, so any process that can import :mod:`repro.api` can talk
to a daemon.

Failures are first-class: every non-200 response body is an ``error``
document, surfaced as a :class:`ServiceError` carrying the typed
:class:`~repro.api.ErrorResult` — callers never parse free text.
*Transient* failures are typed too: connection refused/reset and
429/503/504 responses raise :class:`ServiceUnavailable` (a
:class:`ServiceError` subclass carrying the daemon's ``Retry-After`` hint),
and the client's :class:`~repro.faults.RetryPolicy` retries exactly that
class before giving up — see ``docs/robustness.md``.
"""

from __future__ import annotations

import itertools
import json
import os
import urllib.error
import urllib.request
from dataclasses import replace
from typing import Callable, Dict, Optional

from ..faults import DEFAULT_CLIENT_RETRY, RetryPolicy
from .problems import CampaignProblem, Problem
from .results import CampaignResult, ErrorResult, Result, ServiceError

__all__ = [
    "SERVER_ENV",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "default_server_url",
]

#: HTTP statuses that mean "the daemon is alive but cannot take this request
#: right now" — worth a backoff-and-retry, unlike a 400 or a 404
TRANSIENT_HTTP_STATUSES = (429, 503, 504)

#: environment variable naming a default daemon URL; the CLI's ``--server``
#: flag falls back to it, so e.g. CI can point every invocation at one daemon
SERVER_ENV = "AUTOQ_REPRO_SERVER"


class ServiceUnavailable(ServiceError):
    """A *transient* daemon failure: retry later, nothing is wrong with the
    request itself.

    Raised for connection refused/reset (the daemon is down or restarting)
    and for 429/503/504 responses (saturated, fault-injected, or timed out).
    ``retry_after`` is the daemon's ``Retry-After`` hint in seconds when the
    response carried one, else ``None`` — the client's retry policy (and any
    external caller) can use it to pace the next attempt.
    """

    def __init__(self, result: ErrorResult, retry_after: Optional[float] = None):
        super().__init__(result)
        self.retry_after = retry_after


def _retry_after_seconds(error: urllib.error.HTTPError) -> Optional[float]:
    """The ``Retry-After`` header as seconds, if present and delta-formatted."""
    value = (error.headers.get("Retry-After") or "").strip()
    try:
        seconds = float(value)
    except ValueError:
        return None  # HTTP-date form: not worth a date parser here
    return seconds if seconds >= 0 else None


class ServiceClient:
    """One daemon endpoint (``http://host:port``) as a Python object.

    ``retry`` bounds how transient failures (:class:`ServiceUnavailable`
    only — never 4xx/5xx with a meaning) are retried before surfacing;
    pass ``RetryPolicy(attempts=1)`` to disable retries entirely.
    """

    #: distinguishes clients created in one process, for jitter derivation
    _instances = itertools.count()

    def __init__(self, base_url: str, timeout: float = 600.0,
                 retry: Optional[RetryPolicy] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        if retry is None:
            # derive a per-client jitter seed: with the policy's default
            # seed every client in the fleet would sleep the *identical*
            # backoff sequence and re-stampede a saturated daemon in
            # lockstep.  pid + instance counter keeps the jitter distinct
            # across processes and across clients within one process, while
            # an explicitly passed policy stays fully deterministic (the
            # chaos tests rely on that).
            retry = replace(DEFAULT_CLIENT_RETRY,
                            retryable=(ServiceUnavailable,),
                            seed=hash((os.getpid(), next(self._instances))))
        self.retry = retry

    # ------------------------------------------------------------- plumbing
    def _request(self, path: str, body: Optional[Dict] = None):
        """Issue one HTTP exchange, retrying transient failures per policy."""
        return self.retry.call(self._request_once, path, body)

    def _request_once(self, path: str, body: Optional[Dict] = None):
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method="POST" if body is not None else "GET")
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            result = self._error_result(error)
            if error.code in TRANSIENT_HTTP_STATUSES:
                raise ServiceUnavailable(
                    result, retry_after=_retry_after_seconds(error)
                ) from None
            raise ServiceError(result) from None
        except (urllib.error.URLError, OSError) as error:
            reason = getattr(error, "reason", None) or error
            raise ServiceUnavailable(ErrorResult(
                "unreachable", f"cannot reach {url}: {reason}", 0
            )) from None

    @staticmethod
    def _error_result(error: urllib.error.HTTPError) -> ErrorResult:
        try:
            document = json.loads(error.read().decode("utf-8"))
            result = Result.from_dict(document)
            if isinstance(result, ErrorResult):
                return result
        except Exception:
            pass  # non-envelope body (proxy page, truncated read, …)
        return ErrorResult("http-error", f"HTTP {error.code}: {error.reason}", error.code)

    # ------------------------------------------------------------ endpoints
    def health(self) -> Dict:
        """The daemon's ``/healthz`` document."""
        with self._request("/healthz") as response:
            return json.loads(response.read().decode("utf-8"))

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``/metrics``."""
        with self._request("/metrics") as response:
            return response.read().decode("utf-8")

    def run_document(self, document: Dict) -> Dict:
        """POST one problem document to ``/v1/run``; returns the result document."""
        with self._request("/v1/run", body=document) as response:
            return json.loads(response.read().decode("utf-8"))

    def run(self, problem: Problem) -> Result:
        """Remote :meth:`~repro.api.Session.run`: same typed result, over HTTP."""
        return Result.from_dict(self.run_document(problem.to_dict()))

    def run_campaign(
        self,
        problem: CampaignProblem,
        on_record: Optional[Callable[[Dict], None]] = None,
    ) -> CampaignResult:
        """Remote :meth:`~repro.api.Session.run_campaign`, streamed over SSE.

        ``on_record`` sees every ``campaign-job`` document as the daemon
        emits it; the final ``summary`` event becomes the returned
        :class:`CampaignResult`.  An in-band ``error`` event raises
        :class:`ServiceError`, exactly like a non-200 on ``/v1/run``.
        """
        with self._request("/v1/campaign/stream", body=problem.to_dict()) as response:
            for event, payload in _parse_sse(response):
                if event == "record":
                    if on_record is not None:
                        on_record(payload)
                elif event == "summary":
                    return CampaignResult.from_dict(payload)
                elif event == "error":
                    raise ServiceError(Result.from_dict(payload))
        raise ServiceError(ErrorResult(
            "protocol", "campaign stream ended without a summary event", 0
        ))


def _parse_sse(response):
    """Yield ``(event_name, json_payload)`` pairs from an SSE byte stream."""
    event = None
    data_lines = []
    for raw in response:
        line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())
        elif not line:
            if event is not None and data_lines:
                yield event, json.loads("\n".join(data_lines))
            event = None
            data_lines = []


def default_server_url() -> Optional[str]:
    """The ambient daemon URL (``$AUTOQ_REPRO_SERVER``), if any."""
    return os.environ.get(SERVER_ENV) or None
