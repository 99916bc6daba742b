"""Tests for the verification service daemon (``repro.service``).

Covers the transport-independent core (admission budget, per-request
timeout, crash isolation, SSE streaming, graceful shutdown), the stdlib
HTTP front-end via the real socket + :class:`repro.api.client.ServiceClient`
(concurrent requests sharing one warm runtime, metrics exposition), and the
client's failure envelope (unreachable daemon, in-band error documents).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import (
    CampaignProblem,
    CampaignResult,
    CircuitSource,
    ErrorResult,
    SessionConfig,
    VerifyProblem,
    VerifyResult,
    validate_document,
)
from repro.api.client import (
    SERVER_ENV,
    ServiceClient,
    ServiceError,
    default_server_url,
)
from repro.service import ServiceConfig, ServiceServer, VerificationService


def _config(**overrides) -> ServiceConfig:
    settings = dict(
        port=0,  # only the HTTP tests bind; 0 keeps them collision-free
        workers=2,
        session=SessionConfig(cache_dir="", store_dir=""),
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def _verify_document(size: int = 4) -> dict:
    return VerifyProblem(circuit=CircuitSource.from_family("bv", size)).to_dict()


def _campaign_problem(tmp_path, mutants: int = 3) -> CampaignProblem:
    return CampaignProblem(
        family="bv", size=4, mutants=mutants, seed=0,
        report_path=str(tmp_path / "campaign_report.jsonl"),
    )


def _wait_until_idle(service, seconds: float = 10.0) -> None:
    """Wait (bounded) for the in-flight gauge to drop back to 0."""
    deadline = time.monotonic() + seconds
    while service.metrics.in_flight and time.monotonic() < deadline:
        time.sleep(0.01)
    assert service.metrics.in_flight == 0
    assert service.health()["in_flight"] == 0


def _http_status(request) -> int:
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.close()
        return error.code


@pytest.fixture
def service():
    with VerificationService(_config()) as svc:
        yield svc


class TestServiceConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError, match="max_in_flight"):
            ServiceConfig(max_in_flight=0)
        with pytest.raises(ValueError, match="request_timeout"):
            ServiceConfig(request_timeout=0)


class TestServiceCore:
    def test_verify_round_trip(self, service):
        status, payload = service.run_document(_verify_document())
        assert status == 200
        validate_document(payload, kind="verify")
        assert payload["holds"] is True

    def test_repeated_requests_share_the_warm_runtime(self, service):
        service.run_document(_verify_document())
        before = service.session.runtime.stats_snapshot()["memo"]["hits"]
        status, _ = service.run_document(_verify_document())
        assert status == 200
        after = service.session.runtime.stats_snapshot()["memo"]["hits"]
        # the second identical circuit is answered from the gate memo
        assert after > before

    def test_invalid_document_is_a_400_envelope(self, service):
        status, payload = service.run_document({"kind": "problem/teleport"})
        assert status == 400
        validate_document(payload, kind="error")
        assert payload["error"] == "invalid-request"

    def test_admission_budget_answers_429(self, monkeypatch):
        release = threading.Event()

        def held(problem):
            release.wait(10)
            return VerifyResult(holds=True)

        with VerificationService(_config(max_in_flight=1)) as service:
            monkeypatch.setattr(service.session, "run", held)
            first = {}
            thread = threading.Thread(
                target=lambda: first.update(zip(("status", "payload"),
                                                service.run_document(_verify_document()))),
            )
            thread.start()
            while service.metrics.in_flight == 0:  # admitted, now holding the slot
                pass
            status, payload = service.run_document(_verify_document())
            assert status == 429
            assert payload["error"] == "saturated"
            assert service.metrics.rejected_total == 1
            release.set()
            thread.join()
            assert first["status"] == 200
            # the rejected request never touched the in-flight gauge
            assert service.metrics.in_flight == 0

    def test_timeout_answers_504_but_work_completes(self, monkeypatch):
        release = threading.Event()
        finished = threading.Event()

        def slow(problem):
            release.wait(10)
            finished.set()
            return VerifyResult(holds=True)

        with VerificationService(_config(request_timeout=0.05)) as service:
            monkeypatch.setattr(service.session, "run", slow)
            status, payload = service.run_document(_verify_document())
            assert status == 504
            assert payload["error"] == "timeout"
            assert service.metrics.timeouts_total == 1
            # the work still holds its admission slot, so it is still in flight
            assert service.metrics.in_flight == 1
            assert service.health()["in_flight"] == 1
            release.set()
            assert finished.wait(10)  # the work ran to completion regardless
            _wait_until_idle(service)

    def test_stream_timeout_keeps_the_work_in_flight(self, tmp_path, monkeypatch):
        release = threading.Event()

        def slow(problem, on_record=None):
            release.wait(10)
            return CampaignResult()

        with VerificationService(_config(request_timeout=0.05)) as service:
            monkeypatch.setattr(service.session, "run_campaign", slow)
            events = list(service.stream_campaign(_campaign_problem(tmp_path).to_dict()))
            assert [name for name, _ in events] == ["error"]
            assert events[0][1]["error"] == "timeout"
            assert service.metrics.in_flight == 1
            release.set()
            _wait_until_idle(service)

    def test_crashed_analysis_is_a_500_not_a_dead_daemon(self, service, monkeypatch):
        def boom(problem):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service.session, "run", boom)
        status, payload = service.run_document(_verify_document())
        assert status == 500
        assert payload["error"] == "internal"
        assert "engine exploded" in payload["message"]
        monkeypatch.undo()
        status, _ = service.run_document(_verify_document())
        assert status == 200

    def test_campaign_stream_yields_records_then_summary(self, service, tmp_path):
        events = list(service.stream_campaign(_campaign_problem(tmp_path).to_dict()))
        names = [name for name, _ in events]
        assert names[-1] == "summary"
        assert set(names[:-1]) == {"record"}
        summary = events[-1][1]
        validate_document(summary, kind="campaign")
        assert summary["jobs"] == len(events) - 1  # one record per job
        for _, record in events[:-1]:
            validate_document(record, kind="campaign-job")
        assert service.metrics.sse_records_total == len(events) - 1

    def test_stream_rejects_non_campaign_documents(self, service):
        events = list(service.stream_campaign(_verify_document()))
        assert len(events) == 1
        name, payload = events[0]
        assert name == "error"
        assert payload["error"] == "invalid-request"

    def test_closed_service_answers_503(self):
        service = VerificationService(_config())
        service.close()
        status, payload = service.run_document(_verify_document())
        assert status == 503
        assert payload["error"] == "shutting-down"

    def test_close_drains_in_flight_work(self, monkeypatch):
        release = threading.Event()
        finished = threading.Event()
        service = VerificationService(_config())

        def held(problem):
            release.wait(10)
            finished.set()
            return VerifyResult(holds=True)

        monkeypatch.setattr(service.session, "run", held)
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.setdefault(
                "answer", service.run_document(_verify_document())),
        )
        thread.start()
        while service.metrics.in_flight == 0:
            pass
        closer = threading.Thread(target=service.close)
        closer.start()
        release.set()
        closer.join(timeout=10)
        thread.join(timeout=10)
        assert finished.is_set()
        assert outcome["answer"][0] == 200


@pytest.fixture(scope="class")
def server():
    instance = ServiceServer(_config()).start()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestHTTPFrontEnd:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_typed_verify_over_http(self, client):
        result = client.run(VerifyProblem(circuit=CircuitSource.from_family("bv", 4)))
        assert isinstance(result, VerifyResult)
        assert result.holds and result.exit_code == 0

    def test_concurrent_requests_share_one_runtime(self, server, client):
        memo_before = server.service.session.runtime.stats_snapshot()["memo"]["hits"]
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                client.run(VerifyProblem(circuit=CircuitSource.from_family("bv", 5)))))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 4 and all(r.holds for r in results)
        memo_after = server.service.session.runtime.stats_snapshot()["memo"]["hits"]
        assert memo_after > memo_before  # identical circuits hit the shared memo

    def test_campaign_streams_over_sse(self, client, tmp_path):
        records = []
        result = client.run_campaign(_campaign_problem(tmp_path),
                                     on_record=records.append)
        assert isinstance(result, CampaignResult)
        assert result.jobs == len(records) == 4  # reference + 3 mutants
        assert all(record["verdict"] in ("holds", "violated", "error", "unsupported")
                   for record in records)

    def test_metrics_exposition_reflects_traffic(self, client):
        client.run(VerifyProblem(circuit=CircuitSource.from_family("bv", 4)))
        text = client.metrics_text()
        assert 'repro_requests_total{kind="verify"}' in text
        assert "repro_uptime_seconds" in text
        assert "repro_gate_memo_hits_total" in text

    def test_unknown_endpoint_is_an_error_document(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("/v1/nope", body={})
        assert excinfo.value.result.error == "not-found"
        assert excinfo.value.result.code == 404

    def test_invalid_body_is_an_error_document(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.run_document({"kind": "problem/teleport"})
        assert excinfo.value.result.error == "invalid-request"
        assert excinfo.value.result.code == 400


class TestStoreIsNotServed:
    def test_store_reads_and_writes_are_refused(self, tmp_path):
        store_dir = tmp_path / "store"
        server = ServiceServer(_config(session=SessionConfig(
            cache_dir="", store_dir=str(store_dir)))).start()
        try:
            before = sorted(str(path) for path in store_dir.rglob("*"))
            key = "ab" + "c" * 62
            url = f"{server.url}/api/v1/store/{key}"
            entry = json.dumps({"store_schema": 1, "automaton": {}, "meta": {}})
            put = urllib.request.Request(url, data=entry.encode("utf-8"), method="PUT",
                                         headers={"Content-Type": "application/json"})
            assert not 200 <= _http_status(put) < 300
            assert _http_status(urllib.request.Request(url)) == 404
            assert sorted(str(path) for path in store_dir.rglob("*")) == before
            assert not (store_dir / key[:2] / f"{key}.json").exists()
            assert "repro_store_endpoint_requests_total" not in \
                ServiceClient(server.url).metrics_text()
        finally:
            server.stop()


class TestServiceClient:
    def test_unreachable_daemon_raises_a_typed_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert isinstance(excinfo.value.result, ErrorResult)
        assert excinfo.value.result.error == "unreachable"
        assert excinfo.value.result.exit_code == 2

    def test_default_server_url_reads_the_environment(self, monkeypatch):
        monkeypatch.delenv(SERVER_ENV, raising=False)
        assert default_server_url() is None
        monkeypatch.setenv(SERVER_ENV, "http://example:1234")
        assert default_server_url() == "http://example:1234"
        monkeypatch.setenv(SERVER_ENV, "")
        assert default_server_url() is None
