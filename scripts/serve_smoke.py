#!/usr/bin/env python3
"""Service-daemon smoke: boot ``repro.cli serve``, drive it, shut it down.

Exercises the full deployment path, not the in-process shortcuts the unit
tests use: a real ``python -m repro.cli serve --port 0`` subprocess, its
printed startup URL, verify requests and an SSE campaign through
:class:`repro.api.client.ServiceClient`, the ``/metrics`` page (which must
show the counters moving and the warm gate memo being hit, and no store or
gate-memo counter falling while the campaign runs), a store-entry ``PUT``
the daemon must refuse without its store gaining an entry, two
``python -m repro.cli … --server URL --json`` runs (a verify that holds and
an equivalence the daemon refuses, whose ``error`` document the CLI must
relay), and a graceful SIGINT shutdown with a clean exit status.

Intended for CI (the ``serve-smoke`` job); it also doubles as a health
check against an already-running daemon via ``--url``.  Writes a JSON
report::

    PYTHONPATH=src python scripts/serve_smoke.py --output /tmp/perf/serve_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def _metric(text: str, name: str) -> float:
    """The (summed) value of one un-labelled or labelled metric family."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and (line[len(name)] in (" ", "{")):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _runtime_counters(text: str) -> Dict[str, float]:
    """Every ``repro_store_*_total`` and ``repro_gate_memo_*_total`` sample,
    keyed by name and labels."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        name = key.split("{", 1)[0]
        if name.startswith(("repro_store_", "repro_gate_memo_")) and name.endswith("_total"):
            samples[key] = float(value)
    return samples


def _store_entries(store_dir: Optional[str]) -> List[str]:
    """Every file under the daemon's store directory (empty when unknown)."""
    if store_dir is None:
        return []
    return sorted(os.path.join(root, name)
                  for root, _dirs, names in os.walk(store_dir) for name in names)


def _put_store_entry(url: str) -> int:
    """PUT a schema-shaped entry under a store key; the HTTP status."""
    key = "ab" + "0" * 62
    body = json.dumps({"store_schema": 1, "automaton": {}, "meta": {}}).encode("utf-8")
    request = urllib.request.Request(
        f"{url}/api/v1/store/{key}", data=body, method="PUT",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.close()
        return error.code


def _cli_on_server(url: str, *argv: str):
    """``python -m repro.cli <argv> --server <url> --json``: exit status,
    stdout document, stderr text."""
    process = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv, "--server", url, "--json"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
    )
    return process.returncode, json.loads(process.stdout), process.stderr


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="write the JSON report here (default: stdout only)")
    parser.add_argument("--url", default=None,
                        help="smoke an already-running daemon instead of booting one "
                             "(skips the shutdown check)")
    parser.add_argument("--verifies", type=int, default=3)
    parser.add_argument("--mutants", type=int, default=3)
    args = parser.parse_args(argv)

    from repro.api import CampaignProblem, CircuitSource, VerifyProblem
    from repro.api.client import ServiceClient
    from repro.circuits import Circuit, save_qasm_file

    scratch = tempfile.mkdtemp(prefix="serve_smoke_")
    daemon = None
    store_dir = None
    if args.url is None:
        store_dir = os.path.join(scratch, "cache", "store")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"),
                   AUTOQ_REPRO_CACHE_DIR=os.path.join(scratch, "cache"))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        url = json.loads(daemon.stdout.readline())["serving"]
    else:
        url = args.url
    client = ServiceClient(url, timeout=120.0)

    report = {"url": url}
    try:
        health = client.health()
        assert health["status"] == "ok", health
        report["health"] = health

        # the store is shared as a directory, never over HTTP: a client that
        # reaches the daemon must not be able to write into its store
        entries_before = _store_entries(store_dir)
        status = _put_store_entry(url)
        report["store_put_status"] = status
        assert not 200 <= status < 300, f"the daemon accepted a store PUT ({status})"
        gained = sorted(set(_store_entries(store_dir)) - set(entries_before))
        assert not gained, f"a refused store PUT still wrote {gained}"

        before = client.metrics_text()

        start = time.perf_counter()
        problem = VerifyProblem(circuit=CircuitSource.from_family("bv", 8))
        for index in range(args.verifies):
            result = client.run(problem)
            assert result.holds, f"verify #{index} did not hold"
        report["verify_seconds"] = round(time.perf_counter() - start, 4)

        # a campaign runs on its own runtime: the daemon's counters are
        # Prometheus counters and must never fall while it runs
        before_campaign = _runtime_counters(client.metrics_text())
        records = []
        mid_campaign = {}

        def on_record(record):
            if not records:
                mid_campaign.update(_runtime_counters(client.metrics_text()))
            records.append(record)

        campaign = client.run_campaign(
            CampaignProblem(family="bv", size=4, mutants=args.mutants,
                            report_path=os.path.join(scratch, "report.jsonl")),
            on_record=on_record,
        )
        assert campaign.errors == 0, f"campaign had {campaign.errors} error(s)"
        assert len(records) == campaign.jobs, (len(records), campaign.jobs)
        report["campaign_jobs"] = campaign.jobs
        report["campaign_records_streamed"] = len(records)
        report["mid_campaign_counters"] = mid_campaign
        fell = {key: (was, mid_campaign.get(key, 0.0))
                for key, was in before_campaign.items() if mid_campaign.get(key, 0.0) < was}
        assert not fell, f"counters fell during the campaign (before, mid-run): {fell}"

        after = client.metrics_text()
        moved = {
            name: (_metric(before, name), _metric(after, name))
            for name in ("repro_requests_total", "repro_sse_records_total",
                         "repro_gate_memo_hits_total")
        }
        for name, (was, now) in moved.items():
            assert now > was, f"{name} did not move ({was} -> {now})"
        report["metrics"] = {name: now for name, (_, now) in moved.items()}

        # the CLI's documented --server flag: a verdict comes back as the
        # result document, a refused problem as the daemon's error document
        widths = {}
        for qubits in (2, 3):
            widths[qubits] = os.path.join(scratch, f"width{qubits}.qasm")
            save_qasm_file(Circuit(qubits).add("h", 0), widths[qubits])
        before_cli = client.metrics_text()
        status, document, _ = _cli_on_server(url, "verify", "--family", "bv", "--size", "3")
        assert status == 0 and document["holds"] is True, (status, document)
        status, document, stderr = _cli_on_server(url, "equivalence", widths[2], widths[3])
        assert status == 2 and not stderr, (status, stderr)
        assert (document["kind"], document["error"], document["code"]) == (
            "error", "invalid-request", 400), document
        after_cli = client.metrics_text()
        for name in ("repro_requests_total", "repro_request_failures_total"):
            assert _metric(after_cli, name) > _metric(before_cli, name), (
                f"{name} did not count the CLI's request")
        report["cli_error_relayed"] = document["message"]
    finally:
        if daemon is not None:
            daemon.send_signal(signal.SIGINT)
            out, err = daemon.communicate(timeout=60)
            report["daemon_exit"] = daemon.returncode
            if daemon.returncode != 0:
                print(err, file=sys.stderr)

    if daemon is not None and report["daemon_exit"] != 0:
        print("FAIL: daemon did not exit cleanly")
        return 1
    if daemon is not None:
        summary = json.loads(out)
        assert summary["kind"] == "serve", summary
        report["daemon_summary"] = summary["data"]

    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
