"""A ``repro serve`` daemon as the benchmark drives it (standard library only).

The daemon runs as its own process with 2 request workers, no result cache
and no automaton store, on an OS-assigned port it announces on stdout.
"""

from __future__ import annotations

import json
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict

from common import PARALLELISM


def _opener():
    # the daemon is local: never route its traffic through an ambient proxy
    return urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Daemon:
    """One ``repro serve --workers 2`` subprocess on an OS-assigned port."""

    BOOT_TIMEOUT = 120.0

    def __init__(self, env):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(PARALLELISM), "--timeout", "120",
             "--no-cache", "--no-store"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.opener = _opener()
        self.url = self._read_url()
        self._wait_healthy()

    def _read_url(self) -> str:
        deadline = time.monotonic() + self.BOOT_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    return line.split("serving on ", 1)[1].strip()
            if self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError("the serve daemon did not report its URL")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + self.BOOT_TIMEOUT
        while time.monotonic() < deadline:
            try:
                with self.opener.open(self.url + "/healthz", timeout=5) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("the serve daemon never became healthy")

    def post(self, document, timeout=180.0):
        body = json.dumps(document).encode("utf-8")
        request = urllib.request.Request(
            self.url + "/v1/run", data=body, headers={"Content-Type": "application/json"})
        try:
            with self.opener.open(request, timeout=timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, None
        except (urllib.error.URLError, OSError, ValueError):
            return None, None

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` samples summed over labels, by metric name."""
        totals: Dict[str, float] = {}
        with self.opener.open(self.url + "/metrics", timeout=30) as response:
            text = response.read().decode("utf-8")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            try:
                totals[name] = totals.get(name, 0.0) + float(value)
            except ValueError:
                continue
        return totals

    def peak_rss_mb(self) -> float:
        try:
            with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def alive(self) -> bool:
        return self.process.poll() is None

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        else:
            self.process.communicate()
