"""Paths, child-process environment and small statistics shared by the
benchmark scripts.

Everything the benchmark writes lives under ``.perfbench/`` at the root of
the checkout (git-ignored): generated inputs per workload and seed, and one
scratch directory per run that is removed when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
INPUTS_DIR = os.path.join(STATE_DIR, "inputs")
SCRATCH_DIR = os.path.join(STATE_DIR, "scratch")

WORKLOADS = ("table2-verify", "table3-hunt", "serve-mix", "campaign-sweep")

#: load generated for every workload: one process, at most this many client
#: threads or pool workers (the reference machine has 2 cores)
PARALLELISM = 2


def campaign_spec() -> Dict[str, object]:
    """The ``campaign-sweep`` matrix: 5 families x sizes 3-5 x 10 mutants.

    The mutant draw is fixed (spec seed 0): one sweep's cost moves by up to
    a third with the draw (a superposition gate inserted early makes every
    later gate of that mutant work on larger automata), which would bury a
    change of the program under the draw.
    """
    return {
        "families": ["bv", "ghz", "grover", "mctoffoli", "qft-zero"],
        "sizes": "3-5",
        "mutants": 10,
        "seed": 0,
    }


def source_present() -> bool:
    """True when the checkout holds the package the benchmark measures."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env(scratch: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The package is imported from the checkout, every default cache location
    points into the run's scratch directory, and an ambient fault plan is
    dropped.  The kernel backend is left to the program's own selection.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["AUTOQ_REPRO_CACHE_DIR"] = os.path.join(scratch, "default-cache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("AUTOQ_REPRO_FAULTS", None)
    env.pop("AUTOQ_REPRO_SERVER", None)
    return env


def inputs_path(workload: str, seed: int) -> str:
    return os.path.join(INPUTS_DIR, f"{workload}-seed{seed}.json")


def write_json_atomic(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    temporary = f"{path}.{os.getpid()}.tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(temporary, path)


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(math.ceil(share * len(ordered) / 100.0)) - 1))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def source_revision() -> str:
    """The git revision of the checkout, else a digest of ``src/``.

    Benchmark checkouts are plain file trees, so the digest is what ties a
    result row to the code that produced it there.
    """
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs[:] = sorted(name for name in subdirs if name != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def host_facts() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "revision": source_revision(),
    }


def run_python(script: str, args: List[str], env: Dict[str, str],
               timeout: float) -> subprocess.CompletedProcess:
    """Run one of the benchmark's scripts in a fresh interpreter.

    The script gets its own process group, so a timeout also ends whatever
    it started (pool workers, a serve daemon) before this returns.
    """
    command = [sys.executable, os.path.join(HERE, script), *args]
    process = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return subprocess.CompletedProcess(command, process.returncode, stdout, stderr)
