"""Campaign engine throughput: serial vs. multi-worker bug hunting.

The paper's bug-hunting evaluation (Table 3) sweeps hundreds of mutated
circuit copies; this benchmark measures how fast the campaign runner gets
through a 100-mutant Grover hunt with 1, 2 and 4 worker processes.  The cache
is disabled so every job performs a real verification — the expected shape is
near-linear scaling until the per-job cost is dwarfed by pool overhead.  On a
single-CPU machine (the ``cpus`` column) the worker rows are expected to be
flat: the pool can only timeslice one core.  A separate row measures the fully
cached re-run, which should be orders of magnitude faster than any worker
count.

The matrix rows measure the sweep scheduler on a multi-cell
families × sizes × modes grid: the full sweep (one claim and one published
result per cell in the lease queue, one manifest write), and the resumed
no-op, whose cost is reading the manifest and the queue's results and should
be milliseconds regardless of sweep size.

The service row compares the verification daemon (``repro serve``) against
the workflow it replaces: the same verify queries answered by one warm
daemon over HTTP vs a fresh CLI subprocess per query.  The daemon must win.
"""

import os

import pytest

from repro.campaign import CampaignConfig, MatrixScheduler, MatrixSpec, run_campaign

MUTANTS = 100


def _config(tmp_path, workers: int, cache_dir: str = "", store_dir: str = "") -> CampaignConfig:
    return CampaignConfig(
        family="grover",
        mutants=MUTANTS,
        mutation_kinds=("insert", "remove", "swap-operands"),
        workers=workers,
        report_path=str(tmp_path / f"campaign_w{workers}.jsonl"),
        cache_dir=cache_dir,
        store_dir=store_dir,
    )


def _run_row(benchmark, tmp_path, workers: int, cache_dir: str = "", store_dir: str = ""):
    summary = benchmark.pedantic(
        run_campaign,
        args=(_config(tmp_path, workers, cache_dir, store_dir),),
        rounds=1,
        iterations=1,
    )
    row = {
        "benchmark": f"campaign/{summary.benchmark}",
        "workers": workers,
        "cpus": os.cpu_count(),
        "jobs": summary.jobs,
        "violated": summary.violated,
        "cache_hits": summary.cache_hits,
        "store_hits": summary.store_hits,
        "wall_s": round(summary.wall_seconds, 3),
        "analysis_s": round(summary.analysis_seconds, 3),
        "jobs_per_s": round(summary.jobs / summary.wall_seconds, 1) if summary.wall_seconds else 0.0,
    }
    benchmark.extra_info.update(row)
    print("  " + "  ".join(f"{key}={value}" for key, value in row.items()))
    return summary


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_campaign_grover_100_mutants(benchmark, tmp_path, workers):
    summary = _run_row(benchmark, tmp_path, workers)
    assert summary.jobs == MUTANTS + 1
    assert summary.errors == 0


def test_campaign_grover_cached_rerun(benchmark, tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run_campaign(_config(tmp_path, workers=1, cache_dir=cache_dir))
    assert first.cache_hits == 0
    summary = _run_row(benchmark, tmp_path, workers=1, cache_dir=cache_dir)
    assert summary.cache_hits == summary.jobs


def test_campaign_grover_warm_store_rerun(benchmark, tmp_path):
    """Cold-vs-warm automaton store: re-run with fresh per-process caches.

    The result cache stays disabled so every job verifies for real; only the
    cross-process store survives between the runs.  The measured (warm) run
    must answer a non-trivial share of its gate applications from the store.
    """
    store_dir = str(tmp_path / "store")
    # every run_campaign starts from a cold private gate memo, which makes it
    # a brand-new process as far as caches go
    cold = run_campaign(_config(tmp_path, workers=1, store_dir=store_dir))
    assert cold.store_publishes > 0
    summary = _run_row(benchmark, tmp_path, workers=1, store_dir=store_dir)
    assert summary.store_hits > 0
    assert summary.store_misses == 0
    assert summary.errors == 0


MATRIX_MUTANTS = 10

_MATRIX_MAPPING = {
    "families": ["grover", "bv", "mctoffoli", "ghz"],
    "sizes": {"grover": [2], "bv": "3-4", "mctoffoli": "2-3", "ghz": [3, 4]},
    "modes": ["hybrid", "permutation"],
    "mutants": MATRIX_MUTANTS,
    "mutations": ["insert", "remove", "swap-operands"],
}


def _matrix_scheduler(tmp_path) -> MatrixScheduler:
    return MatrixScheduler(
        MatrixSpec.from_mapping(_MATRIX_MAPPING),
        workers=1,
        report_dir=str(tmp_path / "reports"),
        manifest_dir=str(tmp_path / "manifests"),
        cache_dir="",
    )


def _matrix_row(benchmark, result, label: str) -> None:
    row = {
        "benchmark": f"campaign-matrix/{label}",
        "cells": len(result.rows),
        "reused": result.reused_cells,
        "jobs": result.totals["jobs"],
        "violated": result.totals["violated"],
        "wall_s": round(result.wall_seconds, 3),
    }
    benchmark.extra_info.update(row)
    print("  " + "  ".join(f"{key}={value}" for key, value in row.items()))


def test_campaign_matrix_sweep(benchmark, tmp_path):
    """Full families x sizes x modes sweep, every cell published to the queue."""
    result = benchmark.pedantic(
        lambda: _matrix_scheduler(tmp_path).run(), rounds=1, iterations=1
    )
    _matrix_row(benchmark, result, "sweep")
    assert result.totals["errors"] == 0
    assert result.reused_cells == 0


def test_campaign_matrix_resume_noop(benchmark, tmp_path):
    """Resuming a completed sweep must only pay for reading its state."""
    scheduler = _matrix_scheduler(tmp_path)
    first = scheduler.run()
    result = benchmark.pedantic(
        lambda: _matrix_scheduler(tmp_path).run(resume=True), rounds=1, iterations=1
    )
    _matrix_row(benchmark, result, "resume-noop")
    assert result.reused_cells == len(first.rows)
    assert result.totals["jobs"] == first.totals["jobs"]


SERVICE_QUERIES = 5


def test_service_warm_daemon_beats_cold_cli(benchmark):
    """The verification daemon vs the workflow it replaces.

    The measured (warm) path answers ``SERVICE_QUERIES`` identical verify
    requests over HTTP from one primed ``repro serve`` runtime; the cold
    reference runs the same queries as fresh ``python -m repro.cli``
    subprocesses, paying interpreter start-up and an empty cache hierarchy
    each time.  The daemon must win outright — warm-runtime reuse is its
    entire reason to exist.
    """
    import subprocess
    import sys
    import time

    from repro.api import CircuitSource, SessionConfig, VerifyProblem
    from repro.api.client import ServiceClient
    from repro.service import ServiceConfig, ServiceServer

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    problem = VerifyProblem(circuit=CircuitSource.from_family("bv", 10))

    env = dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src"))
    env.pop("AUTOQ_REPRO_SERVER", None)  # the cold runs must not find a daemon
    start = time.perf_counter()
    for _ in range(SERVICE_QUERIES):
        outcome = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", "--family", "bv",
             "--size", "10"],
            capture_output=True, env=env, cwd=repo_root,
        )
        assert outcome.returncode == 0, outcome.stderr
    cold_seconds = time.perf_counter() - start

    server = ServiceServer(ServiceConfig(
        port=0, session=SessionConfig(cache_dir="", store_dir="")
    )).start()
    try:
        client = ServiceClient(server.url)
        assert client.run(problem).holds  # prime the warm runtime

        def warm():
            for _ in range(SERVICE_QUERIES):
                assert client.run(problem).holds

        benchmark.pedantic(warm, rounds=3, iterations=1)
    finally:
        server.stop()
    warm_seconds = benchmark.stats.stats.min

    row = {
        "benchmark": f"service/verify-bv10-x{SERVICE_QUERIES}",
        "warm_s": round(warm_seconds, 4),
        "cold_s": round(cold_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 1) if warm_seconds else 0.0,
    }
    benchmark.extra_info.update(row)
    print("  " + "  ".join(f"{key}={value}" for key, value in row.items()))
    assert warm_seconds < cold_seconds
