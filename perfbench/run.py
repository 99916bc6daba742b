"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload table2-verify --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/NOTES.md):

* ``table2-verify``  — cold hybrid verification of Table-2 triples;
* ``table3-hunt``    — incremental bug hunts on the RevLib-style suite;
* ``serve-mix``      — ``repro serve --workers 2`` under 2 closed-loop clients;
* ``campaign-sweep`` — a 2-worker matrix campaign over a cold store.

A run (1) generates the seed's inputs and oracle verdicts unless an earlier
run already did, (2) times the workload's cold set-up several times, (3)
runs the timed batches in a fresh interpreter, checks every verdict against
the oracle and (4) prints the host facts, then the result object as the
last stdout line.  ``--trace 1`` reports per-layer numbers from one traced
batch instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from common import (
    ROOT,
    SCRATCH_DIR,
    WORKLOADS,
    child_env,
    host_facts,
    inputs_path,
    median,
    read_json,
    run_python,
    source_present,
)
from daemon import Daemon

#: cold set-ups timed per run; the median is reported
SETUP_SAMPLES = 9
DAEMON_SETUP_SAMPLES = 5


class BenchmarkError(RuntimeError):
    pass


def _check(completed: subprocess.CompletedProcess, what: str) -> str:
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-5:]
        raise BenchmarkError(f"{what} failed ({completed.returncode}): " + " | ".join(tail))
    return completed.stdout


def ensure_inputs(workload: str, seed: int, env) -> str:
    path = inputs_path(workload, seed)
    if not os.path.exists(path):
        _check(run_python("inputs.py", [workload, str(seed), path], env, timeout=300),
               "input generation")
    return path


def setup_samples(workload: str, scratch: str, env):
    """Seconds from process start to ready, several cold starts."""
    samples = []
    if workload == "serve-mix":
        for _ in range(DAEMON_SETUP_SAMPLES):
            start = time.perf_counter()
            daemon = Daemon(env)
            daemon.metrics()  # the page names the kernel backend, resolving it
            samples.append(time.perf_counter() - start)
            daemon.stop()
        return samples
    for index in range(SETUP_SAMPLES):
        directory = os.path.join(scratch, f"probe{index}")
        start = time.perf_counter()
        _check(run_python("probe.py", [workload, directory], env, timeout=120), "set-up probe")
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(data, setup):
    """The run's batch wall time and verdict-time percentiles (``workloads.py``)."""
    attempted = max(1, data["attempted"])
    return {
        "setup_s": median(setup),
        "wall_s": data["wall"],
        "verdict_p50_s": data["p50"],
        "verdict_p90_s": data["p90"],
        "peak_rss_mb": data["peak_rss_mb"],
        "ok_frac": 1.0 - data["failed"] / attempted,
    }


def per_layer(data):
    layers = dict(data["layers"])
    layers["failed_frac"] = data["failed"] / max(1, data["attempted"])
    layers["hunt.misses"] = data["misses"]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present():
        print("perfbench: no package source under src/ in this checkout", file=sys.stderr)
        return 2
    declared = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    scratch = os.path.join(SCRATCH_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    env = child_env(scratch)
    try:
        inputs = ensure_inputs(args.workload, args.seed, env)
        setup = setup_samples(args.workload, os.path.join(scratch, "setup"), env)
        work = os.path.join(scratch, "work")
        os.makedirs(work, exist_ok=True)
        output = _check(run_python(
            "workloads.py",
            [args.workload, inputs, repr(args.seconds), str(args.trace), work],
            env, timeout=150,
        ), "workload")
        data = json.loads(output.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = per_layer(data) if args.trace else end_to_end(data, setup)
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    facts = host_facts()
    facts.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "kernel_backend": data["kernel_backend"], "batches": data["batches"],
        "verdict_samples": data["samples"],
        "setup_samples_s": setup, "hunt_misses": data["misses"], "notes": data["notes"],
    })
    if args.trace:
        facts["untraced_wall_s"] = data["untraced_wall"]
        facts["traced_wall_s"] = data["traced_wall"]
    print(json.dumps({"context": facts}))
    print(json.dumps({
        "correct": data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
