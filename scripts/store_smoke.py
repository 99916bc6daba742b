#!/usr/bin/env python3
"""Warm-store perf smoke: run one tiny campaign twice, assert the store works.

The first (cold) run populates the cross-process automaton store; the second
(warm) run re-verifies the same mutants with the verdict cache disabled, so
every job really runs — but its pool workers are brand-new processes whose
composition-encoded gate applications must come back from the store.  The check fails when the
warm run has a zero store hit-rate or is slower than the cold run.

Intended for CI (the ``perf-smoke`` job), next to the measurement-only bench
run.  Writes a JSON report with both summaries and the final on-disk store
stats::

    PYTHONPATH=src python scripts/store_smoke.py --output /tmp/perf/store_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def summarise(label, summary):
    return {
        "label": label,
        "jobs": summary.jobs,
        "holds": summary.holds,
        "violated": summary.violated,
        "errors": summary.errors,
        "wall_seconds": round(summary.wall_seconds, 4),
        "store_hits": summary.store_hits,
        "store_misses": summary.store_misses,
        "store_publishes": summary.store_publishes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="write the JSON report here (default: stdout only)")
    parser.add_argument("--family", default="grover")
    parser.add_argument("--mutants", type=int, default=20)
    parser.add_argument("--workers", type=int, default=2,
                        help="pool size; >= 2 so the warm run's workers are fresh "
                             "processes that can only be served by the store")
    args = parser.parse_args(argv)

    from repro.campaign import CampaignConfig, run_campaign
    from repro.ta.store import AutomatonStore

    with tempfile.TemporaryDirectory(prefix="store_smoke_") as scratch:
        def config(label: str) -> CampaignConfig:
            return CampaignConfig(
                family=args.family,
                mutants=args.mutants,
                mutation_kinds=("insert", "remove", "swap-operands"),
                workers=args.workers,
                report_path=os.path.join(scratch, f"{label}.jsonl"),
                cache_dir="",  # verdict-cache hits would bypass the store
                store_dir=os.path.join(scratch, "store"),
            )

        cold = run_campaign(config("cold"))
        warm = run_campaign(config("warm"))
        if warm.wall_seconds > cold.wall_seconds:
            # tiny runs on loaded shared runners can catch a scheduling
            # hiccup; one retry separates real regressions from noise
            warm = run_campaign(config("warm-retry"))
        store_stats = AutomatonStore(os.path.join(scratch, "store")).stats()

        report = {
            "runs": [summarise("cold", cold), summarise("warm", warm)],
            "store": {key: store_stats[key] for key in
                      ("entries", "total_bytes", "store_schema", "payload_schema")},
        }
        for row in report["runs"]:
            print("  " + "  ".join(f"{key}={value}" for key, value in row.items()))
        print(f"  store entries={report['store']['entries']} "
              f"bytes={report['store']['total_bytes']}")

        problems = []
        if cold.errors or warm.errors:
            problems.append(f"campaign errors (cold={cold.errors}, warm={warm.errors})")
        if cold.store_publishes == 0:
            problems.append("cold run published nothing to the store")
        if warm.store_hits == 0:
            problems.append("warm run had a zero store hit-rate")
        if warm.wall_seconds > cold.wall_seconds:
            problems.append(
                f"warm run was slower than the cold run "
                f"({warm.wall_seconds:.3f}s > {cold.wall_seconds:.3f}s)"
            )
        if (warm.holds, warm.violated) != (cold.holds, cold.violated):
            problems.append("warm verdicts differ from cold verdicts")
        report["problems"] = problems

        if args.output:
            directory = os.path.dirname(args.output)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.output}")

    for problem in problems:
        print(f"STORE-SMOKE: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("store smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
