#!/usr/bin/env python3
"""Two sequential campaigns sharing one cross-process automaton store.

The second cache tier behind the engine's per-process gate memo is a
content-addressed on-disk store (``repro.ta.store``): every reduced
composition-encoded gate application (H, Rx, Ry and the other gates hybrid
mode cannot permute) a worker computes is published under a
renaming-invariant fingerprint of ``(input automaton, gate, mode)``, and every
worker — in this run or any later one — pointed at the same directory reuses
it.  Permutation-encoded gates are recomputed instead (see
``docs/caching.md``, section 4).

This example runs the *same* Grover campaign twice with the result cache
disabled, so both runs really verify every mutant.  The first run starts from
a cold store and publishes; the second run spawns brand-new worker processes
whose in-memory memos are empty, yet its composition-encoded gate
applications come back from the store — watch the ``store`` counters flip from
publishes to hits and the wall time drop.

Run with:  python examples/shared_cache_campaign.py [num_mutants] [workers]
"""

import sys
import tempfile

from repro.campaign import CampaignConfig, run_campaign


def run_once(label: str, scratch: str, num_mutants: int, workers: int):
    config = CampaignConfig(
        family="grover",
        mutants=num_mutants,
        mutation_kinds=("insert", "remove", "swap-operands"),
        workers=workers,
        report_path=f"{scratch}/{label}.jsonl",
        cache_dir="",                      # force real verification every run...
        store_dir=f"{scratch}/store",      # ...but share gate applications on disk
    )
    summary = run_campaign(config)
    print(f"{label:<5} run: {summary.jobs} jobs in {summary.wall_seconds:5.2f}s  "
          f"store: {summary.store_hits} hit(s), {summary.store_misses} miss(es), "
          f"{summary.store_publishes} publish(es)")
    return summary


def main() -> None:
    num_mutants = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    with tempfile.TemporaryDirectory() as scratch:
        cold = run_once("cold", scratch, num_mutants, workers)
        warm = run_once("warm", scratch, num_mutants, workers)
        assert (warm.holds, warm.violated) == (cold.holds, cold.violated)
        if warm.store_hits:
            print(f"the warm run answered {warm.store_hits} gate application(s) "
                  f"from the store published by the cold run "
                  f"({cold.wall_seconds / max(warm.wall_seconds, 1e-9):.1f}x faster)")
        else:
            print("no store traffic in the warm run — with workers=1 the parent's "
                  "in-process memo answers first; try workers >= 2")


if __name__ == "__main__":
    main()
