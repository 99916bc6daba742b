#!/usr/bin/env python3
"""Fabric smoke: a joined sweep with a SIGKILLed worker must match solo.

Boots a distributed campaign end to end, the way ``docs/distributed.md``
describes it: a coordinator plans a small matrix sweep, two real
``campaign --join`` subprocesses attach to its lease queue, and one of them
— deliberately slowed by a ``worker.cell`` delay fault so it is reliably
mid-cell — is SIGKILLed once roughly half the sweep has completed.  The
smoke fails unless

* the surviving joiner and the coordinator finish every cell (the dead
  worker's claim is stolen, not waited on),
* ``campaign ls --json``, run between the survivor's exit and the
  coordinator's resume, counts exactly as many done cells as the queue has
  result files, and reports the campaign complete after the resume,
* the coordinator's roll-up is trustworthy (no errors, no conflicts) and
  records at least one stolen cell,
* the per-cell verdict rows are identical to an uninterrupted solo run.

Intended for CI (the ``fabric-smoke`` job); see ``docs/distributed.md``::

    PYTHONPATH=src python scripts/fabric_smoke.py --output /tmp/perf/fabric_smoke.json
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
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC_DIR)


def spawn_joiner(scratch: str, campaign_id: str, name: str,
                 faults=None) -> subprocess.Popen:
    """A real ``campaign --join`` subprocess with its own report/cache dirs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro.cli", "campaign",
            "--join", campaign_id, "--json",
            "--manifest-dir", os.path.join(scratch, "manifests"),
            "--cache-dir", os.path.join(scratch, "cache", name),
            "--report-dir", os.path.join(scratch, "reports", name)]
    if faults is not None:
        argv += ["--faults", json.dumps(faults.to_dict())]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def campaign_ls(scratch: str, campaign_id: str) -> Optional[dict]:
    """The ``campaign ls --json`` row of one campaign (``None`` if missing)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    listing = subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", "ls", "--json",
         "--manifest-dir", os.path.join(scratch, "manifests")],
        env=env, capture_output=True, text=True, timeout=120)
    try:
        campaigns = json.loads(listing.stdout)["data"]["campaigns"]
    except (ValueError, KeyError, TypeError):
        return None
    return next((row for row in campaigns if row["campaign_id"] == campaign_id), None)


def verdict_rows(rows):
    return sorted((row["cell"], row["jobs"], row["holds"], row["violated"],
                   row["unsupported"], row["errors"]) for row in rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="write the JSON report here (default: stdout only)")
    parser.add_argument("--family", default="bv")
    parser.add_argument("--sizes", default="2-5",
                        help="size range of the sweep (4 cells by default)")
    parser.add_argument("--mutants", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="overall deadline for the joined phase (seconds)")
    args = parser.parse_args(argv)

    from repro.campaign import MatrixScheduler, MatrixSpec
    from repro.dist import CLAIM_DIR, RESULT_DIR, queue_dir_for
    from repro.faults import FaultPlan, FaultSpec

    spec_mapping = {"families": [args.family], "sizes": args.sizes,
                    "mutants": args.mutants}

    with tempfile.TemporaryDirectory(prefix="fabric_smoke_") as scratch:
        def scheduler(campaign_id: str) -> MatrixScheduler:
            return MatrixScheduler(
                MatrixSpec.from_mapping(dict(spec_mapping)),
                workers=1,
                report_dir=os.path.join(scratch, "reports", campaign_id),
                manifest_dir=os.path.join(scratch, "manifests"),
                cache_dir=os.path.join(scratch, "cache", campaign_id),
                campaign_id=campaign_id,
            )

        # the uninterrupted baseline every fabric outcome must match
        solo = scheduler("solo").run()

        coordinator = scheduler("fabric")
        coordinator.plan()
        cells = [cell.cell_id for cell in coordinator.spec.cells()]
        queue_dir = queue_dir_for(os.path.join(scratch, "manifests"), "fabric")
        claim_dir = os.path.join(queue_dir, CLAIM_DIR)
        result_dir = os.path.join(queue_dir, RESULT_DIR)

        # the victim crawls (1s per verification job) so it is dependably
        # mid-cell — holding a live claim — when the kill lands
        molasses = FaultPlan(seed=0, sites=(
            FaultSpec(site="worker.cell", kind="delay", rate=1.0,
                      delay_seconds=1.0),
        ))
        victim = spawn_joiner(scratch, "fabric", "victim", faults=molasses)
        survivor = spawn_joiner(scratch, "fabric", "survivor")

        def completed() -> int:
            try:
                return len(os.listdir(result_dir))
            except OSError:
                return 0

        def victim_holds_a_claim() -> bool:
            try:
                names = os.listdir(claim_dir)
            except OSError:
                return False
            for name in names:
                try:
                    with open(os.path.join(claim_dir, name), "r",
                              encoding="utf-8") as handle:
                        payload = json.load(handle)
                except (OSError, ValueError):
                    continue
                if (payload.get("lease") or {}).get("pid") == victim.pid:
                    return True
            return False

        # SIGKILL the slow joiner at the half-way mark, while it owns a cell
        deadline = time.monotonic() + args.timeout
        killed_at_cells = None
        while time.monotonic() < deadline:
            if completed() >= len(cells) // 2 and victim_holds_a_claim():
                killed_at_cells = completed()
                break
            if victim.poll() is not None:
                break  # victim already exited: nothing left to kill
            time.sleep(0.05)
        if killed_at_cells is not None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        survivor_stdout, survivor_stderr = survivor.communicate(
            timeout=args.timeout)

        # campaign ls reads the queue, so it must see the joiners' results
        ls_before = campaign_ls(scratch, "fabric") or {}
        results_before = completed()

        # the coordinator merges everything and steals whatever is still held
        # by the dead pid; resume must finish the sweep regardless
        result = coordinator.run(resume=True)
        ls_after = campaign_ls(scratch, "fabric") or {}

    failures = []
    if killed_at_cells is None:
        failures.append("never caught the victim holding a claim at 50% — "
                        "the kill tested nothing")
    if survivor.returncode != 0:
        failures.append(f"surviving joiner exited {survivor.returncode}: "
                        f"{survivor_stderr.strip()[:500]}")
    if not result.trustworthy:
        failures.append("coordinator roll-up is not trustworthy "
                        f"(errors={result.totals.get('errors')}, "
                        f"conflicts={result.totals.get('conflicts', 0)})")
    if ls_before.get("cells_done") != results_before:
        failures.append(f"campaign ls counted {ls_before.get('cells_done')} done "
                        f"cell(s) but the queue holds {results_before} result(s)")
    if ls_after.get("complete") is not True:
        failures.append("campaign ls does not report the resumed campaign "
                        "complete")
    if len(result.rows) != len(cells):
        failures.append(f"sweep incomplete: {len(result.rows)} of "
                        f"{len(cells)} cells in the roll-up")
    if killed_at_cells is not None and not result.totals.get("cells_stolen"):
        failures.append("a worker died holding a claim but no cell was "
                        "recorded as stolen")
    solo_rows = verdict_rows(solo.rows)
    fabric_rows = verdict_rows(result.rows)
    if fabric_rows != solo_rows:
        diff = [pair for pair in zip(solo_rows, fabric_rows)
                if pair[0] != pair[1]]
        failures.append(f"fabric verdicts diverged from solo: {diff[:3]}")
    if result.totals.get("jobs") != solo.totals.get("jobs"):
        failures.append(f"job totals differ: fabric "
                        f"{result.totals.get('jobs')} vs solo "
                        f"{solo.totals.get('jobs')} — a cell ran twice")

    survivor_doc = None
    try:
        survivor_doc = json.loads(survivor_stdout)["data"]["counters"]
    except (ValueError, KeyError, TypeError):
        pass
    report = {
        "cells": len(cells),
        "killed_at_completed_cells": killed_at_cells,
        "ls_cells_done_before_resume": ls_before.get("cells_done"),
        "results_before_resume": results_before,
        "ls_complete_after_resume": ls_after.get("complete"),
        "survivor_counters": survivor_doc,
        "totals": {key: result.totals.get(key) for key in
                   ("jobs", "errors", "cells_claimed", "cells_stolen",
                    "cells_requeued", "lease_renewals")},
        "verdicts_match": fabric_rows == solo_rows,
        "failures": failures,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.output:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    if failures:
        for failure in failures:
            print(f"fabric_smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"fabric_smoke: OK ({len(cells)} cells, "
          f"{result.totals.get('cells_stolen')} stolen, verdicts identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
