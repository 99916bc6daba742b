#!/usr/bin/env python3
"""Run a resumable matrix sweep (families x sizes x modes) through the API.

This is the paper's Section 7.2 evaluation shape as a programmable object: a
``MatrixSpec`` expands into one bug-hunting campaign per (family, size, mode)
cell, cells run cheapest-first, the sweep is recorded in an on-disk manifest,
and every finished cell is published to the campaign's lease queue next to
it.  The script demonstrates the resume contract directly: it deliberately
kills the sweep partway through, then resumes it and shows that the
already-completed cells are reused rather than re-verified.

Run with:  python examples/campaign_matrix.py [workers]
"""

import sys
import tempfile

from repro.campaign import MatrixScheduler, MatrixSpec, format_cell_table


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    spec = MatrixSpec.from_mapping({
        "families": ["mctoffoli", "ghz", "grover"],
        "sizes": {"mctoffoli": "2-3", "ghz": [3, 4], "grover": [2]},
        "modes": ["hybrid", "permutation"],  # ghz/grover skip permutation
        "mutants": 5,
        "mutations": ["insert", "remove"],
    })
    print(f"sweep {spec.default_campaign_id()}: {len(spec.cells())} cells, "
          f"skipping {len(spec.skipped_combinations())} unsupported combination(s)")

    with tempfile.TemporaryDirectory() as scratch:
        def scheduler() -> MatrixScheduler:
            return MatrixScheduler(
                spec,
                workers=workers,
                report_dir=f"{scratch}/reports",
                manifest_dir=f"{scratch}/manifests",
                cache_dir=f"{scratch}/cache",
            )

        # Simulate a sweep dying partway: stop after the first two cells by
        # raising out of the progress callback (a Ctrl-C behaves the same).
        seen = []

        def die_early(message: str) -> None:
            if message.startswith("[3/"):
                raise KeyboardInterrupt
            seen.append(message)

        try:
            scheduler().run(progress=die_early)
        except KeyboardInterrupt:
            print(f"interrupted after {len(seen)} cell(s) — the queue has them banked")

        # Resume: completed cells come back from the queue, the rest run.
        result = scheduler().run(resume=True, progress=print)
        print()
        print(format_cell_table(result.rows, result.totals))
        print(f"\nreused {result.reused_cells} cell(s); "
              f"roll-up written to {result.summary_path}")


if __name__ == "__main__":
    main()
