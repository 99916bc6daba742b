"""One cold start of what a workload needs before its first verdict.

    python perfbench/probe.py <workload> <scratch>

Imports the modules the workload's front end imports and resolves the kernel
backend; for ``campaign-sweep`` it also plans the sweep (manifest and lease
queue) into ``scratch``.  ``run.py`` times whole runs of this script, so the
interpreter start is included, as it is for a user.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    workload, scratch = argv[1], argv[2]
    if workload == "campaign-sweep":
        from common import campaign_spec

        from repro.campaign import MatrixScheduler, MatrixSpec
        from repro.ta.kernel import active_backend_name

        active_backend_name()
        scheduler = MatrixScheduler(
            MatrixSpec.from_mapping(campaign_spec()), workers=2,
            report_dir=os.path.join(scratch, "reports"),
            manifest_dir=os.path.join(scratch, "manifests"),
        )
        scheduler.plan()
    else:
        from repro.circuits import parse_qasm  # noqa: F401
        from repro.core import IncrementalBugHunter, verify_triple  # noqa: F401
        from repro.ta import serialization  # noqa: F401
        from repro.ta.kernel import active_backend_name

        active_backend_name()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
