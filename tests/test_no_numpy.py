"""The engine, the CLI and the daemon run without numpy.

numpy is needed only by the dense-matrix baselines (``repro.simulator.dense``
and the brute-force unitary check), which import it when called.  A fresh
interpreter with numpy blocked must import every front end and answer a
verify and a bug-hunt problem.
"""

import os
import subprocess
import sys
import textwrap

import repro

#: import root of the package under test, for the subprocess
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["numpy"] = None  # every "import numpy" now raises ImportError

    import repro
    import repro.cli
    import repro.service.server
    from repro.api import BugHuntProblem, CircuitSource, Session, VerifyProblem

    with Session() as session:
        verify = session.run(VerifyProblem(circuit=CircuitSource.from_family("bv", 4)))
        hunt = session.run(
            BugHuntProblem(reference=CircuitSource.from_family("bv", 3), inject_seed=3)
        )
    assert verify.holds, verify
    assert hunt.injected_mutation is not None and hunt.exit_code in (0, 1), hunt
    print("ok")
    """
)


def test_front_ends_and_problems_run_with_numpy_blocked():
    env = dict(os.environ, PYTHONPATH=_SRC_DIR)
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
