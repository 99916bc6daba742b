"""Table 3 / RevLib rows: bug finding in reversible-logic circuits.

Paper setting: adders up to 320 qubits, cycle/rd/ham parity circuits, hwb and
urf unstructured reversible functions, each with one injected gate; AutoQ
finds every bug (the largest, avg8_325 with 320 qubits, in ~21 min) while
Feynman times out on most large rows and Qcec returns unknown on several.
Scaled-down generated families (see the Substitutions section of
docs/architecture.md); the shape to check is that the hunter finds every
injected bug and that the purely classical rows are also decided by the
path-sum baseline.
"""

import pytest

from repro.baselines import PathSumChecker, RandomStimuliChecker
from repro.benchgen import revlib_suite
from repro.circuits import inject_random_gate
from repro.core import IncrementalBugHunter

from conftest import stable_basis, stable_seed

SUITE = revlib_suite()


@pytest.mark.parametrize("name", sorted(SUITE))
def test_revlib_bughunt(benchmark, bughunt_row, name):
    circuit = SUITE[name].decomposed()
    buggy, _mutation = inject_random_gate(circuit, seed=stable_seed(name))
    hunter = IncrementalBugHunter(seed=5, max_iterations=3 * (circuit.num_qubits + 1))

    hunt = benchmark.pedantic(
        hunter.hunt,
        args=(circuit, buggy),
        kwargs={"initial_basis": stable_basis(name, circuit.num_qubits)},
        rounds=1,
        iterations=1,
    )
    pathsum = PathSumChecker().check_equivalence(circuit, buggy)
    stimuli = RandomStimuliChecker(num_stimuli=8, seed=6).check_equivalence(circuit, buggy)
    bughunt_row(benchmark, name, circuit, hunt, pathsum.verdict, stimuli.verdict)
    assert hunt.bug_found, f"AutoQ-style hunter must find the injected bug in {name}"
