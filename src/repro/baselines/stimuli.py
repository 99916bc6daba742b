"""Random-stimuli equivalence checking — the QCEC-style baseline.

QCEC [Burgholzer & Wille 2020] combines decision diagrams, the ZX-calculus and
*random stimuli generation* [19].  The stimuli component is what this module
reproduces: run both circuits on a set of randomly chosen input states with
the exact simulator and compare the outputs.

The verdicts are:

* ``"not_equal"`` — some stimulus produced different outputs (sound),
* ``"probably_equal"`` — no difference was found within the budget (this is
  *not* a proof; Table 3's ``F`` rows for csum_mux_9 etc. are exactly the
  false "equivalent" answers such incomplete checks can give).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuits.circuit import Circuit
from ..simulator.statevector import StateVectorSimulator
from ..states import QuantumState

__all__ = ["StimuliVerdict", "StimuliResult", "RandomStimuliChecker"]


class StimuliVerdict:
    """Verdict strings of the random-stimuli checker."""

    NOT_EQUAL = "not_equal"
    PROBABLY_EQUAL = "probably_equal"


@dataclass
class StimuliResult:
    """Outcome of a random-stimuli comparison."""

    verdict: str
    stimuli_tried: int
    seconds: float
    #: the distinguishing input (basis bits) when a difference was found
    witness_input: Optional[Tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.verdict == StimuliVerdict.NOT_EQUAL


class RandomStimuliChecker:
    """Compares two circuits on randomly generated computational-basis stimuli.

    Classical (basis-state) stimuli are the cheapest and are what large-scale
    stimuli checkers default to; they can only observe differences that
    manifest on basis inputs, which is the principled reason this baseline can
    miss bugs that the TA-based approach catches.
    """

    def __init__(self, num_stimuli: int = 16, seed: Optional[int] = None):
        self.num_stimuli = num_stimuli
        self.seed = seed

    def _stimuli(self, num_qubits: int) -> List[Tuple[int, ...]]:
        """The all-zeros input, then distinct random basis inputs."""
        rng = random.Random(self.seed)
        stimuli: List[Tuple[int, ...]] = [(0,) * num_qubits]
        while len(stimuli) < self.num_stimuli:
            candidate = tuple(rng.randint(0, 1) for _ in range(num_qubits))
            if candidate not in stimuli:
                stimuli.append(candidate)
            if len(stimuli) >= 2 ** num_qubits:
                break
        return stimuli

    def check_equivalence(self, first: Circuit, second: Circuit) -> StimuliResult:
        """Run both circuits on the stimuli and compare outputs exactly."""
        start = time.perf_counter()
        if first.num_qubits != second.num_qubits:
            return StimuliResult(StimuliVerdict.NOT_EQUAL, 0, time.perf_counter() - start)
        simulator = StateVectorSimulator()
        tried = 0
        for bits in self._stimuli(first.num_qubits):
            state = QuantumState.basis_state(first.num_qubits, bits)
            out_first = simulator.run(first, state)
            out_second = simulator.run(second, state)
            tried += 1
            if not out_first.equals_up_to_global_phase(out_second):
                return StimuliResult(
                    StimuliVerdict.NOT_EQUAL, tried, time.perf_counter() - start, witness_input=bits
                )
        return StimuliResult(StimuliVerdict.PROBABLY_EQUAL, tried, time.perf_counter() - start)
