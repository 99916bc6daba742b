"""Brute-force unitary equivalence checking (small circuits only).

Builds the full ``2^n x 2^n`` unitaries of both circuits with the dense
simulator and compares them up to a global phase.  Exponential in the number
of qubits, so only usable as a ground-truth oracle for the test suite and for
tiny instances — which is exactly why the paper needs the TA-based approach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..circuits.circuit import Circuit
from ..simulator.dense import circuit_unitary

if TYPE_CHECKING:
    import numpy as np

__all__ = ["UnitaryResult", "check_unitary_equivalence", "unitaries_equal_up_to_phase"]


@dataclass
class UnitaryResult:
    """Outcome of a brute-force unitary comparison."""

    equivalent: bool
    seconds: float
    max_deviation: float

    def __bool__(self) -> bool:
        return self.equivalent


def unitaries_equal_up_to_phase(first: np.ndarray, second: np.ndarray, tolerance: float = 1e-8) -> bool:
    """True iff ``first == phase * second`` for some unit complex ``phase``."""
    import numpy as np

    if first.shape != second.shape:
        return False
    # find a reference entry with a significant magnitude to fix the phase
    index = np.unravel_index(np.argmax(np.abs(second)), second.shape)
    if abs(second[index]) < tolerance:
        return bool(np.allclose(first, second, atol=tolerance))
    phase = first[index] / second[index]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(first, phase * second, atol=tolerance))


def check_unitary_equivalence(first: Circuit, second: Circuit, max_qubits: int = 12) -> UnitaryResult:
    """Compare two circuits by building their full unitaries (exponential)."""
    import numpy as np

    start = time.perf_counter()
    if first.num_qubits != second.num_qubits:
        return UnitaryResult(False, time.perf_counter() - start, float("inf"))
    if first.num_qubits > max_qubits:
        raise ValueError(
            f"brute-force unitary comparison limited to {max_qubits} qubits "
            f"(got {first.num_qubits})"
        )
    unitary_first = circuit_unitary(first)
    unitary_second = circuit_unitary(second)
    equivalent = unitaries_equal_up_to_phase(unitary_first, unitary_second)
    deviation = float(np.max(np.abs(unitary_first - unitary_second)))
    return UnitaryResult(equivalent, time.perf_counter() - start, deviation)
