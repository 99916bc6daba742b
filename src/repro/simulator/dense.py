"""Dense numpy-based simulator and unitary builder.

This is a second, fully independent reference implementation used for
cross-checking on small circuits (tests, the brute-force equivalence baseline
and witness validation).  It works with ``complex128`` floating point — which
is exactly the kind of representation the paper's exact encoding avoids — so
all comparisons against it are made with numeric tolerances.  numpy is
imported inside the functions that use it, so importing :mod:`repro` does
not need it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..algebraic import gate_matrix, matrix_to_complex
from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..states import QuantumState, bits_to_int

if TYPE_CHECKING:
    import numpy as np

__all__ = ["apply_gate_dense", "simulate_dense", "circuit_unitary", "state_fidelity"]


def _gate_array(gate: Gate) -> np.ndarray:
    import numpy as np

    if gate.kind == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    return matrix_to_complex(gate_matrix(gate.kind))


def apply_gate_dense(vector: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a dense state vector (MSBF basis ordering)."""
    import numpy as np

    matrix = _gate_array(gate)
    operands = gate.qubits
    arity = len(operands)
    result = np.zeros_like(vector)
    for index in range(vector.shape[0]):
        amplitude = vector[index]
        if amplitude == 0:
            continue
        bits = [(index >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        column = 0
        for qubit in operands:
            column = (column << 1) | bits[qubit]
        for row in range(1 << arity):
            entry = matrix[row, column]
            if entry == 0:
                continue
            new_bits = list(bits)
            for position, qubit in enumerate(operands):
                new_bits[qubit] = (row >> (arity - 1 - position)) & 1
            result[bits_to_int(new_bits)] += entry * amplitude
    return result


def simulate_dense(circuit: Circuit, initial: Optional[QuantumState] = None) -> np.ndarray:
    """Simulate the circuit densely; returns the final ``2^n`` complex vector."""
    import numpy as np

    num_qubits = circuit.num_qubits
    if initial is None:
        vector = np.zeros(1 << num_qubits, dtype=complex)
        vector[0] = 1.0
    else:
        vector = initial.to_vector()
    for gate in circuit:
        vector = apply_gate_dense(vector, gate, num_qubits)
    return vector


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Build the full ``2^n x 2^n`` unitary of the circuit (small circuits only)."""
    import numpy as np

    num_qubits = circuit.num_qubits
    if num_qubits > 14:
        raise ValueError("circuit_unitary is limited to 14 qubits")
    dimension = 1 << num_qubits
    unitary = np.eye(dimension, dtype=complex)
    for gate in circuit:
        columns = [apply_gate_dense(unitary[:, j].copy(), gate, num_qubits) for j in range(dimension)]
        unitary = np.stack(columns, axis=1)
    return unitary


def state_fidelity(left: np.ndarray, right: np.ndarray) -> float:
    """``|<left|right>|^2`` for two dense state vectors."""
    import numpy as np

    return float(abs(np.vdot(left, right)) ** 2)
