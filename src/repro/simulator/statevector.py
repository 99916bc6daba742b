"""Exact sparse state-vector simulator (the reproduction's SliQSim substitute).

The paper compares against SliQSim, a decision-diagram simulator that uses the
same algebraic amplitude encoding.  This module provides a functionally
equivalent substrate: a simulator that applies gates by *matrix semantics*
(Appendix A) to a sparse map from basis states to exact algebraic amplitudes.
It is deliberately independent from the symbolic update formulae of
:mod:`repro.core.formulas`, so the two can be cross-checked against each other
(Theorem 4.1) in the test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algebraic import ZERO, AlgebraicNumber, gate_matrix
from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..states import QuantumState

__all__ = ["StateVectorSimulator", "simulate_circuit", "simulate_basis_states"]


class StateVectorSimulator:
    """Applies circuits to exact sparse quantum states using matrix semantics."""

    def apply_gate(self, state: QuantumState, gate: Gate) -> QuantumState:
        """Return the state after applying one gate."""
        if gate.kind == "swap":
            a, b = gate.qubits
            result = QuantumState(state.num_qubits)
            for bits, amplitude in state.items():
                swapped = list(bits)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                result[tuple(swapped)] = result[tuple(swapped)] + amplitude
            return result
        matrix = gate_matrix(gate.kind)
        operands = gate.qubits
        arity = len(operands)
        result = QuantumState(state.num_qubits)
        for bits, amplitude in state.items():
            column = 0
            for qubit in operands:
                column = (column << 1) | bits[qubit]
            for row in range(1 << arity):
                entry = matrix[row][column]
                if entry.is_zero():
                    continue
                new_bits = list(bits)
                for position, qubit in enumerate(operands):
                    new_bits[qubit] = (row >> (arity - 1 - position)) & 1
                new_bits = tuple(new_bits)
                result[new_bits] = result[new_bits] + entry * amplitude
        return result

    def run(self, circuit: Circuit, initial: QuantumState) -> QuantumState:
        """Return the state after running the full circuit on ``initial``."""
        if initial.num_qubits != circuit.num_qubits:
            raise ValueError("initial state width does not match the circuit")
        state = initial
        for gate in circuit:
            state = self.apply_gate(state, gate)
        return state

    def run_on_basis(self, circuit: Circuit, basis) -> QuantumState:
        """Run the circuit on a single computational basis state."""
        return self.run(circuit, QuantumState.basis_state(circuit.num_qubits, basis))


def simulate_circuit(circuit: Circuit, initial: Optional[QuantumState] = None) -> QuantumState:
    """Simulate a circuit from ``initial`` (default ``|0...0>``)."""
    simulator = StateVectorSimulator()
    if initial is None:
        initial = QuantumState.zero_state(circuit.num_qubits)
    return simulator.run(circuit, initial)


def simulate_basis_states(
    circuit: Circuit, basis_states: Iterable
) -> List[Tuple[Tuple[int, ...], QuantumState]]:
    """Run the circuit once per basis state, the way the paper drives SliQSim.

    Returns a list of ``(input_bits, output_state)`` pairs.  This is the
    baseline used in the Table 2 experiments: the simulator has to be run once
    for every state in the pre-condition, which is where the exponential
    factor of Grover-All and MCToffoli shows up.
    """
    simulator = StateVectorSimulator()
    results = []
    for basis in basis_states:
        state = QuantumState.basis_state(circuit.num_qubits, basis)
        results.append((state._normalise_basis(basis, circuit.num_qubits), simulator.run(circuit, state)))
    return results
