"""Decision-diagram state representation with exact algebraic amplitudes.

SliQSim — the simulator the paper compares against in Table 2 — represents the
state vector as decision diagrams over the qubits instead of a flat array, so
that structured states (uniform superpositions, GHZ states, basis states with
untouched ancillas) take space proportional to the number of qubits rather
than ``2^n``.  This module provides that substrate in Python:

* :class:`DDManager` hash-conses nodes, so identical sub-vectors are stored
  once and shared;
* :class:`DDState` is one quantum state as a rooted, quasi-reduced diagram
  (every root-to-terminal path visits all ``n`` levels) whose terminal edges
  carry exact :class:`~repro.algebraic.omega.AlgebraicNumber` amplitudes;
* :class:`DecisionDiagramSimulator` applies circuits by linear combinations of
  cofactors — for a ``k``-qubit gate the ``2^k x 2^k`` matrix of Appendix A is
  applied to the ``2^k`` cofactor diagrams obtained by restricting the operand
  qubits, all through cached diagram addition and scaling.

Compared with true QMDDs the diagrams are *not* weight-normalised (the
algebraic ring has no exact division), so two sub-vectors that differ only by
a constant factor are not shared; sub-vectors that are exactly equal are.
This keeps all arithmetic exact while still giving the linear-size
representation for the structured states the paper's benchmarks produce.  The
test suite cross-checks the simulator against the sparse exact simulator; the
``node_count`` statistic makes the compactness argument measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..algebraic import ONE, ZERO, AlgebraicNumber, gate_matrix
from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..states import QuantumState

__all__ = ["DDManager", "DDState", "DecisionDiagramSimulator", "simulate_decision_diagram"]


@dataclass(frozen=True)
class _Node:
    """An internal diagram node: branch on one qubit, children are edges."""

    qubit: int
    low: "Edge"
    high: "Edge"


#: An edge is ``(weight, node)``; ``node is None`` marks the terminal.  The
#: amplitude of a path is the product of the weights along it.
Edge = Tuple[AlgebraicNumber, Optional[_Node]]

_ZERO_EDGE: Edge = (ZERO, None)


class DDManager:
    """Hash-consing manager: guarantees identical sub-diagrams are one object."""

    def __init__(self) -> None:
        self._unique: Dict[Tuple[int, int, AlgebraicNumber, int, AlgebraicNumber], _Node] = {}

    def node(self, qubit: int, low: Edge, high: Edge) -> _Node:
        """Return the unique node for ``(qubit, low, high)``."""
        key = (qubit, id(low[1]), low[0], id(high[1]), high[0])
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        created = _Node(qubit, low, high)
        self._unique[key] = created
        return created

    def live_nodes(self) -> int:
        """Number of distinct nodes ever created (an upper bound on live nodes)."""
        return len(self._unique)


class DDState:
    """A quantum state stored as a shared decision diagram."""

    def __init__(self, manager: DDManager, num_qubits: int, root: Edge):
        self.manager = manager
        self.num_qubits = num_qubits
        self.root = root

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_quantum_state(cls, state: QuantumState, manager: Optional[DDManager] = None) -> "DDState":
        """Build a diagram from an explicit sparse state."""
        manager = manager or DDManager()

        def build(level: int, suffixes: Dict[Tuple[int, ...], AlgebraicNumber]) -> Edge:
            if not suffixes:
                return _ZERO_EDGE
            if level == state.num_qubits:
                amplitude = suffixes.get((), ZERO)
                return _ZERO_EDGE if amplitude.is_zero() else (amplitude, None)
            low_suffixes = {bits[1:]: amp for bits, amp in suffixes.items() if bits[0] == 0}
            high_suffixes = {bits[1:]: amp for bits, amp in suffixes.items() if bits[0] == 1}
            low = build(level + 1, low_suffixes)
            high = build(level + 1, high_suffixes)
            if low == _ZERO_EDGE and high == _ZERO_EDGE:
                return _ZERO_EDGE
            return (ONE, manager.node(level, low, high))

        initial = {bits: amplitude for bits, amplitude in state.items()}
        return cls(manager, state.num_qubits, build(0, initial))

    @classmethod
    def basis_state(cls, num_qubits: int, basis, manager: Optional[DDManager] = None) -> "DDState":
        """The computational basis state ``|basis>`` as a diagram."""
        return cls.from_quantum_state(QuantumState.basis_state(num_qubits, basis), manager)

    @classmethod
    def zero_state(cls, num_qubits: int, manager: Optional[DDManager] = None) -> "DDState":
        """``|0...0>`` as a diagram."""
        return cls.basis_state(num_qubits, (0,) * num_qubits, manager)

    # ---------------------------------------------------------------- queries
    def amplitude(self, basis) -> AlgebraicNumber:
        """The exact amplitude at one computational-basis position."""
        bits = QuantumState._normalise_basis(basis, self.num_qubits)
        weight, node = self.root
        for bit in bits:
            if weight.is_zero() or node is None:
                return ZERO
            edge = node.high if bit else node.low
            weight = weight * edge[0]
            node = edge[1]
        return ZERO if node is not None else weight

    def to_quantum_state(self) -> QuantumState:
        """Expand back into the sparse function representation."""
        result = QuantumState(self.num_qubits)

        def walk(edge: Edge, prefix: Tuple[int, ...], accumulated: AlgebraicNumber) -> None:
            weight, node = edge
            if weight.is_zero():
                return
            total = accumulated * weight
            if node is None:
                if len(prefix) == self.num_qubits and not total.is_zero():
                    result[prefix] = result[prefix] + total
                return
            walk(node.low, prefix + (0,), total)
            walk(node.high, prefix + (1,), total)

        walk(self.root, (), ONE)
        return result

    def node_count(self) -> int:
        """Number of distinct nodes reachable from the root (the DD size metric)."""
        seen = set()

        def count(edge: Edge) -> None:
            node = edge[1]
            if node is None or id(node) in seen:
                return
            seen.add(id(node))
            count(node.low)
            count(node.high)

        count(self.root)
        return len(seen)

    def is_zero(self) -> bool:
        """True iff every amplitude is zero."""
        return self.root == _ZERO_EDGE or self.root[0].is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DDState):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.to_quantum_state() == other.to_quantum_state()

    def __repr__(self) -> str:
        return f"DDState(num_qubits={self.num_qubits}, nodes={self.node_count()})"


class DecisionDiagramSimulator:
    """Applies circuits to :class:`DDState` diagrams with exact amplitudes."""

    def __init__(self, manager: Optional[DDManager] = None):
        self.manager = manager or DDManager()

    # ------------------------------------------------------------- primitives
    def _add(self, left: Edge, right: Edge, level: int, num_qubits: int, cache: Dict) -> Edge:
        if left[0].is_zero():
            return right
        if right[0].is_zero():
            return left
        key = (id(left[1]), left[0], id(right[1]), right[0], level)
        if key in cache:
            return cache[key]
        if level == num_qubits:
            total = left[0] + right[0]
            result: Edge = _ZERO_EDGE if total.is_zero() else (total, None)
        else:
            left_node = left[1]
            right_node = right[1]
            low = self._add(
                self._scale(left_node.low, left[0]) if left_node else _ZERO_EDGE,
                self._scale(right_node.low, right[0]) if right_node else _ZERO_EDGE,
                level + 1,
                num_qubits,
                cache,
            )
            high = self._add(
                self._scale(left_node.high, left[0]) if left_node else _ZERO_EDGE,
                self._scale(right_node.high, right[0]) if right_node else _ZERO_EDGE,
                level + 1,
                num_qubits,
                cache,
            )
            if low == _ZERO_EDGE and high == _ZERO_EDGE:
                result = _ZERO_EDGE
            else:
                result = (ONE, self.manager.node(level, low, high))
        cache[key] = result
        return result

    @staticmethod
    def _scale(edge: Edge, scalar: AlgebraicNumber) -> Edge:
        if scalar.is_zero() or edge[0].is_zero():
            return _ZERO_EDGE
        if scalar == ONE:
            return edge
        return (edge[0] * scalar, edge[1])

    def _overwrite(
        self, edge: Edge, level: int, num_qubits: int, qubit: int, read_bit: int, write_bit: int, cache: Dict
    ) -> Edge:
        """Take the ``read_bit`` branch at ``qubit`` and store it in the ``write_bit`` branch.

        The other branch becomes zero; levels above and below are rebuilt with
        sharing.  This is the cofactor-extraction + re-insertion step of the
        gate application.
        """
        if edge[0].is_zero():
            return _ZERO_EDGE
        key = (id(edge[1]), edge[0], level, qubit, read_bit, write_bit)
        if key in cache:
            return cache[key]
        node = edge[1]
        if level == qubit:
            chosen = self._scale(node.high if read_bit else node.low, edge[0])
            if chosen == _ZERO_EDGE:
                result = _ZERO_EDGE
            else:
                low, high = (chosen, _ZERO_EDGE) if write_bit == 0 else (_ZERO_EDGE, chosen)
                result = (ONE, self.manager.node(level, low, high))
        else:
            if node is None:
                result = edge
            else:
                low = self._overwrite(
                    self._scale(node.low, edge[0]), level + 1, num_qubits, qubit, read_bit, write_bit, cache
                )
                high = self._overwrite(
                    self._scale(node.high, edge[0]), level + 1, num_qubits, qubit, read_bit, write_bit, cache
                )
                if low == _ZERO_EDGE and high == _ZERO_EDGE:
                    result = _ZERO_EDGE
                else:
                    result = (ONE, self.manager.node(level, low, high))
        cache[key] = result
        return result

    # ------------------------------------------------------------------ gates
    def apply_gate(self, state: DDState, gate: Gate) -> DDState:
        """Apply one gate by matrix semantics on the operand cofactors."""
        if gate.kind == "swap":
            a, b = gate.qubits
            return self.apply_gate(
                self.apply_gate(self.apply_gate(state, Gate("cx", (a, b))), Gate("cx", (b, a))),
                Gate("cx", (a, b)),
            )
        matrix = gate_matrix(gate.kind)
        operands = gate.qubits
        arity = len(operands)
        num_qubits = state.num_qubits
        add_cache: Dict = {}
        result: Edge = _ZERO_EDGE
        for column in range(1 << arity):
            column_bits = [(column >> (arity - 1 - position)) & 1 for position in range(arity)]
            for row in range(1 << arity):
                entry = matrix[row][column]
                if entry.is_zero():
                    continue
                row_bits = [(row >> (arity - 1 - position)) & 1 for position in range(arity)]
                transformed = state.root
                for position, qubit in enumerate(operands):
                    transformed = self._overwrite(
                        transformed, 0, num_qubits, qubit, column_bits[position], row_bits[position], {}
                    )
                transformed = self._scale(transformed, entry)
                result = self._add(result, transformed, 0, num_qubits, add_cache)
        return DDState(self.manager, num_qubits, result)

    def run(self, circuit: Circuit, initial: DDState) -> DDState:
        """Run a whole circuit."""
        if initial.num_qubits != circuit.num_qubits:
            raise ValueError("initial state width does not match the circuit")
        state = initial
        for gate in circuit:
            state = self.apply_gate(state, gate)
        return state

    def run_on_basis(self, circuit: Circuit, basis) -> DDState:
        """Run the circuit on one computational basis input."""
        return self.run(circuit, DDState.basis_state(circuit.num_qubits, basis, self.manager))


def simulate_decision_diagram(circuit: Circuit, initial: Optional[QuantumState] = None) -> QuantumState:
    """Convenience wrapper mirroring :func:`repro.simulator.statevector.simulate_circuit`."""
    simulator = DecisionDiagramSimulator()
    if initial is None:
        start = DDState.zero_state(circuit.num_qubits, simulator.manager)
    else:
        start = DDState.from_quantum_state(initial, simulator.manager)
    return simulator.run(circuit, start).to_quantum_state()
