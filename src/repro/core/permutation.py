"""Permutation-based encoding of quantum gates on tree automata (Section 5).

The gates X, Y, Z, S, S†, T, T†, CNOT, CZ and Toffoli permute the computational
basis states (possibly scaling amplitudes by a constant).  Their effect on a
tree automaton can therefore be computed *structurally*, without any product
construction:

* ``X_t`` swaps the left and right children of every ``x_t`` transition
  (Theorem 5.1),
* constant-scaling gates create one "primed" copy of the automaton whose leaf
  amplitudes are scaled, and redirect the ``x_t`` right children into that copy
  (Algorithm 1, Theorem 5.2),
* controlled gates apply the inner gate, prime the result, and redirect the
  right children of the control-qubit transitions into the primed copy
  (Algorithm 2, Theorem 5.3); this requires every control index to be smaller
  than the target index — otherwise the caller must fall back to the
  composition-based encoding.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algebraic import ONE, AlgebraicNumber
from ..circuits.gates import Gate
from ..ta.automaton import InternalTransition, TreeAutomaton, symbol_qubit
from .composition import _copy_subtrees

__all__ = ["PermutationUnsupported", "supports_permutation", "apply_permutation_gate"]

_OMEGA = AlgebraicNumber(0, 1, 0, 0, 0)
_OMEGA2 = AlgebraicNumber(0, 0, 1, 0, 0)
_NEG_ONE = AlgebraicNumber(-1, 0, 0, 0, 0)

#: gate kind -> (swap_children, scalar_for_branch0, scalar_for_branch1)
#: semantics: new_amp(b_t = 0) = scalar0 * old_amp(b_t = 1 if swap else 0), and
#:            new_amp(b_t = 1) = scalar1 * old_amp(b_t = 0 if swap else 1).
_SINGLE_QUBIT_RULES: Dict[str, Tuple[bool, AlgebraicNumber, AlgebraicNumber]] = {
    "x": (True, ONE, ONE),
    "y": (True, -_OMEGA2, _OMEGA2),
    "z": (False, ONE, _NEG_ONE),
    "s": (False, ONE, _OMEGA2),
    "sdg": (False, ONE, -_OMEGA2),
    "t": (False, ONE, _OMEGA),
    "tdg": (False, ONE, _OMEGA.conjugate()),
}


class PermutationUnsupported(ValueError):
    """Raised when a gate cannot be handled by the permutation-based encoding."""


def supports_permutation(gate: Gate) -> bool:
    """True iff :func:`apply_permutation_gate` can handle this gate application."""
    if gate.kind in _SINGLE_QUBIT_RULES:
        return True
    if gate.kind == "cx":
        return gate.qubits[0] < gate.qubits[1]
    if gate.kind in ("cz", "cs", "csdg", "ct", "ctdg"):
        return True  # diagonal controlled-phase gates are symmetric; roles can always be arranged
    if gate.kind == "ccx":
        return max(gate.qubits[0], gate.qubits[1]) < gate.qubits[2]
    return False


def apply_permutation_gate(automaton: TreeAutomaton, gate: Gate) -> TreeAutomaton:
    """Apply a permutation-style gate to a TA; raise :class:`PermutationUnsupported` otherwise."""
    kind = gate.kind
    if kind in _SINGLE_QUBIT_RULES:
        swap, scalar0, scalar1 = _SINGLE_QUBIT_RULES[kind]
        result = automaton
        if swap:
            result = _swap_children(result, gate.target)
        if not (scalar0 == ONE and scalar1 == ONE):
            result = _scale_branches(result, gate.target, scalar0, scalar1)
        return result
    if kind == "cx":
        control, target = gate.qubits
        if control >= target:
            raise PermutationUnsupported(f"CNOT with control {control} >= target {target}")
        return _apply_controlled(automaton, control, lambda a: apply_permutation_gate(a, Gate("x", (target,))))
    if kind in ("cz", "cs", "csdg", "ct", "ctdg"):
        control, target = sorted(gate.qubits)
        inner_kind = kind[1:]  # "z", "s", "sdg", "t" or "tdg"
        return _apply_controlled(
            automaton, control, lambda a: apply_permutation_gate(a, Gate(inner_kind, (target,)))
        )
    if kind == "ccx":
        control_a, control_b = sorted(gate.qubits[:2])
        target = gate.qubits[2]
        if control_b >= target:
            raise PermutationUnsupported(
                f"Toffoli with control {control_b} >= target {target}"
            )
        return _apply_controlled(
            automaton,
            control_a,
            lambda a: apply_permutation_gate(a, Gate("cx", (control_b, target))),
        )
    raise PermutationUnsupported(f"gate {kind!r} has no permutation-based encoding")


# --------------------------------------------------------------------------- helpers
def _swap_children(automaton: TreeAutomaton, target: int) -> TreeAutomaton:
    """The ``X_t`` construction: swap children of every ``x_target`` transition."""
    internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    for parent, transitions in automaton.internal.items():
        changed = False
        rewritten: List[InternalTransition] = []
        for entry in transitions:
            symbol, left, right = entry
            if symbol_qubit(symbol) == target and left != right:
                rewritten.append((symbol, right, left))
                changed = True
            else:
                rewritten.append(entry)
        internal[parent] = tuple(rewritten) if changed else transitions
    return TreeAutomaton._make(
        automaton.num_qubits, automaton.roots, internal, automaton.leaves
    )


def _redirect_right_children(
    automaton: TreeAutomaton, qubit: int, offset: int
) -> Tuple[Dict[int, Tuple[InternalTransition, ...]], List[int]]:
    """Rewrite every ``x_qubit`` transition to send its right child into the
    ``+offset`` copy; returns the new transition map and the redirected children."""
    internal: Dict[int, Tuple[InternalTransition, ...]] = {}
    redirected: List[int] = []
    for parent, transitions in automaton.internal.items():
        changed = False
        rewritten: List[InternalTransition] = []
        for entry in transitions:
            symbol, left, right = entry
            if symbol_qubit(symbol) == qubit:
                rewritten.append((symbol, left, right + offset))
                redirected.append(right)
                changed = True
            else:
                rewritten.append(entry)
        internal[parent] = tuple(rewritten) if changed else transitions
    return internal, redirected


def _scale_branches(
    automaton: TreeAutomaton, target: int, scalar0: AlgebraicNumber, scalar1: AlgebraicNumber
) -> TreeAutomaton:
    """Algorithm 1's scaling step: multiply the ``b_target = 0`` branch amplitudes
    by ``scalar0`` and the ``b_target = 1`` branch amplitudes by ``scalar1``."""
    offset = automaton.next_free_state()
    # original part: leaves scaled by scalar0, x_target right children redirected
    internal, redirected = _redirect_right_children(automaton, target, offset)
    if scalar0 == ONE:
        leaves = dict(automaton.leaves)
    else:
        leaves = {state: amplitude * scalar0 for state, amplitude in automaton.leaves.items()}
    # primed copy of exactly the redirected subtrees, leaves scaled by scalar1
    _copy_subtrees(automaton, redirected, offset, internal, leaves, scalar1)
    return TreeAutomaton._make(automaton.num_qubits, automaton.roots, internal, leaves)


def _apply_controlled(automaton: TreeAutomaton, control: int, inner) -> TreeAutomaton:
    """Algorithm 2: apply ``inner`` under the ``b_control = 1`` branch only.

    ``inner`` is a function mapping a TA to the TA of the inner gate's output;
    it must keep the original state identifiers for the original states (all
    constructions in this module do).
    """
    inner_automaton = inner(automaton)
    offset = max(inner_automaton.next_free_state(), automaton.next_free_state())
    # original part with x_control right children redirected into the primed inner copy
    internal, redirected = _redirect_right_children(automaton, control, offset)
    leaves = dict(automaton.leaves)
    # primed copy of the inner-gate automaton, below the control level only
    _copy_subtrees(inner_automaton, redirected, offset, internal, leaves, ONE)
    return TreeAutomaton._make(automaton.num_qubits, automaton.roots, internal, leaves)
