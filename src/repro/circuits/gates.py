"""Gate model shared by the whole library.

A :class:`Gate` is a named operation applied to an ordered tuple of qubits.
By convention the **last** qubit is always the target and any preceding qubits
are controls (this matches OpenQASM's ``cx c, t`` / ``ccx c1, c2, t`` order).

Only the gates of Table 1 of the paper (plus their adjoints ``sdg``/``tdg``,
the derived ``swap``/``cswap`` and the diagonal controlled-phase extensions
``cs``/``csdg``/``ct``/``ctdg`` used by the approximate-QFT benchmarks) are
representable; anything else must be decomposed by the benchmark generators
before it reaches the analysis engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Gate", "GATE_ARITY", "SINGLE_QUBIT_GATES", "CONTROLLED_GATES"]


#: Number of qubit operands for every supported gate kind (controls + target).
GATE_ARITY: Dict[str, int] = {
    "x": 1,
    "y": 1,
    "z": 1,
    "h": 1,
    "s": 1,
    "sdg": 1,
    "t": 1,
    "tdg": 1,
    "rx": 1,   # Rx(pi/2), the only rotation angle supported by the algebraic encoding
    "ry": 1,   # Ry(pi/2)
    "cx": 2,
    "cz": 2,
    "cs": 2,    # controlled-S = diag(1, 1, 1, i); extension beyond Table 1
    "csdg": 2,  # controlled-S†
    "ct": 2,    # controlled-T = diag(1, 1, 1, w); extension beyond Table 1
    "ctdg": 2,  # controlled-T†
    "ccx": 3,
    "swap": 2,
    "cswap": 3,
}

#: Gates acting on a single qubit.
SINGLE_QUBIT_GATES = frozenset(name for name, arity in GATE_ARITY.items() if arity == 1)

#: Gates with at least one control qubit (or otherwise multi-qubit).
CONTROLLED_GATES = frozenset(name for name, arity in GATE_ARITY.items() if arity > 1)


@dataclass(frozen=True)
class Gate:
    """A single quantum gate application.

    Attributes:
        kind: lower-case gate name, one of :data:`GATE_ARITY`.
        qubits: operand qubits; controls first, target last.
    """

    kind: str
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if kind not in GATE_ARITY:
            raise ValueError(f"unsupported gate kind: {kind!r}")
        if len(self.qubits) != GATE_ARITY[kind]:
            raise ValueError(
                f"gate {kind!r} expects {GATE_ARITY[kind]} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {kind!r} applied to duplicate qubits {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")

    # ------------------------------------------------------------------ views
    @property
    def target(self) -> int:
        """The target qubit (last operand)."""
        return self.qubits[-1]

    @property
    def controls(self) -> Tuple[int, ...]:
        """The control qubits (all operands except the last)."""
        if self.kind in ("swap", "cswap"):
            # swap has no controls; cswap has exactly one control (the first operand)
            return self.qubits[:1] if self.kind == "cswap" else ()
        return self.qubits[:-1]

    def dagger(self) -> "Gate":
        """Return the adjoint gate (used to build ``C2†`` for equivalence checks)."""
        inverse_names = {
            "s": "sdg",
            "sdg": "s",
            "t": "tdg",
            "tdg": "t",
            "cs": "csdg",
            "csdg": "cs",
            "ct": "ctdg",
            "ctdg": "ct",
        }
        if self.kind in inverse_names:
            return Gate(inverse_names[self.kind], self.qubits)
        if self.kind in ("rx", "ry"):
            raise ValueError(f"adjoint of {self.kind} (pi/2 rotation) is not in the supported gate set")
        # x, y, z, h, cx, cz, ccx, swap, cswap are self-inverse
        return self

    def shift(self, offset: int) -> "Gate":
        """Return the same gate with all qubit indices shifted by ``offset``."""
        return Gate(self.kind, tuple(q + offset for q in self.qubits))

    def remap(self, mapping: Dict[int, int]) -> "Gate":
        """Return the same gate with qubits renamed according to ``mapping``."""
        return Gate(self.kind, tuple(mapping.get(q, q) for q in self.qubits))

    def __str__(self) -> str:
        return f"{self.kind} {', '.join(f'q[{q}]' for q in self.qubits)}"
