"""Reference unitary matrices of the supported gates over the algebraic ring.

These are the "standard semantics" of Appendix A of the paper.  They are used
by the exact simulators (:mod:`repro.simulator`) and by tests that validate the
symbolic update formulae of Table 1 (Theorem 4.1) against matrix semantics.

Matrices are stored as tuples of tuples of :class:`~repro.algebraic.omega.AlgebraicNumber`
so that they stay exact; helpers convert them to numpy complex arrays on demand.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .omega import ONE, ZERO, AlgebraicNumber

__all__ = [
    "GATE_MATRICES",
    "gate_matrix",
    "matrix_to_complex",
    "kron",
    "matvec",
    "matmul",
    "identity_matrix",
    "is_unitary",
]

Matrix = Tuple[Tuple[AlgebraicNumber, ...], ...]

_W = AlgebraicNumber(0, 1, 0, 0, 0)        # w
_W2 = AlgebraicNumber(0, 0, 1, 0, 0)       # w^2 == i
_NEG_ONE = AlgebraicNumber(-1, 0, 0, 0, 0)
_H_COEFF = AlgebraicNumber(1, 0, 0, 0, 1)  # 1/sqrt(2)


def _m(rows: Sequence[Sequence[AlgebraicNumber]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity_matrix(dim: int) -> Matrix:
    """Exact identity matrix of the given dimension."""
    return _m([[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)])


#: Single- and multi-qubit gate matrices keyed by canonical gate name
#: (Appendix A of the paper).  Control qubits come before the target in the
#: tensor ordering used by :func:`repro.simulator.dense.circuit_unitary`.
GATE_MATRICES: Dict[str, Matrix] = {
    "X": _m([[ZERO, ONE], [ONE, ZERO]]),
    "Y": _m([[ZERO, -_W2], [_W2, ZERO]]),
    "Z": _m([[ONE, ZERO], [ZERO, _NEG_ONE]]),
    "H": _m([[_H_COEFF, _H_COEFF], [_H_COEFF, -_H_COEFF]]),
    "S": _m([[ONE, ZERO], [ZERO, _W2]]),
    "SDG": _m([[ONE, ZERO], [ZERO, -_W2]]),
    "T": _m([[ONE, ZERO], [ZERO, _W]]),
    "TDG": _m([[ONE, ZERO], [ZERO, _W.conjugate()]]),
    "RX": _m([[_H_COEFF, -_W2 * _H_COEFF], [-_W2 * _H_COEFF, _H_COEFF]]),
    "RY": _m([[_H_COEFF, -_H_COEFF], [_H_COEFF, _H_COEFF]]),
    "CX": _m(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ZERO, ONE],
            [ZERO, ZERO, ONE, ZERO],
        ]
    ),
    "CZ": _m(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, _NEG_ONE],
        ]
    ),
    "CS": _m(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, _W2],
        ]
    ),
    "CSDG": _m(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, -_W2],
        ]
    ),
    "CT": _m(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, _W],
        ]
    ),
    "CTDG": _m(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, _W.conjugate()],
        ]
    ),
    "CCX": _m(
        [
            [ONE if i == j else ZERO for j in range(8)]
            if i < 6
            else [ZERO] * 6 + ([ZERO, ONE] if i == 6 else [ONE, ZERO])
            for i in range(8)
        ]
    ),
    "FREDKIN": _m(
        [
            [ONE if i == j else ZERO for j in range(8)]
            if i not in (5, 6)
            else [ONE if j == (6 if i == 5 else 5) else ZERO for j in range(8)]
            for i in range(8)
        ]
    ),
}


#: circuit gate kinds whose matrix is stored under another name
_KIND_ALIASES = {"CSWAP": "FREDKIN"}


def gate_matrix(name: str) -> Matrix:
    """Return the exact matrix for a gate name or circuit gate kind.

    Names are case-insensitive, so a circuit gate kind (``"cx"``) names its
    matrix directly; ``cswap`` is the one kind whose matrix has another name
    (``FREDKIN``).  Raises :class:`KeyError` for unsupported gates (``swap``
    included: the simulators apply it as a permutation).
    """
    key = name.upper()
    return GATE_MATRICES[_KIND_ALIASES.get(key, key)]


def matrix_to_complex(matrix: Matrix):
    """Convert an exact matrix to a numpy ``complex128`` array.

    numpy is imported lazily so that the core library stays dependency-free.
    """
    import numpy as np

    return np.array([[entry.to_complex() for entry in row] for row in matrix], dtype=complex)


def kron(left: Matrix, right: Matrix) -> Matrix:
    """Exact Kronecker product of two matrices."""
    rows = []
    for lrow in left:
        for rrow in right:
            rows.append(tuple(lentry * rentry for lentry in lrow for rentry in rrow))
    return tuple(rows)


def matmul(left: Matrix, right: Matrix) -> Matrix:
    """Exact matrix product."""
    if not left or not right:
        return ()
    inner = len(right)
    cols = len(right[0])
    rows = []
    for lrow in left:
        row = []
        for j in range(cols):
            acc = ZERO
            for t in range(inner):
                if lrow[t].is_zero() or right[t][j].is_zero():
                    continue
                acc = acc + lrow[t] * right[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def matvec(matrix: Matrix, vector: Sequence[AlgebraicNumber]) -> Tuple[AlgebraicNumber, ...]:
    """Exact matrix-vector product."""
    result = []
    for row in matrix:
        acc = ZERO
        for entry, component in zip(row, vector):
            if entry.is_zero() or component.is_zero():
                continue
            acc = acc + entry * component
        result.append(acc)
    return tuple(result)


def conjugate_transpose(matrix: Matrix) -> Matrix:
    """Exact conjugate transpose (dagger)."""
    if not matrix:
        return ()
    return tuple(
        tuple(matrix[i][j].conjugate() for i in range(len(matrix)))
        for j in range(len(matrix[0]))
    )


def is_unitary(matrix: Matrix) -> bool:
    """Check ``M * M^dagger == I`` exactly."""
    product = matmul(matrix, conjugate_transpose(matrix))
    return product == identity_matrix(len(matrix))
