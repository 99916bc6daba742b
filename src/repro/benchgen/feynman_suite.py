"""Feynman-benchmark-style arithmetic circuits (the FeynmanBench family of Table 3).

The Feynman tool suite ships Clifford+T arithmetic benchmarks: GF(2^m)
multipliers, carry-lookahead (QCLA) adders, multiplexed checksums, Hamming
coders and modular adders.  This module synthesises circuits of the same
families from scratch (see the Substitutions section of docs/architecture.md):
the functions computed follow the textbook constructions, built only from the
Table 1 gate set, so the bug-injection experiment exercises the same kind of
structure the paper's rows do.
"""

from __future__ import annotations

from typing import Dict, List

from ..circuits.circuit import Circuit
from .common import append_multi_controlled_x
from .revlib import parity_network, ripple_carry_adder

__all__ = [
    "gf2_multiplier",
    "csum_mux",
    "carry_lookahead_adder",
    "mod_adder",
    "ham_coder",
    "feynman_suite",
]


def _gf2_reduction_rows(degree: int) -> List[List[int]]:
    """Decomposition of x^(degree+k) modulo the pentanomial/trinomial x^degree + x + 1.

    Returns, for every product-degree ``degree <= d < 2*degree - 1``, the list
    of output positions (< degree) that the coefficient of ``x^d`` folds into.
    """
    rows = []
    for extra in range(degree - 1):
        # x^(degree + extra) = x^(extra+1) + x^extra  (mod x^degree + x + 1), applied
        # repeatedly until all positions are below `degree`
        pending = [degree + extra]
        result: List[int] = []
        while pending:
            power = pending.pop()
            if power < degree:
                result.append(power)
            else:
                pending.append(power - degree + 1)
                pending.append(power - degree)
        # XOR semantics: keep positions appearing an odd number of times
        folded = sorted({p for p in result if result.count(p) % 2 == 1})
        rows.append(folded)
    return rows


def gf2_multiplier(degree: int) -> Circuit:
    """GF(2^degree) multiplier ``c ^= a * b`` (the ``gf2^m_mult`` family).

    Three ``degree``-bit registers; each partial product ``a_i * b_j`` is one
    Toffoli into the output register, with the modular reduction by
    ``x^degree + x + 1`` folded into the target positions.
    """
    if degree < 2:
        raise ValueError("GF(2^m) multiplication needs degree >= 2")
    a = list(range(degree))
    b = [degree + i for i in range(degree)]
    c = [2 * degree + i for i in range(degree)]
    circuit = Circuit(3 * degree, name=f"gf2^{degree}_mult")
    reduction = _gf2_reduction_rows(degree)
    for i in range(degree):
        for j in range(degree):
            product_degree = i + j
            if product_degree < degree:
                targets = [product_degree]
            else:
                targets = reduction[product_degree - degree]
            for target in targets:
                circuit.add("ccx", a[i], b[j], c[target])
    return circuit


def csum_mux(width: int) -> Circuit:
    """Multiplexed checksum (the ``csum_mux`` family).

    Two data words and a select word; the output checks accumulate the parity
    of the selected word: ``out_i ^= sel_i ? a_i : b_i`` realised with Toffoli
    and CNOT gates (``3*width`` working qubits + ``width`` outputs).
    """
    if width < 2:
        raise ValueError("csum_mux needs width >= 2")
    select = list(range(width))
    a = [width + i for i in range(width)]
    b = [2 * width + i for i in range(width)]
    out = [3 * width + i for i in range(width)]
    circuit = Circuit(4 * width, name=f"csum_mux_{width}")
    for i in range(width):
        # out_i ^= b_i ^ sel_i*(a_i ^ b_i)
        circuit.add("cx", b[i], out[i])
        circuit.add("cx", a[i], b[i])
        circuit.add("ccx", select[i], b[i], out[i])
        circuit.add("cx", a[i], b[i])
    # fold the checks into a single running parity (checksum)
    for i in range(1, width):
        circuit.add("cx", out[i - 1], out[i])
    return circuit


def carry_lookahead_adder(num_bits: int) -> Circuit:
    """Simplified out-of-place carry-lookahead adder (the ``qcla_adder`` family).

    Computes generate/propagate signals into an ancilla register, derives the
    carries, and writes the sum bits — the flat, Toffoli-heavy structure
    characteristic of the QCLA benchmarks (not the depth-optimal version).
    """
    if num_bits < 2:
        raise ValueError("carry-lookahead adder needs at least two bits")
    a = list(range(num_bits))
    b = [num_bits + i for i in range(num_bits)]
    carry = [2 * num_bits + i for i in range(num_bits)]
    total = 3 * num_bits
    circuit = Circuit(total, name=f"qcla_adder_{num_bits}")
    # generate: carry[i+1] ^= a_i & b_i ; propagate folded in by the next stage
    for i in range(num_bits - 1):
        circuit.add("ccx", a[i], b[i], carry[i + 1])
    # propagate: carry[i+1] ^= (a_i ^ b_i) & carry[i]
    for i in range(num_bits - 1):
        circuit.add("cx", a[i], b[i])
        circuit.add("ccx", b[i], carry[i], carry[i + 1])
        circuit.add("cx", a[i], b[i])
    # sum bits: b_i ^= a_i ^ carry_i
    for i in range(num_bits):
        circuit.add("cx", a[i], b[i])
        circuit.add("cx", carry[i], b[i])
    return circuit


def mod_adder(num_bits: int) -> Circuit:
    """Modular adder built from two ripple-carry passes (the ``mod_adder`` family)."""
    forward = ripple_carry_adder(num_bits)
    backward = ripple_carry_adder(num_bits)
    circuit = Circuit(forward.num_qubits, name=f"mod_adder_{2 ** num_bits}")
    circuit.extend(forward.gates)
    # second pass conditioned on the carry-out, approximating the modular wrap
    carry_out = forward.num_qubits - 1
    for gate in backward.gates:
        if gate.kind == "cx" and carry_out not in gate.qubits:
            circuit.add("ccx", carry_out, *gate.qubits)
        else:
            circuit.append(gate)
    return circuit


def ham_coder(num_bits: int) -> Circuit:
    """Hamming-code style encoder/checker (the ``ham15`` family)."""
    return parity_network(num_bits, taps=[1, 2, 4])


def feynman_suite(scale: int = 1) -> Dict[str, Circuit]:
    """A named suite mirroring the FeynmanBench rows of Table 3 (scaled down)."""
    base = 3 * scale
    return {
        f"gf2^{base}_mult": gf2_multiplier(base),
        f"gf2^{base * 2}_mult": gf2_multiplier(base * 2),
        f"csum_mux_{base}": csum_mux(base),
        f"qcla_adder_{base + 1}": carry_lookahead_adder(base + 1),
        f"mod_adder_{2 ** (base + 1)}": mod_adder(base + 1),
        f"ham{base * 2 + 1}": ham_coder(base * 2 + 1),
    }
