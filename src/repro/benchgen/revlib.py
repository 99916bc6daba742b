"""RevLib-style reversible-circuit generators (the RevLib family of Table 3).

The paper's RevLib benchmarks are distributed as fixed circuit files (adders,
cycle functions, hidden-weighted-bit and unstructured reversible functions).
Offline we cannot ship those files, so this module synthesises circuits of the
same families — ripple-carry adders, controlled increments ("cycle"), parity
networks ("rd"), and seeded unstructured reversible functions ("hwb"/"urf") —
with configurable sizes, using only CX / CCX / X gates exactly like the
originals.  The bug-finding experiment (inject one random gate, check
non-equivalence) is independent of the concrete function computed, so the
experiment's shape is preserved; see the Substitutions section of
docs/architecture.md.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..circuits.circuit import Circuit
from .common import append_multi_controlled_x

__all__ = [
    "ripple_carry_adder",
    "controlled_increment",
    "parity_network",
    "unstructured_reversible",
    "hidden_weighted_bit_like",
    "revlib_suite",
]


def ripple_carry_adder(num_bits: int) -> Circuit:
    """In-place ripple-carry adder ``b := a + b`` (the ``addNN`` RevLib family).

    Uses the Cuccaro/CDKM construction over ``2*num_bits + 2`` qubits
    (``a`` register, ``b`` register, one input carry, one output carry) with
    only CX and CCX gates.
    """
    if num_bits < 1:
        raise ValueError("adder needs at least one bit")
    # layout: carry_in, a_0..a_{n-1}, b_0..b_{n-1}, carry_out
    carry_in = 0
    a = [1 + i for i in range(num_bits)]
    b = [1 + num_bits + i for i in range(num_bits)]
    carry_out = 1 + 2 * num_bits
    circuit = Circuit(2 + 2 * num_bits, name=f"add{num_bits}")

    def maj(x: int, y: int, z: int) -> None:
        circuit.add("cx", z, y)
        circuit.add("cx", z, x)
        circuit.add("ccx", x, y, z)

    def uma(x: int, y: int, z: int) -> None:
        circuit.add("ccx", x, y, z)
        circuit.add("cx", z, x)
        circuit.add("cx", x, y)

    maj(carry_in, b[0], a[0])
    for i in range(1, num_bits):
        maj(a[i - 1], b[i], a[i])
    circuit.add("cx", a[num_bits - 1], carry_out)
    for i in range(num_bits - 1, 0, -1):
        uma(a[i - 1], b[i], a[i])
    uma(carry_in, b[0], a[0])
    return circuit


def controlled_increment(num_bits: int, num_controls: int = 1) -> Circuit:
    """Controlled increment modulo ``2^num_bits`` (the ``cycle`` RevLib family).

    When all control qubits are 1, the target register is incremented by one
    (a cyclic permutation of its basis states).  Multi-controlled X gates are
    decomposed over a clean ancilla block.
    """
    if num_bits < 1:
        raise ValueError("increment needs at least one target bit")
    controls = list(range(num_controls))
    register = [num_controls + i for i in range(num_bits)]
    ancillas = [num_controls + num_bits + i for i in range(max(0, num_bits + num_controls - 2))]
    circuit = Circuit(num_controls + num_bits + len(ancillas), name=f"cycle{num_bits}_{num_controls}")
    # increment: flip bit i controlled on all lower bits being 1 (and the controls);
    # the flips go from the most significant bit down so every control reads the
    # pre-increment value of the lower bits
    for index in range(num_bits):
        gate_controls = controls + register[index + 1 :]
        append_multi_controlled_x(circuit, gate_controls, register[index], ancillas)
    return circuit


def parity_network(num_bits: int, taps: Optional[List[int]] = None) -> Circuit:
    """Parity / syndrome network (the ``rd``/``ham`` RevLib families).

    XORs selected data qubits into check qubits, then mixes the checks with a
    layer of Toffoli gates — the typical structure of the rd53/rd84 and
    Hamming-code benchmarks.
    """
    if num_bits < 3:
        raise ValueError("parity network needs at least three data bits")
    num_checks = max(2, num_bits // 3)
    data = list(range(num_bits))
    checks = [num_bits + i for i in range(num_checks)]
    circuit = Circuit(num_bits + num_checks, name=f"rd{num_bits}")
    if taps is None:
        taps = list(range(1, num_checks + 1))
    for check_index, check in enumerate(checks):
        stride = taps[check_index % len(taps)]
        for position in range(0, num_bits, stride):
            circuit.add("cx", data[position], check)
    for check_index in range(num_checks - 1):
        circuit.add("ccx", checks[check_index], checks[check_index + 1], data[check_index])
    return circuit


def unstructured_reversible(num_bits: int, num_gates: int, seed: int = 0, name: str = "") -> Circuit:
    """Seeded unstructured reversible function (the ``urf`` RevLib family).

    A deterministic pseudo-random cascade of X / CX / CCX gates: classical
    reversible logic with no exploitable structure, the property that makes
    the urf benchmarks hard for equivalence checkers.
    """
    rng = random.Random(seed)
    circuit = Circuit(num_bits, name=name or f"urf{num_bits}_{seed}")
    kinds = ["x", "cx", "ccx"] if num_bits >= 3 else (["x", "cx"] if num_bits == 2 else ["x"])
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        arity = {"x": 1, "cx": 2, "ccx": 3}[kind]
        circuit.add(kind, *rng.sample(range(num_bits), arity))
    return circuit


def hidden_weighted_bit_like(num_bits: int, seed: int = 7) -> Circuit:
    """Hidden-weighted-bit style circuit (the ``hwb`` RevLib family).

    Approximates the hwb structure: a cascade of controlled cyclic shifts
    (implemented with controlled swaps, i.e. Fredkin gates) whose controls
    walk over the register, followed by a small unstructured mixing layer.
    """
    if num_bits < 3:
        raise ValueError("hwb needs at least three bits")
    circuit = Circuit(num_bits, name=f"hwb{num_bits}")
    for control in range(num_bits):
        for position in range(num_bits - 1):
            if position == control:
                continue
            other = (position + 1) % num_bits
            if other == control:
                continue
            circuit.add("cswap", control, position, other)
    mixing = unstructured_reversible(num_bits, num_bits, seed=seed)
    circuit.extend(mixing.gates)
    return circuit


def revlib_suite(scale: int = 1) -> Dict[str, Circuit]:
    """A named suite of RevLib-style circuits, loosely mirroring Table 3's rows.

    ``scale`` multiplies the register widths so the suite can be grown toward
    the paper's sizes (the defaults are laptop-sized).
    """
    base = 4 * scale
    suite = {
        f"add{base * 2}": ripple_carry_adder(base * 2),
        f"add{base * 4}": ripple_carry_adder(base * 4),
        f"cycle{base}_2": controlled_increment(base, num_controls=2),
        f"rd{base * 2}": parity_network(base * 2),
        f"ham{base * 2 - 1}": parity_network(base * 2 - 1, taps=[1, 2, 3]),
        f"hwb{base + 2}": hidden_weighted_bit_like(base + 2),
        f"urf{base + 1}_1": unstructured_reversible(base + 1, 24 * scale, seed=1),
        f"urf{base + 2}_2": unstructured_reversible(base + 2, 40 * scale, seed=2),
        f"mod5adder_{base * 3}": ripple_carry_adder(max(2, base // 2)),
        f"avg{base * 6}": unstructured_reversible(base * 6, 12 * scale, seed=3, name=f"avg{base * 6}"),
    }
    return suite
