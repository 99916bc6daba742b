"""Grover's search benchmark circuits (the Grover-Sing and Grover-All families).

``grover_single_circuit`` implements textbook Grover search for one hidden
string over ``m`` work qubits, ``m - 1`` clean ancillas (for the
multi-controlled gates) and one phase-kickback qubit — ``2m`` qubits in total,
as in the paper.  ``grover_all_circuit`` is the Appendix D variant where the
oracle's answer is taken from ``m`` additional input qubits, so a single TA
run analyses the circuit for *all* ``2^m`` oracles simultaneously (``3m``
qubits).

Post-conditions follow Appendix E: after the chosen number of iterations the
work register holds amplitude ``a_h`` on the hidden string and a common
amplitude ``a_l`` on every other basis string, the ancillas are back to zero
and the kickback qubit (after the extra final Hadamard) is ``|1>``.  The exact
values of ``a_h``/``a_l`` come from the closed form of Grover's iteration as
these circuits build it: the oracle negates ``a_h`` and the diffusion maps
every amplitude ``a`` to ``a - 2 * mean``, so the pair follows a two-term
recurrence in O(iterations) exact ring operations, whatever the circuit size.
The paper's authors wrote these amplitudes by hand; the tests check the
closed form against the exact state-vector simulator (see the Substitutions
section of ``docs/architecture.md``).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Sequence, Tuple, Union

from ..algebraic import AlgebraicNumber
from ..circuits.circuit import Circuit
from ..core.specs import classical_product_condition, states_condition, zero_state_precondition
from ..states import QuantumState, parse_bitstring
from .common import VerificationBenchmark, append_multi_controlled_x, append_multi_controlled_z

__all__ = [
    "default_iterations",
    "grover_single_layout",
    "grover_single_circuit",
    "grover_single_benchmark",
    "grover_all_layout",
    "grover_all_circuit",
    "grover_all_benchmark",
]


def default_iterations(num_work_qubits: int) -> int:
    """The usual ``floor(pi/4 * sqrt(2^m))`` Grover iteration count (at least 1)."""
    return max(1, int(math.floor(math.pi / 4.0 * math.sqrt(2 ** num_work_qubits))))


# --------------------------------------------------------------------- single oracle
def grover_single_layout(num_work_qubits: int) -> Dict[str, object]:
    """Qubit layout of Grover-Sing: work block, ancilla block, kickback qubit."""
    if num_work_qubits < 2:
        raise ValueError("Grover needs at least two work qubits")
    work = list(range(num_work_qubits))
    ancillas = list(range(num_work_qubits, 2 * num_work_qubits - 1))
    kickback = 2 * num_work_qubits - 1
    return {"work": work, "ancillas": ancillas, "kickback": kickback, "num_qubits": 2 * num_work_qubits}


def _normalise_secret(secret: Union[str, Sequence[int]], length: int) -> Tuple[int, ...]:
    bits = parse_bitstring(secret) if isinstance(secret, str) else tuple(int(b) for b in secret)
    if len(bits) != length:
        raise ValueError(f"secret has length {len(bits)}, expected {length}")
    return bits


def _append_diffusion(circuit: Circuit, work: Sequence[int], ancillas: Sequence[int]) -> None:
    """Inversion about the mean on the work register (H X ... MCZ ... X H)."""
    for qubit in work:
        circuit.add("h", qubit)
    for qubit in work:
        circuit.add("x", qubit)
    append_multi_controlled_z(circuit, list(work[:-1]), work[-1], ancillas)
    for qubit in work:
        circuit.add("x", qubit)
    for qubit in work:
        circuit.add("h", qubit)


def grover_single_circuit(
    num_work_qubits: int,
    secret: Union[str, Sequence[int]],
    iterations: Optional[int] = None,
) -> Circuit:
    """Grover's search for one hidden string (phase kickback oracle)."""
    layout = grover_single_layout(num_work_qubits)
    secret_bits = _normalise_secret(secret, num_work_qubits)
    if iterations is None:
        iterations = default_iterations(num_work_qubits)
    work, ancillas, kickback = layout["work"], layout["ancillas"], layout["kickback"]
    circuit = Circuit(layout["num_qubits"], name=f"grover_single_{num_work_qubits}")
    circuit.add("x", kickback)
    circuit.add("h", kickback)
    for qubit in work:
        circuit.add("h", qubit)
    for _ in range(iterations):
        # oracle: flip the kickback qubit exactly when the work register equals the secret
        for qubit, bit in zip(work, secret_bits):
            if bit == 0:
                circuit.add("x", qubit)
        append_multi_controlled_x(circuit, work, kickback, ancillas)
        for qubit, bit in zip(work, secret_bits):
            if bit == 0:
                circuit.add("x", qubit)
        _append_diffusion(circuit, work, ancillas)
    circuit.add("h", kickback)
    return circuit


def grover_single_benchmark(
    num_work_qubits: int,
    secret: Optional[Union[str, Sequence[int]]] = None,
    iterations: Optional[int] = None,
) -> VerificationBenchmark:
    """Verification benchmark for Grover-Sing: ``{|0...0>} C {a_h |s..> + a_l |i..>}``."""
    if secret is None:
        secret = tuple(1 for _ in range(num_work_qubits))
    secret_bits = _normalise_secret(secret, num_work_qubits)
    if iterations is None:
        iterations = default_iterations(num_work_qubits)
    circuit = grover_single_circuit(num_work_qubits, secret_bits, iterations)
    layout = grover_single_layout(num_work_qubits)
    precondition = zero_state_precondition(circuit.num_qubits)
    a_high, a_low = _reference_amplitudes(num_work_qubits, iterations)
    postcondition = states_condition(
        [_structured_output(num_work_qubits, layout, secret_bits, a_high, a_low)]
    )
    return VerificationBenchmark(
        name=f"Grover-Sing(n={num_work_qubits})",
        circuit=circuit,
        precondition=precondition,
        postcondition=postcondition,
        description=(
            f"Grover search, secret {''.join(map(str, secret_bits))}, {iterations} iteration(s)"
        ),
    )


def _tail_bits(layout: Dict[str, object]) -> Tuple[int, ...]:
    """Expected classical values of the ancilla block plus kickback qubit: 0...0 1."""
    return tuple(0 for _ in layout["ancillas"]) + (1,)


def _structured_output(
    num_work_qubits: int,
    layout: Dict[str, object],
    secret_bits: Tuple[int, ...],
    a_high: AlgebraicNumber,
    a_low: AlgebraicNumber,
    prefix: Tuple[int, ...] = (),
) -> QuantumState:
    """The expected Grover output state: a_high on the secret, a_low elsewhere."""
    tail = _tail_bits(layout)
    num_qubits = len(prefix) + num_work_qubits + len(tail)
    state = QuantumState(num_qubits)
    for assignment in itertools.product((0, 1), repeat=num_work_qubits):
        amplitude = a_high if assignment == secret_bits else a_low
        state[prefix + assignment + tail] = amplitude
    return state


def _reference_amplitudes(
    num_work_qubits: int, iterations: int
) -> Tuple[AlgebraicNumber, AlgebraicNumber]:
    """``a_h`` (secret) and ``a_l`` (every other string) after ``iterations``.

    The work register starts uniform, ``(1/sqrt2)^m`` on every string.  The
    oracle negates the secret's amplitude.  The diffusion as built here,
    ``H X MCZ X H``, is ``I - 2|u><u|`` (the textbook operator times -1), so it
    maps every amplitude ``a`` to ``a - 2 * mean``, where the mean over the
    ``2^m`` strings is ``(a_h + (2^m - 1) a_l) / 2^m``.  The secret does not
    enter: the two amplitudes are the same for every secret.
    """
    a_high = a_low = AlgebraicNumber(1, 0, 0, 0, num_work_qubits)
    inverse_size = AlgebraicNumber(1, 0, 0, 0, 2 * num_work_qubits)
    others = 2 ** num_work_qubits - 1
    for _ in range(iterations):
        a_high = -a_high
        twice_mean = (a_high + a_low * others) * inverse_size * 2
        a_high, a_low = a_high - twice_mean, a_low - twice_mean
    return a_high, a_low


# ------------------------------------------------------------------------ all oracles
def grover_all_layout(num_work_qubits: int) -> Dict[str, object]:
    """Qubit layout of Grover-All: oracle block, work block, ancillas, kickback."""
    if num_work_qubits < 2:
        raise ValueError("Grover needs at least two work qubits")
    oracle = list(range(num_work_qubits))
    work = list(range(num_work_qubits, 2 * num_work_qubits))
    ancillas = list(range(2 * num_work_qubits, 3 * num_work_qubits - 1))
    kickback = 3 * num_work_qubits - 1
    return {
        "oracle": oracle,
        "work": work,
        "ancillas": ancillas,
        "kickback": kickback,
        "num_qubits": 3 * num_work_qubits,
    }


def grover_all_circuit(num_work_qubits: int, iterations: Optional[int] = None) -> Circuit:
    """Grover's search where the oracle answer is read from the input qubits (Appendix D)."""
    layout = grover_all_layout(num_work_qubits)
    if iterations is None:
        iterations = default_iterations(num_work_qubits)
    oracle, work, ancillas, kickback = (
        layout["oracle"],
        layout["work"],
        layout["ancillas"],
        layout["kickback"],
    )
    circuit = Circuit(layout["num_qubits"], name=f"grover_all_{num_work_qubits}")
    circuit.add("x", kickback)
    circuit.add("h", kickback)
    for qubit in work:
        circuit.add("h", qubit)
    for _ in range(iterations):
        # oracle: compare the work register against the oracle-input register
        for source, destination in zip(oracle, work):
            circuit.add("cx", source, destination)
        for qubit in work:
            circuit.add("x", qubit)
        append_multi_controlled_x(circuit, work, kickback, ancillas)
        for qubit in work:
            circuit.add("x", qubit)
        for source, destination in zip(oracle, work):
            circuit.add("cx", source, destination)
        _append_diffusion(circuit, work, ancillas)
    circuit.add("h", kickback)
    return circuit


def grover_all_benchmark(
    num_work_qubits: int, iterations: Optional[int] = None
) -> VerificationBenchmark:
    """Verification benchmark for Grover-All over every possible oracle string."""
    if iterations is None:
        iterations = default_iterations(num_work_qubits)
    circuit = grover_all_circuit(num_work_qubits, iterations)
    layout = grover_all_layout(num_work_qubits)
    allowed = []
    for qubit in range(layout["num_qubits"]):
        allowed.append({0, 1} if qubit in layout["oracle"] else {0})
    precondition = classical_product_condition(allowed)
    # the amplitudes do not depend on the oracle string
    a_high, a_low = _reference_amplitudes(num_work_qubits, iterations)
    outputs = []
    for secret in itertools.product((0, 1), repeat=num_work_qubits):
        outputs.append(
            _structured_output(num_work_qubits, layout, secret, a_high, a_low, prefix=secret)
        )
    postcondition = states_condition(outputs)
    return VerificationBenchmark(
        name=f"Grover-All(n={num_work_qubits})",
        circuit=circuit,
        precondition=precondition,
        postcondition=postcondition,
        description=f"Grover search over all {2 ** num_work_qubits} oracles, {iterations} iteration(s)",
    )
