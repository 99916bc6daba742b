"""Circuit intermediate representation, QASM I/O, random circuits and mutations."""

from .circuit import Circuit
from .gates import Gate, GATE_ARITY
from .metrics import (
    depth,
    engine_cost_profile,
    gate_histogram,
    moments,
    qubit_depths,
    summarise,
    t_count,
    two_qubit_count,
)
from .mutations import (
    MUTATION_OPERATORS,
    MutationRecord,
    duplicate_random_gate,
    flip_random_phase,
    inject_random_gate,
    remove_random_gate,
    reorder_random_qubits,
    swap_random_operands,
    transpose_random_adjacent,
)
from .optimizer import OptimizationReport, PeepholeOptimizer
from .qasm import QasmError, load_qasm_file, parse_qasm, save_qasm_file, to_qasm
from .random_circuits import random_benchmark_suite, random_circuit

__all__ = [
    "Circuit",
    "Gate",
    "GATE_ARITY",
    "QasmError",
    "parse_qasm",
    "to_qasm",
    "load_qasm_file",
    "save_qasm_file",
    "random_circuit",
    "random_benchmark_suite",
    "MUTATION_OPERATORS",
    "MutationRecord",
    "inject_random_gate",
    "remove_random_gate",
    "swap_random_operands",
    "flip_random_phase",
    "reorder_random_qubits",
    "duplicate_random_gate",
    "transpose_random_adjacent",
    "PeepholeOptimizer",
    "OptimizationReport",
    "gate_histogram",
    "t_count",
    "two_qubit_count",
    "moments",
    "depth",
    "qubit_depths",
    "engine_cost_profile",
    "summarise",
]
