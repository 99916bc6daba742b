"""Micro-benchmarks for the TA kernel hot path: ``binary_operation``,
``restrict`` and ``reduce`` at several qubit sizes.

The workloads are plain ``(setup, run)`` pairs in :data:`KERNEL_WORKLOADS` so
that the perf-regression harness (``scripts/bench_compare.py``) can time them
without pytest; the ``test_*`` wrappers below expose the same workloads to
``pytest benchmarks/bench_kernel.py --benchmark-only``.

Every setup starts from cleared per-process kernel caches (intern tables and,
when the kernel provides one, the reduce cache), so a measurement never
credits work done by a previous workload.  The ``reduce/warm`` rows re-reduce
an automaton that was already reduced once after the cache reset — the
"consecutive gate applications see the same automaton" case the signature
cache is built for.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.core.composition import binary_operation, restrict
from repro.core.tagging import tag
from repro.states import QuantumState
from repro.ta import from_quantum_states
from repro.ta import automaton as automaton_module

#: qubit sizes exercised by every micro-benchmark family
KERNEL_SIZES = (5, 7, 9)


def clear_kernel_caches() -> None:
    """Reset every per-process kernel cache (works on pre- and post-PR3 kernels)."""
    automaton_module.clear_intern_tables()
    clear_reduce = getattr(automaton_module, "clear_reduce_cache", None)
    if clear_reduce is not None:
        clear_reduce()


def stacked_basis_ta(num_qubits: int, count: int, seed: int = 7):
    """A deliberately redundant TA: ``count`` distinct basis states, unreduced.

    ``from_quantum_states(..., reduce=False)`` keeps one disjoint branch per
    state, so the automaton has ~``count * num_qubits`` states with massive
    merge potential — exactly the shape ``reduce`` sees mid-pipeline.
    """
    rng = random.Random(seed)
    count = min(count, 2**num_qubits)
    seen = set()
    states = []
    while len(states) < count:
        bits = tuple(rng.randint(0, 1) for _ in range(num_qubits))
        if bits in seen:
            continue
        seen.add(bits)
        states.append(QuantumState.basis_state(num_qubits, bits))
    return from_quantum_states(states, reduce=False)


def _setup_restrict(num_qubits: int):
    automaton = tag(stacked_basis_ta(num_qubits, 24))
    clear_kernel_caches()
    return automaton


def _setup_binary_operation(num_qubits: int):
    tagged = tag(stacked_basis_ta(num_qubits, 24))
    operands = (restrict(tagged, 0, 1), restrict(tagged, 0, 0))
    clear_kernel_caches()
    return operands


def _setup_reduce(num_qubits: int):
    automaton = stacked_basis_ta(num_qubits, 24)
    clear_kernel_caches()
    return automaton


def _setup_reduce_warm(num_qubits: int):
    automaton = stacked_basis_ta(num_qubits, 24)
    clear_kernel_caches()
    automaton.reduce()
    return automaton


def _build_workloads() -> Dict[str, Tuple[Callable[[], Any], Callable[[Any], Any]]]:
    workloads: Dict[str, Tuple[Callable[[], Any], Callable[[Any], Any]]] = {}
    for n in KERNEL_SIZES:
        workloads[f"kernel/restrict/n{n}"] = (
            lambda n=n: _setup_restrict(n),
            lambda a, n=n: restrict(a, n // 2, 1),
        )
        workloads[f"kernel/binary_operation/n{n}"] = (
            lambda n=n: _setup_binary_operation(n),
            lambda operands: binary_operation(operands[0], operands[1]),
        )
        workloads[f"kernel/reduce/n{n}"] = (
            lambda n=n: _setup_reduce(n),
            lambda a: a.reduce(),
        )
        workloads[f"kernel/reduce-warm/n{n}"] = (
            lambda n=n: _setup_reduce_warm(n),
            lambda a: a.reduce(),
        )
    return workloads


#: workload name -> (setup, run); run(setup()) is the measured operation
KERNEL_WORKLOADS = _build_workloads()


@pytest.mark.parametrize("name", sorted(KERNEL_WORKLOADS))
def test_kernel_microbench(benchmark, name):
    setup, run = KERNEL_WORKLOADS[name]
    benchmark.extra_info["workload"] = name
    benchmark.pedantic(run, setup=lambda: ((setup(),), {}), rounds=3, iterations=1)
