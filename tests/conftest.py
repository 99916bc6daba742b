"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.circuits import Circuit, Gate
from repro.core.engine import default_gate_runtime
from repro.simulator import StateVectorSimulator
from repro.states import QuantumState


@pytest.fixture(autouse=True)
def _pristine_gate_runtime():
    """Reset this process's campaign pool-worker runtime before every test.

    ``default_gate_runtime()`` is what ``execute_job`` verifies on when it is
    called without a runtime, and what ``initialise_worker`` attaches a store
    to; a test that does either in-process would otherwise leave its memo or
    store to the next.  Every other runtime is private to its creator.
    """
    default_gate_runtime().reset()
    yield


@pytest.fixture
def simulator() -> StateVectorSimulator:
    """A fresh exact simulator."""
    return StateVectorSimulator()


@pytest.fixture
def epr_circuit() -> Circuit:
    """The 2-qubit EPR (Bell-state) circuit from the paper's overview."""
    return Circuit(2, name="epr").add("h", 0).add("cx", 0, 1)


@pytest.fixture
def ghz_circuit() -> Circuit:
    """A 3-qubit GHZ-state preparation circuit."""
    return Circuit(3, name="ghz").add("h", 0).add("cx", 0, 1).add("cx", 1, 2)


def assert_states_close(left: QuantumState, right: QuantumState, tolerance: float = 1e-9) -> None:
    """Assert two exact states denote (numerically) the same vector."""
    assert left.num_qubits == right.num_qubits
    keys = {bits for bits, _ in left.items()} | {bits for bits, _ in right.items()}
    for bits in keys:
        delta = abs(left[bits].to_complex() - right[bits].to_complex())
        assert delta < tolerance, f"amplitudes differ at {bits}: {left[bits]} vs {right[bits]}"
