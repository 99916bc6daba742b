"""The one TA kernel and the hook that counts its calls.

``perfbench/tracer.py`` measures the kernel layer by replacing methods on the
instance :func:`repro.ta.kernel.active_backend` returns.  That only works if
``TreeAutomaton.remove_useless``/``reduce`` and
``composition.binary_operation`` look the method up on that instance at call
time, which is what this pins.
"""

from repro.circuits import Gate, random_circuit
from repro.core.composition import apply_composition_gate
from repro.core.engine import AnalysisMode, CircuitEngine, EngineStatistics, GateRuntime
from repro.ta import all_basis_states_ta, basis_state_ta
from repro.ta import kernel

HOOKED = ("binary_operation", "remove_useless", "reduce_layered")


def test_replaced_kernel_methods_see_a_composition_gate_and_a_reduce():
    backend = kernel.active_backend()
    calls = dict.fromkeys(HOOKED, 0)

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in HOOKED:
        setattr(backend, name, counting(name, getattr(backend, name)))
    try:
        applied = apply_composition_gate(all_basis_states_ta(3), Gate("h", (0,)))
        applied.reduce()
    finally:
        for name in HOOKED:
            delattr(backend, name)
    assert all(calls[name] > 0 for name in HOOKED), calls
    assert kernel.active_backend() is backend


def test_engine_statistics_record_the_kernel():
    assert kernel.active_backend_name() == "reference"
    circuit = random_circuit(num_qubits=2, num_gates=3, seed=3)
    result = CircuitEngine(mode=AnalysisMode.HYBRID, runtime=GateRuntime()).run(
        circuit, basis_state_ta(2, 0)
    )
    assert result.statistics.kernel_backend == "reference"
    payload = result.statistics.to_dict()
    assert payload["kernel_backend"] == "reference"
    assert EngineStatistics.from_dict(payload).kernel_backend == "reference"
