"""Generate one workload's inputs and their expected verdicts for one seed.

    python perfbench/inputs.py <workload> <seed> <output.json>

Inputs are made once per (workload, seed) and loaded by every run that uses
the seed, so input generation never lands in a timed region or in
``setup_s``.  Expected verdicts come from an oracle that never touches the
tree-automata engine: the exact decision-diagram simulator
(``repro.simulator``) and the path-sum checker (``repro.baselines``).

Circuits are stored as OpenQASM text and automata in the package's lossless
text dialect (``repro.ta.serialization``).
"""

from __future__ import annotations

import itertools
import random
import sys
import zlib

from common import campaign_spec, write_json_atomic

from repro.baselines import PathSumChecker
from repro.baselines.pathsum import PathSumVerdict
from repro.benchgen import build_family, revlib_suite
from repro.benchgen.bv import bv_benchmark
from repro.benchgen.grover import (
    grover_all_benchmark,
    grover_single_circuit,
    grover_single_layout,
)
from repro.benchgen.mctoffoli import mctoffoli_benchmark
from repro.circuits import inject_random_gate, to_qasm
from repro.core.specs import states_condition, zero_state_precondition
from repro.simulator.decision_diagram import simulate_decision_diagram
from repro.states import QuantumState
from repro.ta import serialization

# ------------------------------------------------------------------ oracle


def triple_holds(circuit, precondition, postcondition) -> bool:
    """``{P} C {Q}`` by exact simulation: the outputs of every state of P
    are exactly the states of Q (the engine's equivalence check)."""
    outputs = {simulate_decision_diagram(circuit, state)
               for state in precondition.enumerate_states()}
    return outputs == set(postcondition.enumerate_states())


def differing_input(first, second, candidates):
    """The first basis input on which the two circuits' outputs differ."""
    for bits in candidates:
        state = QuantumState.basis_state(first.num_qubits, tuple(bits))
        if simulate_decision_diagram(first, state) != simulate_decision_diagram(second, state):
            return tuple(bits)
    return None


def stable_seed(name: str) -> int:
    """Per-circuit injection seed of ``benchmarks/bench_table3_revlib.py``."""
    return zlib.crc32(name.encode("utf-8")) % 10_000


def triple(name, circuit, precondition, postcondition, holds=None):
    if holds is None:
        holds = triple_holds(circuit, precondition, postcondition)
    return {
        "name": name,
        "qasm": to_qasm(circuit),
        "pre": serialization.dumps(precondition),
        "post": serialization.dumps(postcondition),
        "holds": holds,
    }


# --------------------------------------------------------------- workloads


def grover_single(num_work_qubits: int, secret):
    """Grover-Single triple for ``secret``, specified the way the family is
    (a_h on the secret, a_l elsewhere, clean ancillas, kickback |1>) with
    a_h/a_l read off an exact decision-diagram run.  Returns the triple and
    the oracle verdict, checked against the full simulated output."""
    circuit = grover_single_circuit(num_work_qubits, secret)
    layout = grover_single_layout(num_work_qubits)
    tail = (0,) * len(layout["ancillas"]) + (1,)
    output = simulate_decision_diagram(circuit, QuantumState.zero_state(circuit.num_qubits))
    a_high = output[tuple(secret) + tail]
    a_low = output[tuple(1 - bit for bit in secret) + tail]
    expected = QuantumState(circuit.num_qubits)
    for bits in itertools.product((0, 1), repeat=num_work_qubits):
        expected[bits + tail] = a_high if bits == tuple(secret) else a_low
    postcondition = states_condition([expected])
    holds = {output} == set(postcondition.enumerate_states())
    return triple(f"grover-single-n{num_work_qubits}", circuit,
                  zero_state_precondition(circuit.num_qubits), postcondition, holds)


#: Grover-Single sizes in the batch.  n8 (7-12 s alone on the reference
#: machine) is left out: with it the batch fitted once per run, and its
#: time alone spread 0.39 (IQR over median) over ten runs.
GROVER_SINGLE_SIZES = (6, 7)


def table2_verify(seed: int):
    """Table-2 triples; the seed picks the BV hidden string.

    The Grover secrets are the family's own (all ones), as in Table 2: the
    Grover-Single n7 verification cost 2.7-4.6 s across five seeded secrets
    on the reference machine, a spread that would bury a change of the
    program under the draw.
    """
    rng = random.Random(seed)
    problems = [grover_single(size, (1,) * size) for size in GROVER_SINGLE_SIZES]
    grover_all = grover_all_benchmark(4)
    problems.append(triple("grover-all-n4", grover_all.circuit,
                           grover_all.precondition, grover_all.postcondition))
    hidden = tuple(rng.randint(0, 1) for _ in range(12))
    bv = bv_benchmark(12, hidden)
    problems.append(triple("bv-n12", bv.circuit, bv.precondition, bv.postcondition))
    mct = mctoffoli_benchmark(8)
    problems.append(triple("mctoffoli-n8", mct.circuit, mct.precondition, mct.postcondition))
    return {"problems": problems}


def table3_hunt(seed: int):
    """RevLib-style hunts with the injected gates of
    ``benchmarks/bench_table3_revlib.py``; the seed orders the circuits.

    The injection stays the per-circuit one because the hunt cost of a
    circuit swings from milliseconds to seconds with the drawn gate (rd8:
    7.2 s over 11 iterations for one draw, 0.02 s for the next), which would
    bury any change of the program under the draw.
    """
    suite = revlib_suite()
    names = sorted(suite)
    random.Random(seed).shuffle(names)
    hunts = []
    for name in names:
        circuit = suite[name].decomposed()
        buggy, mutation = inject_random_gate(circuit, seed=stable_seed(name))
        rng = random.Random(stable_seed(name) + 1)
        basis = tuple(rng.randint(0, 1) for _ in range(circuit.num_qubits))
        probe = random.Random(seed)
        candidates = [basis] + [
            tuple(probe.randint(0, 1) for _ in range(circuit.num_qubits)) for _ in range(64)
        ]
        witness = differing_input(circuit, buggy, candidates)
        if witness is not None:
            expected = "bug"
        elif PathSumChecker().check_equivalence(circuit, buggy).verdict == PathSumVerdict.EQUAL:
            expected = "equivalent"
        else:
            expected = "unknown"
        hunts.append({
            "name": name,
            "reference": to_qasm(circuit),
            "candidate": to_qasm(buggy),
            "mutation": str(mutation),
            "basis": list(basis),
            "max_iterations": 3 * (circuit.num_qubits + 1),
            "expected": expected,
        })
    return {"hunts": hunts}


#: the problems the service mix revisits: verify triples of several families
#: and engine modes, and bug hunts on small circuits (a hunt frees one more
#: input qubit per iteration, so its automata grow with size and iteration
#: count; NOTES.md records what an unbounded one did to the daemon)
SERVE_VERIFY = tuple(
    [("bv", size, mode) for size in (6, 8, 10, 12, 14) for mode in ("hybrid", "composition")]
    + [("ghz", size, mode) for size in (6, 8, 10) for mode in ("hybrid", "composition")]
    + [("qft-zero", size, mode) for size in (3, 4, 5) for mode in ("hybrid", "composition")]
    + [("mctoffoli", size, "hybrid") for size in (4, 6, 8)]
    + [("grover-single", 3, "hybrid"), ("grover-single", 4, "hybrid"),
       ("grover-all", 2, "hybrid"), ("grover-all", 3, "hybrid")]
)
SERVE_HUNT = tuple(
    (family, size, inject)
    for family, size in (("bv", 4), ("bv", 5), ("bv", 6), ("ghz", 4), ("ghz", 5),
                         ("mctoffoli", 3), ("mctoffoli", 4), ("qft-zero", 3), ("qft-zero", 4))
    for inject in range(4)
)
def serve_mix(seed: int):
    """The service problems and their verdicts; ``workloads.py`` asks each
    several times per batch in an order drawn from the seed and the batch
    index."""
    from repro.api import BugHuntProblem, CircuitSource, VerifyProblem

    verdicts = {}
    documents = {}
    for family, size, mode in SERVE_VERIFY:
        key = f"verify/{family}/{size}/{mode}"
        bench = build_family(family, size)
        verdicts[key] = triple_holds(bench.circuit, bench.precondition, bench.postcondition)
        documents[key] = VerifyProblem(
            circuit=CircuitSource.from_family(family, size), mode=mode).to_dict()
    for family, size, inject in SERVE_HUNT:
        key = f"bughunt/{family}/{size}/{inject}"
        reference = build_family(family, size).circuit
        candidate, _ = inject_random_gate(reference, seed=inject)
        every_input = itertools.product((0, 1), repeat=reference.num_qubits)
        verdicts[key] = differing_input(reference, candidate, every_input) is not None
        documents[key] = BugHuntProblem(
            reference=CircuitSource.from_family(family, size), inject_seed=inject,
            seed=0, max_iterations=reference.num_qubits + 1,
        ).to_dict()
    return {"documents": documents, "verdicts": verdicts}


def campaign_sweep(seed: int):
    """The sweep spec and the expected verdict of every job it plans (the
    same sweep for every seed, see :func:`common.campaign_spec`)."""
    from repro.campaign import CampaignConfig, MatrixSpec
    from repro.campaign.runner import Campaign
    from repro.circuits import parse_qasm

    mapping = campaign_spec()
    spec = MatrixSpec.from_mapping(mapping)
    verdicts = {}
    for cell in spec.cells():
        config = CampaignConfig(
            family=cell.family, size=cell.size, mutants=cell.mutants,
            mutation_kinds=spec.mutation_kinds, mode=cell.mode, seed=spec.seed,
            include_reference=spec.include_reference, cache_dir="", store_dir="",
        )
        for job in Campaign(config).build_jobs():
            holds = triple_holds(parse_qasm(job.circuit_qasm),
                                 serialization.loads(job.precondition_text),
                                 serialization.loads(job.postcondition_text))
            verdicts[f"{cell.cell_id}/{job.job_id}"] = "holds" if holds else "violated"
    return {"spec": mapping, "verdicts": verdicts}


GENERATORS = {
    "table2-verify": table2_verify,
    "table3-hunt": table3_hunt,
    "serve-mix": serve_mix,
    "campaign-sweep": campaign_sweep,
}


def main(argv) -> int:
    workload, seed, output = argv[1], int(argv[2]), argv[3]
    payload = GENERATORS[workload](seed)
    payload.update({"workload": workload, "seed": seed})
    write_json_atomic(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
