"""Mutation plans: deterministic generation of campaign jobs.

A :class:`MutationPlan` turns one :class:`~repro.benchgen.common.VerificationBenchmark`
into a stream of mutated circuit variants using the fault models of
:mod:`repro.circuits.mutations` (the paper's "one additional randomly selected
gate at a random location" plus gate removal and operand swapping).  Mutants
are seeded from ``(base_seed, index)``, so the same plan always produces the
same campaign — which is what makes the on-disk result cache effective across
re-runs.

Each job carries its circuit and condition automata in *serialized* form
(OpenQASM / the TA text format), so it can be pickled cheaply to worker
processes and replayed later from the report alone.

Matrix campaigns (:mod:`repro.campaign.scheduler`) instantiate one plan per
sweep cell from the cell's spec; the resumable manifest records the sweep's
:meth:`~repro.campaign.scheduler.MatrixSpec.to_dict`, so an interrupted sweep
rebuilds the *same* plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..benchgen.common import VerificationBenchmark
from ..circuits.circuit import Circuit
from ..circuits.mutations import MUTATION_OPERATORS, inject_random_gate
from ..circuits.qasm import to_qasm
from ..ta import serialization
from ..ta.store import fingerprint
from .cache import fingerprint_qasm

__all__ = ["MUTATION_KINDS", "CampaignJob", "MutationPlan"]

#: supported mutation operator names (in plan order) — the full taxonomy of
#: :data:`repro.circuits.mutations.MUTATION_OPERATORS`
MUTATION_KINDS: Tuple[str, ...] = tuple(MUTATION_OPERATORS)

_MUTATORS = MUTATION_OPERATORS


@dataclass(frozen=True)
class CampaignJob:
    """One picklable verification job of a campaign."""

    job_id: str
    benchmark: str
    mutation_kind: str  # "reference" for the unmutated circuit
    mutation: Optional[str]
    seed: Optional[int]
    mode: str
    num_qubits: int
    num_gates: int
    circuit_qasm: str
    precondition_text: str
    postcondition_text: str
    circuit_fingerprint: str
    precondition_fingerprint: str
    postcondition_fingerprint: str


class MutationPlan:
    """Deterministic plan mapping a benchmark to ``num_mutants`` mutated copies.

    ``kinds`` cycles over the requested mutation operators; mutant ``i`` uses
    operator ``kinds[i % len(kinds)]`` with seed ``base_seed + i``.  Operators
    that do not apply to a circuit (e.g. operand swapping on a single-qubit
    circuit) deterministically fall back to gate insertion, which applies to
    every circuit.
    """

    def __init__(
        self,
        num_mutants: int,
        kinds: Sequence[str] = ("insert",),
        base_seed: int = 0,
        include_reference: bool = True,
    ):
        if num_mutants < 0:
            raise ValueError("num_mutants must be non-negative")
        for kind in kinds:
            if kind not in MUTATION_KINDS:
                raise ValueError(f"unknown mutation kind {kind!r}; expected one of {MUTATION_KINDS}")
        if not kinds:
            raise ValueError("at least one mutation kind is required")
        self.num_mutants = int(num_mutants)
        self.kinds = tuple(kinds)
        self.base_seed = int(base_seed)
        self.include_reference = bool(include_reference)

    def mutants(self, circuit: Circuit) -> Iterator[Tuple[int, str, int, Circuit, Optional[str]]]:
        """Yield ``(index, kind, seed, mutant, mutation_description)`` tuples.

        Each mutant gets its own explicit ``random.Random(base_seed + index)``
        generator, so the stream of mutants is byte-identical across platforms
        and Python versions — a plan replayed from a manifest or corpus entry
        reproduces the exact same circuits (and thus the same cache keys).
        """
        for index in range(self.num_mutants):
            kind = self.kinds[index % len(self.kinds)]
            seed = self.base_seed + index
            try:
                mutant, record = _MUTATORS[kind](circuit, rng=random.Random(seed))
            except ValueError:
                kind = "insert"
                mutant, record = inject_random_gate(circuit, rng=random.Random(seed))
            yield index, kind, seed, mutant, str(record)

    def jobs(self, benchmark: VerificationBenchmark, mode: str) -> List[CampaignJob]:
        """Materialise the full job list for one benchmark instance."""
        precondition_text = serialization.dumps(benchmark.precondition)
        postcondition_text = serialization.dumps(benchmark.postcondition)
        precondition_fingerprint = fingerprint(benchmark.precondition)
        postcondition_fingerprint = fingerprint(benchmark.postcondition)
        width = max(4, len(str(max(self.num_mutants - 1, 0))))

        def job_for(job_id: str, kind: str, circuit: Circuit, mutation: Optional[str], seed: Optional[int]) -> CampaignJob:
            qasm = to_qasm(circuit)
            return CampaignJob(
                job_id=job_id,
                benchmark=benchmark.name,
                mutation_kind=kind,
                mutation=mutation,
                seed=seed,
                mode=mode,
                num_qubits=circuit.num_qubits,
                num_gates=circuit.num_gates,
                circuit_qasm=qasm,
                precondition_text=precondition_text,
                postcondition_text=postcondition_text,
                circuit_fingerprint=fingerprint_qasm(qasm),
                precondition_fingerprint=precondition_fingerprint,
                postcondition_fingerprint=postcondition_fingerprint,
            )

        jobs: List[CampaignJob] = []
        if self.include_reference:
            jobs.append(job_for(f"{benchmark.name}/reference", "reference", benchmark.circuit, None, None))
        for index, kind, seed, mutant, mutation in self.mutants(benchmark.circuit):
            job_id = f"{benchmark.name}/{kind}-{index:0{width}d}"
            jobs.append(job_for(job_id, kind, mutant, mutation, seed))
        return jobs
