"""Typed request objects — one :class:`Problem` per workload shape.

Every workload the framework answers — ``{P} C {Q}`` triples, circuit
equivalence, incremental bug hunting, exact simulation, bug-hunting campaigns
— is described by a frozen dataclass sharing a common envelope:

* a **circuit source** (:class:`CircuitSource`): an in-memory
  :class:`~repro.circuits.circuit.Circuit`, a QASM file path, or a benchmark
  family + size from the :mod:`repro.benchgen` registry;
* optional **condition specs** (:class:`ConditionSpec`) naming the pre-/
  post-condition automata symbolically (family defaults, zero state, one
  basis state, all basis states, or an inline serialized TA);
* the engine ``mode`` and workload-specific knobs.

Problems are pure data: they validate their shape on construction and
serialize losslessly through the versioned JSON schema
(:mod:`repro.api.schema`), so a request can be built on one machine and run
by a :class:`repro.api.Session` on another.  Runtime configuration (worker
count, cache/store directories, fault plan) deliberately does NOT live here —
that is the session's job.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Optional, Tuple

from ..benchgen import build_family
from ..benchgen.common import VerificationBenchmark
from ..benchgen.families import resolve_family, validate_family_size
from ..circuits import Circuit, load_qasm_file, parse_qasm, to_qasm
from ..circuits.mutations import MUTATION_OPERATORS
from ..core.engine import AnalysisMode
from ..core.specs import zero_state_precondition
from ..states import parse_bitstring
from ..ta import TreeAutomaton, all_basis_states_ta, basis_state_ta, serialization
from .schema import API_VERSION, PROBLEM_KIND_PREFIX, SchemaError, validate_document

__all__ = [
    "CircuitSource",
    "ConditionSpec",
    "Problem",
    "VerifyProblem",
    "EquivalenceProblem",
    "BugHuntProblem",
    "SimulateProblem",
    "CampaignProblem",
    "FuzzProblem",
    "InvalidProblem",
]

import json


class InvalidProblem(ValueError):
    """A well-formed problem whose inputs are found bad only when resolved:
    QASM that does not parse, a file that cannot be read, or widths that do
    not match.  Front ends answer it as an invalid request, not a crash."""


def _check_family(family: str, size: Optional[int]) -> None:
    """Check a family name (and size, when given) against the registry
    without building the family."""
    resolve_family(family)
    if size is not None:
        validate_family_size(family, size)


@dataclass(frozen=True)
class CircuitSource:
    """Where a problem's circuit comes from: QASM text, a file, or a family.

    Exactly one of ``qasm`` (inline OpenQASM 2.0 text), ``path`` (QASM file)
    or ``family`` (+ optional ``size``) must be given.  Inline text is the
    wire form — :meth:`from_circuit` serializes an in-memory circuit into it,
    so a source always survives ``to_dict``/``from_dict`` byte-identically.
    """

    qasm: Optional[str] = None
    path: Optional[str] = None
    family: Optional[str] = None
    size: Optional[int] = None

    def __post_init__(self) -> None:
        given = [name for name in ("qasm", "path", "family") if getattr(self, name)]
        if len(given) != 1:
            raise ValueError(
                f"a circuit source needs exactly one of qasm/path/family, got {given or 'none'}"
            )
        if self.size is not None and self.family is None:
            raise ValueError("size is only meaningful with a family source")
        if self.family is not None:
            _check_family(self.family, self.size)

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CircuitSource":
        """Wrap an in-memory circuit (serialized to QASM for the wire)."""
        return cls(qasm=to_qasm(circuit))

    @classmethod
    def from_path(cls, path: str) -> "CircuitSource":
        return cls(path=path)

    @classmethod
    def from_family(cls, family: str, size: Optional[int] = None) -> "CircuitSource":
        return cls(family=family, size=size)

    def resolve(self) -> Tuple[Circuit, Optional[VerificationBenchmark]]:
        """Materialise the circuit (and the benchmark, for family sources);
        :class:`InvalidProblem` when the QASM does not parse or the file
        cannot be read."""
        try:
            if self.qasm is not None:
                return parse_qasm(self.qasm), None
            if self.path is not None:
                return load_qasm_file(self.path), None
        except (OSError, ValueError) as error:
            raise InvalidProblem(f"cannot load the circuit: {error}") from error
        benchmark = build_family(self.family, self.size)
        return benchmark.circuit, benchmark

    def to_dict(self) -> Dict:
        return {
            "qasm": self.qasm,
            "path": self.path,
            "family": self.family,
            "size": self.size,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CircuitSource":
        return cls(
            qasm=data.get("qasm"),
            path=data.get("path"),
            family=data.get("family"),
            size=data.get("size"),
        )


@dataclass(frozen=True)
class ConditionSpec:
    """Symbolic description of a pre-/post-condition (or input-set) automaton.

    Kinds:

    * ``"zero"`` — the all-zeros basis state (no ``value``);
    * ``"basis"`` — one basis state, ``value`` is the bit string (``"0110"``);
    * ``"all-basis"`` — every basis state (no ``value``);
    * ``"ta"`` — an inline automaton, ``value`` is its
      :func:`repro.ta.serialization.dumps` text (the lossless wire form).

    ``None`` in a problem field means "use the family's own condition", which
    is only valid for family circuit sources.
    """

    kind: str
    value: Optional[str] = None

    KINDS: ClassVar[Tuple[str, ...]] = ("zero", "basis", "all-basis", "ta")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown condition kind {self.kind!r}; expected one of {self.KINDS}")
        if self.kind in ("basis", "ta") and not self.value:
            raise ValueError(f"condition kind {self.kind!r} needs a value")
        if self.kind in ("zero", "all-basis") and self.value is not None:
            raise ValueError(f"condition kind {self.kind!r} takes no value")
        if self.kind == "basis":
            parse_bitstring(self.value)  # fail fast on malformed bits
        if self.kind == "ta":
            # fail fast on a malformed or non-layered automaton
            serialization.loads(self.value).validate()

    @classmethod
    def from_automaton(cls, automaton: TreeAutomaton) -> "ConditionSpec":
        """Wrap an in-memory TA (serialized to the text dialect for the wire)."""
        return cls(kind="ta", value=serialization.dumps(automaton))

    def resolve(self, num_qubits: int) -> TreeAutomaton:
        """Materialise the automaton for a circuit of ``num_qubits`` qubits;
        :class:`InvalidProblem` when a ``basis`` or ``ta`` value has another
        width."""
        if self.kind == "zero":
            return zero_state_precondition(num_qubits)
        if self.kind == "all-basis":
            return all_basis_states_ta(num_qubits)
        if self.kind == "basis":
            automaton = basis_state_ta(len(self.value), self.value)
        else:
            automaton = serialization.loads(self.value)
        if automaton.num_qubits != num_qubits:
            raise InvalidProblem(
                f"{self.kind} condition has {automaton.num_qubits} qubits "
                f"but the circuit has {num_qubits}"
            )
        return automaton

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, data: Dict) -> "ConditionSpec":
        return cls(kind=data["kind"], value=data.get("value"))


def _encode(value):
    """Field value -> JSON-ready form (nested sources/specs become dicts)."""
    if isinstance(value, (CircuitSource, ConditionSpec)):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass(frozen=True)
class Problem:
    """Base class: the serialization machinery shared by every request shape.

    Subclasses are frozen dataclasses whose fields are JSON scalars,
    :class:`CircuitSource`, :class:`ConditionSpec`, or tuples thereof;
    ``to_dict``/``from_dict`` derive the wire form from the dataclass fields,
    so a problem and its JSON document can never drift apart.
    """

    KIND: ClassVar[str] = ""
    #: field name -> decoder applied by :meth:`from_dict` (set per subclass)
    FIELD_DECODERS: ClassVar[Dict[str, object]] = {}

    @property
    def kind(self) -> str:
        return self.KIND

    def to_dict(self) -> Dict:
        payload = {name.name: _encode(getattr(self, name.name)) for name in fields(self)}
        return {"api_version": API_VERSION, "kind": PROBLEM_KIND_PREFIX + self.KIND, **payload}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, document: Dict) -> "Problem":
        validate_document(document)
        kind = document["kind"]
        if not kind.startswith(PROBLEM_KIND_PREFIX):
            raise SchemaError(f"expected a problem document, got kind {kind!r}")
        target = _PROBLEM_CLASSES.get(kind[len(PROBLEM_KIND_PREFIX):])
        if target is None:
            raise SchemaError(f"unknown problem kind {kind!r}")
        if cls is not Problem and cls is not target:
            raise SchemaError(f"{kind!r} document does not describe a {cls.__name__}")
        kwargs = {}
        for spec in fields(target):
            if spec.name not in document:
                continue
            value = document[spec.name]
            decoder = target.FIELD_DECODERS.get(spec.name)
            if decoder is not None and value is not None:
                value = decoder(value)
            kwargs[spec.name] = value
        return target(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Problem":
        return cls.from_dict(json.loads(text))


def _tuple_of_str(value) -> Tuple[str, ...]:
    return tuple(str(item) for item in value)


@dataclass(frozen=True)
class VerifyProblem(Problem):
    """Check the triple ``{precondition} circuit {postcondition}``.

    ``precondition``/``postcondition`` default to the family's own conditions
    (only valid for family sources); non-family sources must spell both out.
    """

    circuit: CircuitSource = None
    precondition: Optional[ConditionSpec] = None
    postcondition: Optional[ConditionSpec] = None
    mode: str = AnalysisMode.HYBRID
    inclusion_only: bool = False

    KIND: ClassVar[str] = "verify"
    FIELD_DECODERS: ClassVar[Dict[str, object]] = {
        "circuit": CircuitSource.from_dict,
        "precondition": ConditionSpec.from_dict,
        "postcondition": ConditionSpec.from_dict,
    }

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, CircuitSource):
            raise ValueError("VerifyProblem needs a CircuitSource circuit")
        if self.mode not in AnalysisMode.ALL:
            raise ValueError(f"unknown analysis mode {self.mode!r}")
        if self.circuit.family is None and (
            self.precondition is None or self.postcondition is None
        ):
            raise ValueError(
                "non-family circuit sources need explicit precondition and postcondition specs"
            )


@dataclass(frozen=True)
class EquivalenceProblem(Problem):
    """Compare the output-state sets of two circuits over an input set.

    ``inputs`` defaults to all basis states (the paper's Section 7.2 setting).
    """

    first: CircuitSource = None
    second: CircuitSource = None
    inputs: Optional[ConditionSpec] = None
    mode: str = AnalysisMode.HYBRID

    KIND: ClassVar[str] = "equivalence"
    FIELD_DECODERS: ClassVar[Dict[str, object]] = {
        "first": CircuitSource.from_dict,
        "second": CircuitSource.from_dict,
        "inputs": ConditionSpec.from_dict,
    }

    def __post_init__(self) -> None:
        if not isinstance(self.first, CircuitSource) or not isinstance(self.second, CircuitSource):
            raise ValueError("EquivalenceProblem needs two CircuitSource operands")
        if self.mode not in AnalysisMode.ALL:
            raise ValueError(f"unknown analysis mode {self.mode!r}")


@dataclass(frozen=True)
class BugHuntProblem(Problem):
    """Incremental bug hunt between a reference and a candidate circuit.

    Give either an explicit ``candidate`` or an ``inject_seed`` (mutate the
    reference with one random extra gate, the Section 7.2 experiment).
    """

    reference: CircuitSource = None
    candidate: Optional[CircuitSource] = None
    inject_seed: Optional[int] = None
    mode: str = AnalysisMode.HYBRID
    seed: int = 0
    max_iterations: Optional[int] = None

    KIND: ClassVar[str] = "bughunt"
    FIELD_DECODERS: ClassVar[Dict[str, object]] = {
        "reference": CircuitSource.from_dict,
        "candidate": CircuitSource.from_dict,
    }

    def __post_init__(self) -> None:
        if not isinstance(self.reference, CircuitSource):
            raise ValueError("BugHuntProblem needs a CircuitSource reference")
        if (self.candidate is None) == (self.inject_seed is None):
            raise ValueError("give exactly one of candidate or inject_seed")
        if self.mode not in AnalysisMode.ALL:
            raise ValueError(f"unknown analysis mode {self.mode!r}")


@dataclass(frozen=True)
class SimulateProblem(Problem):
    """Exact simulation of one basis input (all zeros when ``input_bits`` is None)."""

    circuit: CircuitSource = None
    input_bits: Optional[str] = None

    KIND: ClassVar[str] = "simulate"
    FIELD_DECODERS: ClassVar[Dict[str, object]] = {"circuit": CircuitSource.from_dict}

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, CircuitSource):
            raise ValueError("SimulateProblem needs a CircuitSource circuit")
        if self.input_bits is not None:
            parse_bitstring(self.input_bits)


@dataclass(frozen=True)
class CampaignProblem(Problem):
    """A bug-hunting campaign: verify many mutants of one family instance.

    Worker count, cache/store directories and report streaming cadence are
    session configuration, not part of the problem.
    """

    family: str = ""
    size: Optional[int] = None
    mutants: int = 100
    mutation_kinds: Tuple[str, ...] = ("insert",)
    mode: str = AnalysisMode.HYBRID
    seed: int = 0
    include_reference: bool = True
    report_path: str = "campaign_report.jsonl"
    #: fuzz corpus directory replayed as a regression gate before the sweep
    corpus_dir: Optional[str] = None

    KIND: ClassVar[str] = "campaign"
    FIELD_DECODERS: ClassVar[Dict[str, object]] = {"mutation_kinds": _tuple_of_str}

    def __post_init__(self) -> None:
        if not self.family:
            raise ValueError("CampaignProblem needs a family name")
        _check_family(self.family, self.size)
        if self.mutants < 0:
            raise ValueError("mutants must be non-negative")
        if self.mode not in AnalysisMode.ALL:
            raise ValueError(f"unknown analysis mode {self.mode!r}")
        object.__setattr__(self, "mutation_kinds", tuple(self.mutation_kinds))


@dataclass(frozen=True)
class FuzzProblem(Problem):
    """A differential fuzzing run (or corpus replay) of the engine itself.

    With ``replay=False``, fuzz for ``budget_seconds`` (or ``max_cases``)
    over the enabled ``checks``, storing minimized divergences in
    ``corpus_dir`` when one is given.  With ``replay=True``, re-verify every
    entry of ``corpus_dir`` instead (the regression gate).
    """

    budget_seconds: float = 10.0
    seed: int = 0
    max_qubits: int = 4
    max_gates: int = 10
    checks: Tuple[str, ...] = ("boolean", "cross-mode")
    modes: Tuple[str, ...] = AnalysisMode.ALL
    mutation_kinds: Tuple[str, ...] = tuple(MUTATION_OPERATORS)
    corpus_dir: Optional[str] = None
    replay: bool = False
    max_cases: Optional[int] = None
    include_path_sum: bool = False

    KIND: ClassVar[str] = "fuzz"
    #: oracle families ``checks`` may name (mirrors ``repro.fuzz.driver.FUZZ_CHECKS``)
    CHECKS: ClassVar[Tuple[str, ...]] = ("boolean", "cross-mode")
    FIELD_DECODERS: ClassVar[Dict[str, object]] = {
        "checks": _tuple_of_str,
        "modes": _tuple_of_str,
        "mutation_kinds": _tuple_of_str,
    }

    def __post_init__(self) -> None:
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "mutation_kinds", tuple(self.mutation_kinds))
        if self.budget_seconds < 0:
            raise ValueError("budget_seconds must be non-negative")
        if not self.checks:
            raise ValueError("at least one check is required")
        for check in self.checks:
            if check not in self.CHECKS:
                raise ValueError(f"unknown check {check!r}; expected one of {self.CHECKS}")
        for mode in self.modes:
            if mode not in AnalysisMode.ALL:
                raise ValueError(f"unknown analysis mode {mode!r}")
        for kind in self.mutation_kinds:
            if kind not in MUTATION_OPERATORS:
                raise ValueError(
                    f"unknown mutation kind {kind!r}; expected one of {tuple(MUTATION_OPERATORS)}"
                )
        if self.replay and not self.corpus_dir:
            raise ValueError("replay needs a corpus_dir")
        if self.max_cases is not None and self.max_cases < 0:
            raise ValueError("max_cases must be non-negative")


_PROBLEM_CLASSES: Dict[str, type] = {
    cls.KIND: cls
    for cls in (
        VerifyProblem,
        EquivalenceProblem,
        BugHuntProblem,
        SimulateProblem,
        CampaignProblem,
        FuzzProblem,
    )
}
