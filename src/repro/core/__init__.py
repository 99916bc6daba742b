"""The paper's primary contribution: TA-based gate transformers, engine, verification."""

from .composition import apply_composition_gate
from .engine import (
    AnalysisMode,
    CircuitEngine,
    EngineResult,
    EngineStatistics,
    GateRuntime,
    run_circuit,
)
from .equivalence import (
    BugHuntResult,
    IncrementalBugHunter,
    NonEquivalenceResult,
    check_circuit_equivalence,
)
from .diagnosis import (
    DiagnosisReport,
    diagnose,
    localise_divergence,
    localise_mutation,
    replay_witness,
)
from .formulas import Term, UpdateFormula, apply_formula_to_state, apply_gate_to_state, formula_for
from .permutation import PermutationUnsupported, apply_permutation_gate, supports_permutation
from .queries import (
    amplitudes_at_basis,
    constant_output,
    measurement_probability_bounds,
    outcome_is_certain,
    possible_support,
    post_measurement_automaton,
)
from .specs import (
    basis_state_precondition,
    bell_pair_state,
    bell_postcondition,
    classical_product_condition,
    states_condition,
    zero_state_precondition,
)
from .tagging import tag, untag
from .verification import VerificationResult, verify_triple

__all__ = [
    "AnalysisMode",
    "CircuitEngine",
    "EngineResult",
    "EngineStatistics",
    "GateRuntime",
    "run_circuit",
    "apply_composition_gate",
    "apply_permutation_gate",
    "supports_permutation",
    "PermutationUnsupported",
    "tag",
    "untag",
    "Term",
    "UpdateFormula",
    "formula_for",
    "apply_formula_to_state",
    "apply_gate_to_state",
    "verify_triple",
    "VerificationResult",
    "check_circuit_equivalence",
    "NonEquivalenceResult",
    "IncrementalBugHunter",
    "BugHuntResult",
    "zero_state_precondition",
    "basis_state_precondition",
    "classical_product_condition",
    "states_condition",
    "bell_pair_state",
    "bell_postcondition",
    "amplitudes_at_basis",
    "possible_support",
    "constant_output",
    "outcome_is_certain",
    "measurement_probability_bounds",
    "post_measurement_automaton",
    "DiagnosisReport",
    "diagnose",
    "replay_witness",
    "localise_divergence",
    "localise_mutation",
]
