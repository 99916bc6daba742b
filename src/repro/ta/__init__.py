"""Tree automata over quantum-state trees (the paper's Section 3 substrate)."""

from .automaton import (
    InternalTransition,
    Symbol,
    TreeAutomaton,
    make_symbol,
    symbol_qubit,
    symbol_tags,
)
from .boolean import complement, difference, intersection, leaf_alphabet
from .construction import (
    all_basis_states_ta,
    basis_product_ta,
    basis_state_ta,
    from_quantum_state,
    from_quantum_states,
)
from .determinization import count_language, determinize, is_deterministic
from .inclusion import EquivalenceResult, InclusionResult, check_equivalence, check_inclusion
from .minimization import equivalent_via_counting, included_via_counting, reduced_deterministic
from .store import AutomatonStore, default_store_dir
from . import serialization, store, timbuk

__all__ = [
    "TreeAutomaton",
    "Symbol",
    "InternalTransition",
    "make_symbol",
    "symbol_qubit",
    "symbol_tags",
    "basis_state_ta",
    "all_basis_states_ta",
    "basis_product_ta",
    "from_quantum_state",
    "from_quantum_states",
    "check_inclusion",
    "check_equivalence",
    "InclusionResult",
    "EquivalenceResult",
    "determinize",
    "is_deterministic",
    "count_language",
    "reduced_deterministic",
    "equivalent_via_counting",
    "included_via_counting",
    "intersection",
    "complement",
    "difference",
    "leaf_alphabet",
    "AutomatonStore",
    "default_store_dir",
    "serialization",
    "store",
    "timbuk",
]
