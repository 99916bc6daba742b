"""Registry of verification benchmark families.

Every family maps a single integer size parameter ``n`` to a
:class:`~repro.benchgen.common.VerificationBenchmark`.  The registry is the
single source of truth for the CLI (``verify``, ``generate``, ``export-ta``,
``campaign``) and for the campaign runner, so new families become available to
every front-end by adding one entry here.

Aliases (e.g. ``grover`` for ``grover-single``) and per-family default sizes
support the bug-hunting campaigns, which sweep many mutants of one family
instance and therefore want a sensible size when the user does not pass one.

Each family also carries a :class:`FamilyCapability` record — its smallest
size, the analysis modes it supports, the default size sweep used by matrix
campaigns, and a relative cost scale.  The campaign matrix scheduler
(:mod:`repro.campaign.scheduler`) reads these to validate a sweep spec before
any work starts and to order cells cheapest-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .arithmetic import adder_benchmark
from .bv import bv_benchmark
from .common import VerificationBenchmark
from .grover import grover_all_benchmark, grover_single_benchmark
from .mctoffoli import mctoffoli_benchmark
from .qft import qft_roundtrip_benchmark, qft_zero_benchmark
from .stateprep import bell_chain_benchmark, ghz_benchmark

__all__ = [
    "FAMILY_BUILDERS",
    "FAMILY_ALIASES",
    "DEFAULT_SIZES",
    "FAMILY_CAPABILITIES",
    "FamilyCapability",
    "family_names",
    "resolve_family",
    "build_family",
    "family_capability",
    "validate_family_size",
    "validate_family_mode",
    "default_campaign_sizes",
]

#: canonical family name -> builder taking the size parameter ``n``
FAMILY_BUILDERS: Dict[str, Callable[[int], VerificationBenchmark]] = {
    "bv": bv_benchmark,
    "grover-single": grover_single_benchmark,
    "grover-all": grover_all_benchmark,
    "mctoffoli": mctoffoli_benchmark,
    "ghz": ghz_benchmark,
    "bell-chain": bell_chain_benchmark,
    "qft-zero": qft_zero_benchmark,
    "qft-roundtrip": qft_roundtrip_benchmark,
    "adder": adder_benchmark,
}

#: user-facing shorthands accepted everywhere a family name is expected
FAMILY_ALIASES: Dict[str, str] = {
    "grover": "grover-single",
    "qft": "qft-zero",
}

#: default size parameter per canonical family (used when the CLI gets no
#: ``--size``); chosen so that a single verification finishes in well under a
#: second, which keeps 100-mutant campaigns interactive
DEFAULT_SIZES: Dict[str, int] = {
    "bv": 4,
    "grover-single": 2,
    "grover-all": 2,
    "mctoffoli": 3,
    "ghz": 4,
    "bell-chain": 4,
    "qft-zero": 3,
    "qft-roundtrip": 3,
    "adder": 2,
}


@dataclass(frozen=True)
class FamilyCapability:
    """What a family can do: smallest size, analysis modes, and campaign defaults.

    ``modes`` lists the engine modes whose gate support covers the family's
    circuits — pure Toffoli families (``mctoffoli``, ``adder``) work under the
    permutation-only encoding, while anything containing H/CZ/rotation gates
    needs ``hybrid`` or ``composition``.  ``campaign_sizes`` is the default
    size sweep a matrix campaign uses when the spec names the family without
    sizes, and ``cost_scale`` is a relative per-verification weight used only
    to order matrix cells cheapest-first (it never gates correctness).
    """

    min_size: int
    modes: Tuple[str, ...]
    campaign_sizes: Tuple[int, ...]
    cost_scale: float = 1.0


_ALL_MODES = ("hybrid", "composition", "permutation")
_SUPERPOSITION_MODES = ("hybrid", "composition")

#: canonical family name -> capability record (``min_size`` is the smallest
#: size the builder accepts; no family has an upper bound)
FAMILY_CAPABILITIES: Dict[str, FamilyCapability] = {
    "bv": FamilyCapability(1, _SUPERPOSITION_MODES, (3, 4, 5)),
    "grover-single": FamilyCapability(2, _SUPERPOSITION_MODES, (2,), cost_scale=4.0),
    "grover-all": FamilyCapability(2, _SUPERPOSITION_MODES, (2,), cost_scale=4.0),
    "mctoffoli": FamilyCapability(2, _ALL_MODES, (2, 3, 4)),
    "ghz": FamilyCapability(2, _SUPERPOSITION_MODES, (3, 4, 5)),
    "bell-chain": FamilyCapability(1, _SUPERPOSITION_MODES, (2, 3, 4)),
    "qft-zero": FamilyCapability(1, _SUPERPOSITION_MODES, (2, 3), cost_scale=2.0),
    "qft-roundtrip": FamilyCapability(1, _SUPERPOSITION_MODES, (2, 3), cost_scale=4.0),
    "adder": FamilyCapability(1, _ALL_MODES, (1, 2, 3)),
}


def family_capability(name: str) -> FamilyCapability:
    """The :class:`FamilyCapability` of ``name`` (alias-aware)."""
    return FAMILY_CAPABILITIES[resolve_family(name)]


def validate_family_size(name: str, size: int) -> int:
    """Check ``size`` against the family's smallest size; returns it unchanged."""
    min_size = family_capability(name).min_size
    if size < min_size:
        raise ValueError(f"family {name!r} needs size >= {min_size}, got {size}")
    return size


def validate_family_mode(name: str, mode: str) -> str:
    """Check that the family's circuits are analysable under ``mode``."""
    capability = family_capability(name)
    if mode not in capability.modes:
        raise ValueError(
            f"family {name!r} does not support mode {mode!r} "
            f"(its circuits need one of {capability.modes})"
        )
    return mode


def default_campaign_sizes(name: str) -> Tuple[int, ...]:
    """The default size sweep a matrix campaign uses for ``name``."""
    return family_capability(name).campaign_sizes


def family_names(include_aliases: bool = True) -> List[str]:
    """Sorted names accepted by :func:`build_family`."""
    names = set(FAMILY_BUILDERS)
    if include_aliases:
        names.update(FAMILY_ALIASES)
    return sorted(names)


def resolve_family(name: str) -> str:
    """Map an alias to its canonical family name; ``ValueError`` on unknown names."""
    canonical = FAMILY_ALIASES.get(name, name)
    if canonical not in FAMILY_BUILDERS:
        raise ValueError(f"unknown benchmark family {name!r}; known: {family_names()}")
    return canonical


def build_family(name: str, size: int = None) -> VerificationBenchmark:
    """Build the benchmark for ``name`` (alias-aware) at ``size`` (or its default);
    ``ValueError`` for a size below the family's smallest."""
    canonical = resolve_family(name)
    if size is None:
        size = DEFAULT_SIZES[canonical]
    return FAMILY_BUILDERS[canonical](validate_family_size(name, size))
