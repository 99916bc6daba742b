"""Deterministic, seed-driven fault injection (see ``docs/robustness.md``).

A :class:`FaultPlan` names *sites* — fixed strings the production code calls
:func:`inject` with (``store.get``, ``store.put``, ``worker.cell``,
``service.request``, ``queue.claim``) — and gives each one a
:class:`FaultSpec`: what failure
to produce (``raise``, ``crash-process``, ``corrupt-payload``, ``delay``),
how often, and for how long.  Everything is driven by a per-site
``random.Random`` seeded from ``(plan.seed, site)``, so a plan replays the
same fault schedule in every process that installs it — chaos tests assert
*verdict equality* against the fault-free run, not flakiness.

Activation paths (all equivalent):

* ``install_fault_plan(plan)`` in-process,
* ``SessionConfig(fault_plan=...)`` / ``CampaignConfig(fault_plan=...)``
  which also forward the plan to pool workers via ``initialise_worker``,
* the ``AUTOQ_REPRO_FAULTS`` environment variable — either inline JSON
  (value starts with ``{``) or a path to a JSON plan file — which is how
  the ``serve`` daemon and spawned subprocesses pick a plan up.

The module is import-cheap and dependency-free: with no plan installed,
:func:`inject` is a dictionary miss and an early return.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "active_injector",
    "corrupt_text",
    "inject",
    "install_fault_plan",
    "install_injector",
    "plan_from_env",
]

#: the failure kinds a site can be armed with
FAULT_KINDS = ("raise", "crash-process", "corrupt-payload", "delay")

#: environment variable carrying a plan (inline JSON or a file path)
FAULTS_ENV_VAR = "AUTOQ_REPRO_FAULTS"


class InjectedFault(OSError):
    """The error a ``raise``-kind fault site produces.

    Subclasses :class:`OSError` deliberately: the store treats I/O errors as
    retryable/degradable, and OSError pickles cleanly across process pools,
    so an injected fault exercises exactly the recovery paths a real torn
    disk or dead worker would.
    """

    def __init__(self, site: str, ordinal: int):
        super().__init__(f"injected fault at {site!r} (ordinal {ordinal})")
        self.site = site
        self.ordinal = ordinal

    def __reduce__(self):  # keep site/ordinal across pickling (pool workers)
        return (type(self), (self.site, self.ordinal))


@dataclass(frozen=True)
class FaultSpec:
    """One armed site: what to do, how often, and how hard.

    ``rate`` fires probabilistically per invocation (seeded, so still
    deterministic); ``every`` fires on every Nth invocation (1-based, so
    ``every=10`` hits invocations 10, 20, ...).  ``limit`` caps the total
    number of firings; ``delay_seconds`` is the sleep for ``delay`` kind.
    """

    site: str
    kind: str = "raise"
    rate: float = 0.0
    every: int = 0
    limit: Optional[int] = None
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"fault rate must be within [0, 1], got {self.rate!r}")
        if self.every < 0:
            raise ValueError(f"fault 'every' must be >= 0, got {self.every!r}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"fault 'limit' must be >= 0, got {self.limit!r}")
        if self.delay_seconds < 0:
            raise ValueError(f"fault delay must be >= 0, got {self.delay_seconds!r}")

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "rate": self.rate,
            "every": self.every,
            "limit": self.limit,
            "delay_seconds": self.delay_seconds,
        }

    @classmethod
    def from_mapping(cls, site: str, mapping: Mapping) -> "FaultSpec":
        known = {"site", "kind", "rate", "every", "limit", "delay_seconds"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"fault site {site!r}: unknown keys {sorted(unknown)}")
        return cls(
            site=site,
            kind=str(mapping.get("kind", "raise")),
            rate=float(mapping.get("rate", 0.0)),
            every=int(mapping.get("every", 0)),
            limit=mapping.get("limit"),
            delay_seconds=float(mapping.get("delay_seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of armed fault sites; picklable and JSON round-trippable."""

    seed: int = 0
    sites: Tuple[FaultSpec, ...] = ()

    def spec_for(self, site: str) -> Optional[FaultSpec]:
        for spec in self.sites:
            if spec.site == site:
                return spec
        return None

    def to_dict(self) -> dict:
        return {"seed": self.seed, "sites": {spec.site: {
            key: value for key, value in spec.to_dict().items() if key != "site"
        } for spec in self.sites}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "FaultPlan":
        known = {"seed", "sites"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"fault plan: unknown keys {sorted(unknown)}")
        sites_mapping = mapping.get("sites", {})
        if not isinstance(sites_mapping, Mapping):
            raise ValueError("fault plan: 'sites' must be a mapping of site -> spec")
        sites = tuple(
            FaultSpec.from_mapping(site, spec)
            for site, spec in sorted(sites_mapping.items())
        )
        return cls(seed=int(mapping.get("seed", 0)), sites=sites)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}") from error
        if not isinstance(document, dict):
            raise ValueError("fault plan JSON must be an object")
        return cls.from_mapping(document)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @classmethod
    def parse(cls, value: str) -> "FaultPlan":
        """A plan given as text (``--faults``, ``AUTOQ_REPRO_FAULTS``): inline
        JSON when it starts with ``{``, else the path of a JSON plan file."""
        value = value.strip()
        if value.startswith("{"):
            return cls.from_json(value)
        return cls.from_file(value)


def plan_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The plan named by ``AUTOQ_REPRO_FAULTS``: inline JSON or a file path."""
    value = (environ if environ is not None else os.environ).get(FAULTS_ENV_VAR)
    return FaultPlan.parse(value) if value else None


class FaultInjector:
    """Per-process executor of a :class:`FaultPlan`.

    Keeps one seeded RNG and invocation/injection counter pair per site, so
    the fault schedule is a pure function of ``(plan.seed, site, invocation
    ordinal)`` within a process.  Thread-safe: the daemon's worker threads
    share one injector.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._invocations: Dict[str, int] = {}
        self._injected: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.plan.seed}:{site}")
        return rng

    def should_fire(self, site: str) -> Optional[FaultSpec]:
        """Count one invocation of ``site``; the spec to apply if it fires."""
        spec = self.plan.spec_for(site)
        with self._lock:
            if spec is None:
                return None
            ordinal = self._invocations.get(site, 0) + 1
            self._invocations[site] = ordinal
            injected = self._injected.get(site, 0)
            if spec.limit is not None and injected >= spec.limit:
                return None
            fire = False
            if spec.every and ordinal % spec.every == 0:
                fire = True
            # drawn unconditionally so the schedule is invocation-indexed,
            # independent of whether 'every' already fired this round
            draw = self._rng(site).random()
            if spec.rate and draw < spec.rate:
                fire = True
            if not fire:
                return None
            self._injected[site] = injected + 1
            return spec

    def fire(self, site: str) -> Optional[FaultSpec]:
        """Apply the site's fault if armed: raise / crash / delay.

        Returns the spec for kinds the *caller* must apply
        (``corrupt-payload``) or that already completed (``delay``);
        ``raise`` raises :class:`InjectedFault` and ``crash-process`` does
        not return at all.
        """
        spec = self.should_fire(site)
        if spec is None:
            return None
        if spec.kind == "delay":
            if spec.delay_seconds:
                time.sleep(spec.delay_seconds)
            return spec
        if spec.kind == "raise":
            raise InjectedFault(site, self._invocations.get(site, 0))
        if spec.kind == "crash-process":
            # simulate SIGKILL: no cleanup, no atexit, no exception —
            # exactly what a dead pool worker looks like from the parent
            os._exit(137)
        return spec  # corrupt-payload: the caller mangles its own payload

    def corrupt(self, site: str, text: str) -> str:
        """Deterministically mangle ``text`` using the site's RNG."""
        with self._lock:
            rng = self._rng(site)
            return corrupt_text(text, rng)

    def counters(self) -> Dict[str, int]:
        """Injected-fault counts per site (only sites that fired)."""
        with self._lock:
            return dict(self._injected)

    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())


def corrupt_text(text: str, rng: random.Random) -> str:
    """A deterministic torn/corrupt variant of ``text``.

    Alternates between truncation (a torn write) and in-place garbage (bit
    rot), both of which the store must quarantine rather than trust.
    """
    if not text:
        return "\x00corrupt"
    if rng.random() < 0.5:
        return text[: rng.randrange(0, max(1, len(text) // 2))]
    cut = rng.randrange(0, len(text))
    return text[:cut] + "\x00garbage\x00" + text[cut + 1:]


# ------------------------------------------------------------ process global

_ACTIVE_LOCK = threading.Lock()
_ACTIVE_INJECTOR: Optional[FaultInjector] = None
_ENV_CHECKED = False


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Make ``plan`` the process-wide active plan (``None`` disarms);
    returns the newly installed injector."""
    injector = None if plan is None else FaultInjector(plan)
    install_injector(injector)
    return injector


def install_injector(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Swap the process-wide injector in place; returns the *previous* one.

    The save/restore primitive behind scoped activation: a campaign arms its
    configured plan for the run and reinstalls whatever was active before.
    """
    global _ACTIVE_INJECTOR, _ENV_CHECKED
    with _ACTIVE_LOCK:
        _ENV_CHECKED = True  # explicit installs beat the ambient env var
        previous = _ACTIVE_INJECTOR
        _ACTIVE_INJECTOR = injector
        return previous


def active_injector() -> Optional[FaultInjector]:
    """The process-wide injector, lazily arming ``AUTOQ_REPRO_FAULTS``."""
    global _ACTIVE_INJECTOR, _ENV_CHECKED
    if _ENV_CHECKED:
        # lock-free fast path: this sits on every store read/write, and a
        # plain attribute read is atomic under the GIL; the flag only ever
        # flips False -> True, so the worst case is one redundant lock trip
        return _ACTIVE_INJECTOR
    with _ACTIVE_LOCK:
        if not _ENV_CHECKED:
            plan = plan_from_env()
            if plan is not None:
                _ACTIVE_INJECTOR = FaultInjector(plan)
            _ENV_CHECKED = True
        return _ACTIVE_INJECTOR


def inject(site: str) -> Optional[FaultSpec]:
    """Production hook: apply the active plan's fault for ``site``, if any.

    A no-op (fast dictionary miss) without an installed plan.  Returns the
    spec when the caller has work left to do (``corrupt-payload``) or the
    fault already completed in-line (``delay``); raises or kills the process
    for the other kinds.
    """
    injector = active_injector()
    if injector is None:
        return None
    return injector.fire(site)
