"""The TA kernel: the operations every gate application funnels through.

``binary_operation`` (the Algorithm 9 product construction),
``remove_useless`` and the layered ``reduce`` sweep are implemented once, in
pure Python, in :mod:`repro.ta.kernel.reference`; the last two sweep the
automaton's level index (``TreeAutomaton.levels()``) bottom-up.  Callers
(:meth:`TreeAutomaton.remove_useless <repro.ta.automaton.TreeAutomaton.remove_useless>`,
:meth:`TreeAutomaton.reduce <repro.ta.automaton.TreeAutomaton.reduce>` and
:func:`repro.core.composition.binary_operation`) reach them through the one
:class:`~repro.ta.kernel.reference.ReferenceBackend` instance returned by
:func:`active_backend`, so a profiler can wrap that instance's methods and
count every kernel call.
"""

from __future__ import annotations

from .reference import ReferenceBackend

__all__ = ["active_backend", "active_backend_name"]

_BACKEND = ReferenceBackend()


def active_backend() -> ReferenceBackend:
    """The kernel instance every TA operation dispatches through."""
    return _BACKEND


def active_backend_name() -> str:
    """The kernel's name, as ``EngineStatistics.kernel_backend`` records it."""
    return _BACKEND.name
