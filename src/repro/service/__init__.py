"""repro.service — the verification daemon over the typed :mod:`repro.api`.

``repro.cli serve`` (or :class:`ServiceServer` directly) keeps one warm
:class:`~repro.api.Session` alive and answers problem documents over
HTTP + JSON, so repeated queries share the gate memo and automaton store
instead of paying cold-start per process.  See ``docs/service.md`` for the
endpoint reference and deployment notes, and :mod:`repro.api.client` for the
matching thin client.
"""

from .metrics import ServiceMetrics
from .server import ServiceConfig, ServiceServer, VerificationService

__all__ = [
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceServer",
    "VerificationService",
]
