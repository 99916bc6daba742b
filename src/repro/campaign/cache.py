"""Persistent result cache for verification campaigns.

Cache entries are JSON files in a flat directory, one per key.  The key is the
SHA-256 digest of ``(circuit fingerprint, precondition fingerprint, mode)`` —
the triple that determines the verification outcome for a fixed family
specification.  The post-condition fingerprint is stored inside each record
and checked on lookup, so changing the expected outputs (while keeping the
circuit and inputs) correctly invalidates the entry instead of replaying a
stale verdict.

Writes are atomic (temp file + ``os.replace``), which makes the cache safe to
share between the campaign parent process and concurrent campaign runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from ..circuits.circuit import Circuit
from ..circuits.qasm import to_qasm
from ..ta.store import atomic_write_text, default_store_dir

__all__ = [
    "fingerprint_circuit",
    "fingerprint_qasm",
    "default_cache_dir",
    "resolve_store_dir",
    "atomic_write_json",
    "ResultCache",
]

#: environment variable overriding the default cache directory
CACHE_DIR_ENV = "AUTOQ_REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The campaign cache directory: ``$AUTOQ_REPRO_CACHE_DIR`` or ``~/.cache/autoq-repro/campaign``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "autoq-repro", "campaign")


def resolve_store_dir(cache_dir: Optional[str], store_dir: Optional[str]) -> Optional[str]:
    """Where a campaign's cross-process automaton store lives (``None`` = off).

    ``store_dir`` wins when given (``""`` disables the store explicitly).
    With ``store_dir=None`` the store follows the result-cache setting:
    disabled result cache (``cache_dir == ""``) disables the store too, an
    explicit ``cache_dir`` puts the store in its ``store/`` subdirectory, and
    the default falls back to :func:`repro.ta.store.default_store_dir`
    (``$AUTOQ_REPRO_CACHE_DIR/store`` or ``~/.cache/autoq-repro/store``).
    """
    if store_dir == "":
        return None
    if store_dir is not None:
        return store_dir
    if cache_dir == "":
        return None
    if cache_dir:
        return os.path.join(cache_dir, "store")
    return default_store_dir()


def atomic_write_json(path: str, payload, indent: Optional[int] = None) -> None:
    """Serialize ``payload`` to ``path`` via a temp file + ``os.replace``.

    The write is atomic on POSIX, so concurrent readers (another campaign
    process, a resumed sweep, ``tail``-style monitoring) never observe a
    partially written file.  Used for both cache entries and campaign
    manifests.
    """
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=indent))


def fingerprint_qasm(qasm: str) -> str:
    """Digest of an already-serialized circuit (avoids re-serializing)."""
    return hashlib.sha256(qasm.encode("utf-8")).hexdigest()


def fingerprint_circuit(circuit: Circuit) -> str:
    """Deterministic digest of a circuit's gate-level content (name-independent:
    :func:`~repro.circuits.qasm.to_qasm` emits only the register and gates)."""
    return fingerprint_qasm(to_qasm(circuit))


class ResultCache:
    """Directory-backed map from campaign cache keys to JSON result records."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    @staticmethod
    def key(circuit_fingerprint: str, precondition_fingerprint: str, mode: str) -> str:
        """The cache key of a job: digest of the determining triple."""
        material = f"{circuit_fingerprint}\n{precondition_fingerprint}\n{mode}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str, postcondition_fingerprint: Optional[str] = None) -> Optional[Dict]:
        """Fetch a record; ``None`` on miss, corruption, or post-condition mismatch."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        if (
            postcondition_fingerprint is not None
            and record.get("postcondition_fingerprint") != postcondition_fingerprint
        ):
            return None
        return record

    def put(self, key: str, record: Dict) -> None:
        """Store a record atomically under ``key``."""
        atomic_write_json(self._path(key), record)

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".json"))

    def clear(self) -> int:
        """Delete every cache entry; return how many were removed."""
        removed = 0
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed
