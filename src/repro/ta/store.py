"""Content-addressed, on-disk automaton store shared across processes.

The per-process gate memo (:mod:`repro.core.engine`) turns repeated gate
applications into fingerprint lookups, but it dies with the process.  This
module is the cross-process tier behind it: a directory of automaton payloads
(:func:`repro.ta.serialization.to_payload`) keyed by content digests, so
campaign workers — and entirely separate campaign runs — reuse each other's
verified circuit prefixes, the way the paper's Table 2 scalability argument
amortises automaton construction across structurally identical inputs.

Design points:

* **Content addressing.**  :func:`fingerprint` digests the *relabelled* form
  of an automaton (:meth:`~repro.ta.automaton.TreeAutomaton.relabelled`), so
  the key is invariant under state renaming along the canonical order: two
  workers that built the same automaton through different allocation
  histories still agree on the digest.  Gate-memo entries are keyed by
  :meth:`AutomatonStore.gate_key` over ``(input digest, gate, mode, reduce
  flag)`` — the same triple the in-process memo uses — with the store schema
  version mixed into the key material, so a codec bump makes every stale
  entry unreachable by construction.
* **Single-writer-safe atomic puts.**  Entries are written to a temp file in
  the target shard directory and published with ``os.replace``; concurrent
  writers of the same key race benignly (last writer wins with identical
  content) and readers never observe a partial file.
* **Versioned layout.**  The store directory carries a ``STORE_VERSION.json``
  stamp; opening a store written by an incompatible schema wipes the stale
  entries instead of mis-reading them.  Individual corrupt / truncated /
  wrong-schema entries are treated as misses and **quarantined**: moved to
  ``<store>/quarantine/`` next to a ``.reason`` file naming what was wrong,
  so they are never re-read, never fatal, and still inspectable afterwards.
* **Retry + degradation.**  Raw disk I/O runs under the shared
  :class:`repro.faults.RetryPolicy` (bounded attempts, exponential backoff);
  after ``fault_threshold`` *consecutive* I/O failures the store disables
  itself for the session (``disabled`` flag, surfaced through
  ``EngineStatistics.store_disabled``) and every ``get``/``put`` becomes a
  cheap no-op — the engine keeps computing without the tier.  The
  ``store.get`` / ``store.put`` fault-injection sites
  (:mod:`repro.faults`) exercise exactly these paths.

The store is *purely* an optimisation: every ``get`` may return ``None`` and
every ``put`` may silently lose a race — callers must always be able to
recompute.  Maintenance (``stats`` / ``gc`` / ``clear``) is exposed through
the ``cache`` CLI subcommand.

The directory is the store's only transport.  Hosts joined to one campaign
share a store by pointing ``--store-dir`` at a directory on the mount that
already holds the campaign's manifests; an ``http(s)://`` location is
refused (see :class:`AutomatonStore`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from ..faults import DEFAULT_STORE_RETRY, RetryPolicy, active_injector, inject
from . import serialization
from .automaton import TreeAutomaton

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "QUARANTINE_DIR",
    "DEFAULT_FAULT_THRESHOLD",
    "default_store_dir",
    "open_store",
    "refuse_url",
    "fingerprint",
    "StoreEntry",
    "AutomatonStore",
    "atomic_write_text",
]

#: version of the store layout *and* entry payloads; bumping it (or
#: :data:`repro.ta.serialization.PAYLOAD_SCHEMA`) cleanly invalidates every
#: previously written cache
STORE_SCHEMA_VERSION = 1

#: the cache-root environment variable shared with the campaign result cache;
#: the store lives in a ``store/`` subdirectory of it
STORE_DIR_ENV = "AUTOQ_REPRO_CACHE_DIR"

_VERSION_FILE = "STORE_VERSION.json"

#: shard-level directory corrupt entries are moved into (never re-read)
QUARANTINE_DIR = "quarantine"

#: consecutive I/O faults before a store disables itself for the session
DEFAULT_FAULT_THRESHOLD = 5

_LOGGER = logging.getLogger(__name__)


def default_store_dir() -> str:
    """``$AUTOQ_REPRO_CACHE_DIR/store`` or ``~/.cache/autoq-repro/store``."""
    override = os.environ.get(STORE_DIR_ENV)
    if override:
        return os.path.join(override, "store")
    return os.path.join(os.path.expanduser("~"), ".cache", "autoq-repro", "store")


def open_store(directory: Optional[str]) -> Optional["AutomatonStore"]:
    """Open the store at ``directory``; ``None`` for ``None`` or an unusable dir.

    The store is purely an optimisation, so every consumer — session
    runtimes, campaign pool workers — wants the same degrade-to-nothing
    behaviour instead of a crash when the directory cannot be created or
    stamped.  This helper is that one policy.  A misconfigured location
    (an ``http(s)://`` URL) still raises ``ValueError``: that is an operator
    error to report, not a store fault to degrade on.
    """
    if directory is None:
        return None
    try:
        return AutomatonStore(directory)
    except OSError:
        return None


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + ``os.replace``.

    The temp file lives in the target directory (created if missing), so the
    replace is atomic on POSIX: concurrent writers of one path race benignly
    (last writer wins) and readers never see a partial file.  Serves store
    entries, the store's version stamp, and the campaign result cache and
    manifests (:func:`repro.campaign.cache.atomic_write_json`).
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def refuse_url(location: Optional[str]) -> None:
    """Raise ``ValueError`` for an ``http(s)://`` store location (``None``,
    no store, passes).

    The store has one transport, a directory; without this check a URL would
    silently become a relative directory named ``http:``.
    """
    if location is not None and location.startswith(("http://", "https://")):
        raise ValueError(
            f"store location {location!r} is a URL; the automaton store is a "
            "directory — to share one between hosts, put --store-dir on the "
            "mount that holds the campaign manifests"
        )


def fingerprint(automaton: TreeAutomaton) -> str:
    """Canonical content digest of an automaton (cached on the automaton).

    The digest is computed over :meth:`~repro.ta.automaton.TreeAutomaton.relabelled`
    — contiguous state ids ``0..m-1`` in ascending original order, the
    symbols in first-seen order, transitions per id, sorted leaves — so it is
    stable across processes and under state renaming along that order,
    unlike the raw ``structure_key()``.  Only the 64-hex digest is cached on
    the instance, so repeated fingerprinting of it is one attribute read and
    the renumbered copy is dropped as soon as the digest exists.
    """
    if automaton._digest is None:  # noqa: SLF001 - TreeAutomaton reserves the slot for us
        canonical = automaton.relabelled()
        symbol_index: Dict[tuple, int] = {}
        symbols: List[Tuple[int, Tuple[int, ...]]] = []
        internal = []
        for state in range(automaton.num_states):
            encoded = []
            for symbol, left, right in canonical.internal.get(state, ()):
                index = symbol_index.get(symbol)
                if index is None:
                    index = symbol_index.setdefault(symbol, len(symbols))
                    symbols.append(symbol)
                encoded.append((index, left, right))
            internal.append(encoded)
        material = json.dumps(
            {
                "num_qubits": canonical.num_qubits,
                "roots": sorted(canonical.roots),
                "symbols": [[qubit, list(tags)] for qubit, tags in symbols],
                "internal": internal,
                "leaves": sorted(
                    [state, *amplitude.as_tuple()]
                    for state, amplitude in canonical.leaves.items()
                ),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        automaton._digest = hashlib.sha256(material.encode("utf-8")).hexdigest()  # noqa: SLF001
    return automaton._digest  # noqa: SLF001


class _EntryMissing(Exception):
    """Internal: the entry file does not exist — a plain, deterministic miss.

    Deliberately *not* an ``OSError``: the read retry policy allowlists
    ``OSError``, and retrying a missing file would turn every cold-cache
    lookup into ``attempts`` reads plus backoff sleeps.
    """


class StoreEntry:
    """A decoded store entry: the automaton plus its JSON metadata."""

    __slots__ = ("automaton", "meta")

    def __init__(self, automaton: TreeAutomaton, meta: Dict):
        self.automaton = automaton
        self.meta = meta


class AutomatonStore:
    """Directory-backed, content-addressed map from digests to automata.

    Entries live at ``<directory>/<digest[:2]>/<digest>.json`` (sharded so a
    big campaign store never piles 10^5 files into one directory).  All I/O
    errors degrade to cache misses; the store never raises out of ``get`` or
    ``put``.  Constructing one over an ``http(s)://`` location raises
    ``ValueError`` before anything is created.
    """

    def __init__(self, directory: str, retry: Optional[RetryPolicy] = None,
                 fault_threshold: int = DEFAULT_FAULT_THRESHOLD):
        refuse_url(directory)
        self.directory = directory
        self.counters = {"hits": 0, "misses": 0, "publishes": 0, "rejected": 0,
                         "quarantined": 0, "retries": 0}
        self.retry = retry if retry is not None else DEFAULT_STORE_RETRY
        self.fault_threshold = fault_threshold
        self.disabled = False
        self._consecutive_faults = 0
        os.makedirs(directory, exist_ok=True)
        self._stamp_version()

    # ------------------------------------------------------------- versioning
    def _version_path(self) -> str:
        return os.path.join(self.directory, _VERSION_FILE)

    def _stamp_version(self) -> None:
        """Validate the on-disk schema stamp; wipe stale entries on mismatch."""
        path = self._version_path()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stamp = json.load(handle)
        except FileNotFoundError:
            stamp = None
        except (OSError, ValueError):
            stamp = {}
        current = {
            "store_schema": STORE_SCHEMA_VERSION,
            "payload_schema": serialization.PAYLOAD_SCHEMA,
        }
        if stamp is not None and stamp != current:
            self.clear()
        if stamp != current:
            atomic_write_text(path, json.dumps(current, sort_keys=True,
                                               separators=(",", ":")))

    # -------------------------------------------------------------- keys
    @staticmethod
    def gate_key(input_digest: str, gate_signature: str, mode: str,
                 reduced: bool) -> str:
        """The store key of one gate application.

        Mirrors the in-process gate memo's ``(fingerprint, gate, mode)`` key,
        with the schema versions mixed into the digest material so entries
        written by an incompatible codec can never collide with live keys.
        """
        material = "\n".join([
            f"schema={STORE_SCHEMA_VERSION}.{serialization.PAYLOAD_SCHEMA}",
            input_digest,
            gate_signature,
            mode,
            "reduced" if reduced else "raw",
        ])
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.json")

    # -------------------------------------------------------------- get / put
    def _count_retry(self, _attempt: int, _error: BaseException) -> None:
        self.counters["retries"] += 1

    def _note_fault(self, error: BaseException) -> None:
        """One I/O failure survived all retries; degrade after a streak."""
        self._consecutive_faults += 1
        if not self.disabled and self._consecutive_faults >= self.fault_threshold:
            self.disabled = True
            _LOGGER.warning(
                "automaton store %s disabled for this session after %d "
                "consecutive I/O faults (last: %s); continuing without the "
                "store tier", self.directory, self._consecutive_faults, error,
            )

    def _read_payload(self, key: str):
        """Raw read of one entry; the ``store.get`` fault site."""
        inject("store.get")
        try:
            handle = open(self._path(key), "r", encoding="utf-8")
        except FileNotFoundError:
            # a plain miss is deterministic — raised as a non-OSError so the
            # retry policy (allowlist: OSError) never loops on it
            raise _EntryMissing(key) from None
        with handle:
            return json.load(handle)

    def get(self, key: str) -> Optional[StoreEntry]:
        """Fetch and decode an entry; ``None`` on any miss or damage.

        Transient read errors are retried under :attr:`retry`; corrupt,
        truncated, or schema-incompatible entry files are quarantined so
        they are recomputed (and republished) instead of failing every run.
        """
        if self.disabled:
            return None
        try:
            payload = self.retry.call(self._read_payload, key,
                                      on_retry=self._count_retry)
        except _EntryMissing:
            # a plain miss: not a fault, but not evidence of health either
            self.counters["misses"] += 1
            return None
        except OSError as error:
            self._note_fault(error)
            self._reject_entry(key, f"unreadable entry: {error}")
            self.counters["misses"] += 1
            return None
        except ValueError as error:
            self._reject_entry(key, f"undecodable JSON: {error}", always_count=True)
            self.counters["misses"] += 1
            return None
        try:
            if not isinstance(payload, dict) or payload.get("store_schema") != STORE_SCHEMA_VERSION:
                raise ValueError(f"store schema mismatch for {key}")
            automaton = serialization.from_payload(payload["automaton"])
            meta = payload.get("meta") or {}
            if not isinstance(meta, dict):
                raise ValueError("entry meta must be a dict")
        except (KeyError, ValueError) as error:
            self.counters["misses"] += 1
            self._reject_entry(key, f"invalid payload: {error}", always_count=True)
            return None
        self._consecutive_faults = 0
        self.counters["hits"] += 1
        try:
            # refresh recency so gc() (least-recently-touched eviction) keeps
            # hot entries; puts are one-shot, so reads are the real heat signal
            os.utime(self._path(key), None)
        except OSError:
            pass
        return StoreEntry(automaton, meta)

    def _reject_entry(self, key: str, reason: str, always_count: bool = False) -> None:
        """Count a damaged entry and quarantine its file when one exists."""
        path = self._path(key)
        if os.path.exists(path):
            self.counters["rejected"] += 1
            self._quarantine(path, reason)
        elif always_count:
            self.counters["rejected"] += 1

    def _write_text(self, key: str, text: str) -> None:
        """Raw publish of one serialized entry; the ``store.put`` fault site."""
        spec = inject("store.put")
        if spec is not None and spec.kind == "corrupt-payload":
            # a torn/corrupt write reaches the disk; a later read quarantines it
            injector = active_injector()
            if injector is not None:
                text = injector.corrupt("store.put", text)
        atomic_write_text(self._path(key), text)

    def put(self, key: str, automaton: TreeAutomaton, meta: Optional[Dict] = None) -> bool:
        """Publish an entry atomically; returns False when the write failed.

        A best-effort operation: a full disk or a permissions problem must
        never break the computation whose result was being shared.  Transient
        write errors are retried under :attr:`retry` before giving up.
        """
        if self.disabled:
            return False
        payload = {
            "store_schema": STORE_SCHEMA_VERSION,
            "automaton": serialization.to_payload(automaton),
            "meta": dict(meta or {}),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            self.retry.call(self._write_text, key, text,
                            on_retry=self._count_retry)
        except OSError as error:
            self._note_fault(error)
            return False
        self._consecutive_faults = 0
        self.counters["publishes"] += 1
        return True

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a damaged entry to ``<store>/quarantine/`` with a reason file.

        Quarantined entries are never walked, never re-read, and survive
        ``gc`` — inspect or delete them by hand (or with ``cache clear``).
        Falls back to plain deletion when even the move fails.
        """
        quarantine_dir = os.path.join(self.directory, QUARANTINE_DIR)
        name = os.path.basename(path)
        try:
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(path, os.path.join(quarantine_dir, name))
            with open(os.path.join(quarantine_dir, name + ".reason"), "w",
                      encoding="utf-8") as handle:
                handle.write(reason + "\n")
        except OSError:
            self._discard(path)
        self.counters["quarantined"] += 1

    # ------------------------------------------------------------ maintenance
    @staticmethod
    def _walk_entries(directory: str, suffix: str = ".json") -> List[str]:
        paths = []
        try:
            shards = sorted(os.listdir(directory))
        except OSError:
            return paths
        for shard in shards:
            if shard == QUARANTINE_DIR:
                continue  # quarantined entries are dead to the store
            shard_path = os.path.join(directory, shard)
            if not os.path.isdir(shard_path):
                continue
            for name in sorted(os.listdir(shard_path)):
                if name.endswith(suffix):
                    paths.append(os.path.join(shard_path, name))
        return paths

    def _entry_paths(self) -> List[str]:
        return self._walk_entries(self.directory)

    def _temp_paths(self) -> List[str]:
        """Leftover ``*.tmp`` files from publishes that died before replace."""
        return self._walk_entries(self.directory, suffix=".tmp")

    @staticmethod
    def disk_stats(directory: str) -> Dict[str, object]:
        """Read-only usage report of a store directory.

        Unlike constructing an :class:`AutomatonStore`, this neither creates
        the directory nor validates/wipes it on a schema-stamp mismatch, so
        it is safe for pure inspection (the ``cache stats`` CLI).  Reports
        the on-disk stamp next to the current schema so a pending
        invalidation is visible before it happens.  A URL location raises
        ``ValueError`` here too.
        """
        refuse_url(directory)
        entries = 0
        total_bytes = 0
        for path in AutomatonStore._walk_entries(directory):
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                continue
            entries += 1
        temp_files = 0
        for path in AutomatonStore._walk_entries(directory, suffix=".tmp"):
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                continue
            temp_files += 1
        quarantined = 0
        try:
            for name in os.listdir(os.path.join(directory, QUARANTINE_DIR)):
                if name.endswith(".json"):
                    quarantined += 1
        except OSError:
            pass
        try:
            with open(os.path.join(directory, _VERSION_FILE), "r", encoding="utf-8") as handle:
                stamp = json.load(handle)
        except (OSError, ValueError):
            stamp = None
        return {
            "directory": directory,
            "store_schema": STORE_SCHEMA_VERSION,
            "payload_schema": serialization.PAYLOAD_SCHEMA,
            "disk_stamp": stamp,
            "entries": entries,
            "temp_files": temp_files,
            "quarantined_entries": quarantined,
            "total_bytes": total_bytes,
        }

    def stats(self) -> Dict[str, object]:
        """On-disk view plus session counters: entry count, bytes, hits, …"""
        return {**self.disk_stats(self.directory), **self.counters}

    def counter_snapshot(self) -> Dict[str, object]:
        """Session counters only — no disk walk, so cheap enough to take on
        every metrics scrape of a long-running service."""
        return {"directory": self.directory, "disabled": self.disabled, **self.counters}

    def _discard_temps(self) -> int:
        """Delete orphaned temp files; returns the bytes reclaimed.

        Racing a concurrent in-flight publish is harmless: its ``os.replace``
        fails with ``OSError``, which ``put`` already treats as a lost
        (best-effort) write.
        """
        reclaimed = 0
        for path in self._temp_paths():
            try:
                reclaimed += os.path.getsize(path)
            except OSError:
                pass
            self._discard(path)
        return reclaimed

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-*touched* entries until under ``max_bytes``.

        Both publishing and a successful disk hit refresh an entry's mtime,
        so frequently reused entries (shared circuit prefixes) survive and
        entries no campaign has asked for in a while go first.  Orphaned
        ``*.tmp`` files from interrupted publishes are removed outright.
        Returns how many entries and bytes were removed and what remains.
        """
        removed_bytes = self._discard_temps()
        entries = []
        total = 0
        for path in self._entry_paths():
            try:
                status = os.stat(path)
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
            total += status.st_size
        entries.sort()
        removed = 0
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            self._discard(path)
            total -= size
            removed += 1
            removed_bytes += size
        return {
            "removed_entries": removed,
            "removed_bytes": removed_bytes,
            "remaining_bytes": total,
        }

    def clear(self) -> int:
        """Delete every entry, orphaned temp file, and quarantined file (the
        version stamp survives); returns the number of entries removed."""
        self._discard_temps()
        removed = 0
        for path in self._entry_paths():
            self._discard(path)
            removed += 1
        quarantine_dir = os.path.join(self.directory, QUARANTINE_DIR)
        try:
            for name in os.listdir(quarantine_dir):
                self._discard(os.path.join(quarantine_dir, name))
        except OSError:
            pass
        return removed

    def __len__(self) -> int:
        return len(self._entry_paths())
