"""Lease-based job queue over a campaign manifest directory.

The campaign manifest (:mod:`repro.campaign.manifest`) is a single JSON file
rewritten whole on every transition — perfect for one coordinator, useless
for N concurrent writers (last writer wins, so parallel ``mark_running``
calls silently eat each other's leases).  This queue gives a campaign a
*multi-writer* control plane next to the manifest without touching it:

    <manifest_dir>/<campaign_id>.queue/
        claims/<cell_id>.t<token>.json     one file per claim generation
        results/<cell_id>.json             one file per completed cell

Every coordination primitive reduces to a POSIX filesystem guarantee, so the
queue needs no server and works on any shared directory (local disk for
same-host workers, NFS-style mounts across hosts):

**Atomic claim with fencing tokens.**  A claim on cell C at generation *t*
is the file ``claims/C.t<t>.json``, created by hard-linking a fully written
temp file into place — ``link`` fails if the name exists, so the filesystem
picks exactly one winner per ``(cell, token)``, and no reader ever sees a
half-written claim.  The live claim is the one with the *highest* token; to
claim a cell a worker reads the current top claim, verifies it is stale
(:func:`repro.campaign.manifest.lease_is_stale` — dead pid on this host, or
heartbeat older than the TTL), and races to create generation ``t+1``.
Losing the race is just ``FileExistsError``.  The token is a per-cell
fencing token: it only ever grows, every completion records the token it ran
under, and a worker that discovers a higher generation than its own knows it
has been deposed.

**Heartbeat renewal.**  The claim owner periodically rewrites its claim file
(atomic temp + ``os.replace``) with a fresh heartbeat.  The scheduler
piggybacks this on its per-record progress callback, exactly like manifest
lease heartbeats.

**TTL re-queue.**  A claim whose lease is stale does not block the cell: the
next claimer supersedes it at the next token ("stealing" the cell).  A
SIGKILLed same-host joiner is stolen from immediately (dead pid); a vanished
remote host after :data:`repro.campaign.manifest.LEASE_TTL_SECONDS` (override
with ``$AUTOQ_REPRO_LEASE_TTL`` — tests and smoke runs use short TTLs).

**Idempotent completion.**  A finished cell is published by hard-linking a
fully written temp file to ``results/<cell_id>.json`` — atomic and
exclusive, so the *first* writer wins and every later completion of the same
cell (a deposed worker finishing anyway) is discarded.  Verdicts are
deterministic, so duplicates are expected to agree: each result carries a
:func:`result_fingerprint` over the verdict counters, and a discarded
completion whose fingerprint differs from the winner's is counted as a
``conflict`` (a real red flag) instead of a benign ``duplicate``.

Claim I/O runs under the shared :class:`repro.faults.RetryPolicy` and passes
through the ``queue.claim`` fault-injection site, so the chaos suite can
exercise claim races, claim crashes, and slow claims deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..campaign.manifest import LEASE_TTL_SECONDS, lease_is_stale
from ..faults import DEFAULT_STORE_RETRY, RetryPolicy, inject

__all__ = [
    "QUEUE_SUFFIX",
    "CLAIM_DIR",
    "RESULT_DIR",
    "LEASE_TTL_ENV",
    "QueueLease",
    "JobQueue",
    "queue_dir_for",
    "result_fingerprint",
]

#: the queue lives next to its manifest: ``<manifest_dir>/<campaign_id>.queue/``
QUEUE_SUFFIX = ".queue"
CLAIM_DIR = "claims"
RESULT_DIR = "results"

#: overrides the stale-lease TTL (seconds) for claims — production default is
#: :data:`repro.campaign.manifest.LEASE_TTL_SECONDS`; chaos tests and smoke
#: runs shrink it so cross-host abandonment is observable in seconds
LEASE_TTL_ENV = "AUTOQ_REPRO_LEASE_TTL"

_CLAIM_NAME = re.compile(r"^(?P<cell>.+)\.t(?P<token>\d+)\.json$")


def queue_dir_for(manifest_dir: str, campaign_id: str) -> str:
    """Where the fabric queue of ``campaign_id`` lives under ``manifest_dir``."""
    return os.path.join(manifest_dir, f"{campaign_id}{QUEUE_SUFFIX}")


def default_lease_ttl() -> float:
    """The claim TTL: ``$AUTOQ_REPRO_LEASE_TTL`` or the manifest default."""
    override = os.environ.get(LEASE_TTL_ENV)
    if override:
        try:
            value = float(override)
        except ValueError:
            return LEASE_TTL_SECONDS
        if value > 0:
            return value
    return LEASE_TTL_SECONDS


def result_fingerprint(summary: Dict) -> str:
    """Digest of the verdict-bearing part of a cell summary.

    Two completions of the same cell must agree on this — verification is
    deterministic — so the fingerprint is what separates a benign duplicate
    (deposed worker finished anyway) from a conflicting one.  Timing fields
    and worker-local counters are deliberately excluded.
    """
    material = json.dumps(
        {key: summary.get(key)
         for key in ("jobs", "holds", "violated", "unsupported", "errors",
                     "reference_violated")},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class _ClaimLost(Exception):
    """Internal: another worker won the exclusive-create race for this token.

    Deliberately not an ``OSError`` — losing a race is a deterministic
    outcome, and the retry policy (allowlist: ``OSError``) must not burn
    attempts re-running it.
    """


@dataclass
class QueueLease:
    """A successful claim: proof of (current) ownership of one cell.

    ``token`` is the cell's fencing token at claim time; the lease is only
    as good as its heartbeat, so long cells must :meth:`JobQueue.renew` it.
    """

    cell_id: str
    token: int
    path: str
    owner: Dict = field(default_factory=dict)
    #: True when this claim superseded another worker's stale claim
    stolen: bool = False
    #: successful heartbeat renewals of this lease (rolled into the cell's
    #: ``lease_renewals`` fabric counter at completion)
    renewals: int = 0


class JobQueue:
    """Multi-writer cell queue of one campaign (see the module docstring).

    One instance per worker process; instances coordinate purely through the
    queue directory, so any number of them — across processes and hosts that
    share the manifest directory — can attach to the same campaign.
    """

    def __init__(self, manifest_dir: str, campaign_id: str,
                 lease_ttl: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None):
        self.campaign_id = campaign_id
        self.directory = queue_dir_for(manifest_dir, campaign_id)
        self.claim_dir = os.path.join(self.directory, CLAIM_DIR)
        self.result_dir = os.path.join(self.directory, RESULT_DIR)
        self.lease_ttl = default_lease_ttl() if lease_ttl is None else lease_ttl
        # claim/complete I/O is small-file metadata traffic, so the store's
        # quick retry profile fits better than the client's patient one
        self.retry = retry if retry is not None else DEFAULT_STORE_RETRY
        self.counters = {
            "cells_claimed": 0,
            "cells_stolen": 0,
            "cells_requeued": 0,
            "lease_renewals": 0,
            "completions": 0,
            "duplicates": 0,
            "conflicts": 0,
        }
        os.makedirs(self.claim_dir, exist_ok=True)
        os.makedirs(self.result_dir, exist_ok=True)

    def reset(self) -> None:
        """Drop every claim and result — a fresh campaign reusing an id must
        not inherit the previous sweep's completions."""
        for directory in (self.claim_dir, self.result_dir):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass

    # ----------------------------------------------------------- inspection
    @staticmethod
    def _lease() -> Dict:
        # same shape as the manifest's cell leases, so lease_is_stale applies
        import socket

        return {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "heartbeat": time.time(),
        }

    def _claim_files(self, cell_id: str) -> List[Tuple[int, str]]:
        """``(token, path)`` of every claim generation of a cell, ascending."""
        claims: List[Tuple[int, str]] = []
        try:
            names = os.listdir(self.claim_dir)
        except OSError:
            return claims
        for name in names:
            match = _CLAIM_NAME.match(name)
            if match is not None and match.group("cell") == cell_id:
                claims.append((int(match.group("token")),
                               os.path.join(self.claim_dir, name)))
        claims.sort()
        return claims

    def current_claim(self, cell_id: str) -> Tuple[int, Optional[Dict]]:
        """The cell's top ``(token, lease)``; ``(0, None)`` when never claimed.

        An unreadable or garbled claim file reads as ``(token, None)`` — a
        lease nobody can parse is stale by definition.
        """
        claims = self._claim_files(cell_id)
        if not claims:
            return 0, None
        token, path = claims[-1]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return token, None
        lease = payload.get("lease") if isinstance(payload, dict) else None
        return token, lease if isinstance(lease, dict) else None

    def _result_path(self, cell_id: str) -> str:
        return os.path.join(self.result_dir, f"{cell_id}.json")

    def result(self, cell_id: str) -> Optional[Dict]:
        """The accepted completion record of a cell (``None`` while unfinished).

        A result file that fails to parse is deleted: completions are atomic
        hard-links of fully written temp files, so a garbled record means
        on-disk damage, and leaving it would block the cell forever.
        """
        path = self._result_path(cell_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return record if isinstance(record, dict) else None

    def results(self, cell_ids: List[str]) -> Dict[str, Dict]:
        """Completion records by cell id, for the coordinator's roll-up."""
        records = {}
        for cell_id in cell_ids:
            record = self.result(cell_id)
            if record is not None:
                records[cell_id] = record
        return records

    def completed_cell_ids(self) -> List[str]:
        try:
            names = os.listdir(self.result_dir)
        except OSError:
            return []
        return sorted(name[: -len(".json")] for name in names
                      if name.endswith(".json"))

    def pending_cells(self, cell_ids: List[str]) -> List[str]:
        """Cells still claimable: no completion yet and no live claim.

        Order is preserved from ``cell_ids`` (the scheduler passes them
        cheapest-first, so every worker drains in the same priority order).
        """
        done = set(self.completed_cell_ids())
        pending = []
        for cell_id in cell_ids:
            if cell_id in done:
                continue
            _token, lease = self.current_claim(cell_id)
            if lease is not None and not lease_is_stale(lease, ttl=self.lease_ttl):
                continue
            pending.append(cell_id)
        return pending

    # ---------------------------------------------------------------- claim
    def _write_claim(self, path: str, payload: Dict) -> None:
        """The exclusive-create race; the ``queue.claim`` fault site.

        The claim is written to a temp file and hard-linked into place, so a
        concurrent claimer never reads a half-written claim, which would
        parse as a stale lease and be superseded while its owner runs.
        """
        inject("queue.claim")
        fd, temp_path = tempfile.mkstemp(dir=self.claim_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=2)
            os.link(temp_path, path)
        except FileExistsError as error:
            raise _ClaimLost(path) from error
        finally:
            try:
                os.unlink(temp_path)
            except OSError:
                pass

    def claim(self, cell_id: str) -> Optional[QueueLease]:
        """Try to take ownership of a cell; ``None`` when unavailable.

        Unavailable means: already completed, currently held by a live
        worker, or lost the creation race to a concurrent claimer.  The
        caller just moves on to the next pending cell — no state to clean
        up, claiming is all-or-nothing.
        """
        if os.path.exists(self._result_path(cell_id)):
            return None
        top_token, top_lease = self.current_claim(cell_id)
        if top_token and top_lease is not None and not lease_is_stale(
                top_lease, ttl=self.lease_ttl):
            return None
        token = top_token + 1
        owner = self._lease()
        stolen = bool(
            top_token
            and (not top_lease or int(top_lease.get("pid") or -1) != os.getpid()
                 or top_lease.get("host") != owner["host"])
        )
        path = os.path.join(self.claim_dir, f"{cell_id}.t{token}.json")
        payload = {
            "campaign_id": self.campaign_id,
            "cell_id": cell_id,
            "token": token,
            "lease": owner,
        }
        try:
            self.retry.call(self._write_claim, path, payload)
        except _ClaimLost:
            return None
        except OSError:
            return None
        self.counters["cells_claimed"] += 1
        if top_token:
            # the cell went back into the queue at least once
            self.counters["cells_requeued"] += 1
        if stolen:
            self.counters["cells_stolen"] += 1
        # superseded generations are dead weight; removing them is safe (the
        # top token only grows) and keeps the claim dir at one file per cell
        for _old_token, old_path in self._claim_files(cell_id)[:-1]:
            try:
                os.unlink(old_path)
            except OSError:
                pass
        return QueueLease(cell_id=cell_id, token=token, path=path,
                          owner=owner, stolen=stolen)

    # ---------------------------------------------------------------- renew
    def renew(self, lease: QueueLease) -> bool:
        """Refresh the lease heartbeat; ``False`` when ownership was lost.

        Ownership is lost when a higher claim generation exists (this worker
        was presumed dead and the cell stolen) — the deposed worker may
        still finish and complete (idempotently), but should stop renewing.
        """
        top_token, _top_lease = self.current_claim(lease.cell_id)
        if top_token > lease.token:
            return False
        lease.owner = self._lease()
        payload = {
            "campaign_id": self.campaign_id,
            "cell_id": lease.cell_id,
            "token": lease.token,
            "lease": lease.owner,
        }
        text = json.dumps(payload, sort_keys=True, indent=2)
        try:
            fd, temp_path = tempfile.mkstemp(dir=self.claim_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_path, lease.path)
        except OSError:
            return False
        lease.renewals += 1
        self.counters["lease_renewals"] += 1
        return True

    # ------------------------------------------------------------- complete
    def complete(self, lease: QueueLease, summary: Dict,
                 report_path: Optional[str] = None) -> str:
        """Publish a finished cell; returns the outcome.

        ``"accepted"``
            this completion is the cell's result (first writer);
        ``"duplicate"``
            another worker already completed the cell with the same verdict
            fingerprint — this one is discarded, totals unaffected;
        ``"conflict"``
            another completion won *and disagrees* on the verdicts — still
            discarded (first writer wins), but counted separately because
            deterministic verification should make this impossible.
        """
        fingerprint = result_fingerprint(summary)
        record = {
            "campaign_id": self.campaign_id,
            "cell_id": lease.cell_id,
            "token": lease.token,
            "fingerprint": fingerprint,
            "summary": summary,
            "report_path": report_path,
            "worker": dict(lease.owner),
            "stolen": lease.stolen,
            "renewals": lease.renewals,
            "completed_at": time.time(),
        }
        target = self._result_path(lease.cell_id)
        fd, temp_path = tempfile.mkstemp(dir=self.result_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True, indent=2)
            # hard-link: atomic AND exclusive, unlike os.replace — the first
            # completion wins and every later one fails with FileExistsError
            os.link(temp_path, target)
        except FileExistsError:
            existing = self.result(lease.cell_id) or {}
            if existing.get("fingerprint") == fingerprint:
                self.counters["duplicates"] += 1
                return "duplicate"
            self.counters["conflicts"] += 1
            return "conflict"
        finally:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
        # ownership is settled; drop this cell's claim files so crashed-worker
        # scans (pending_cells) stop parsing leases for finished work
        for _token, path in self._claim_files(lease.cell_id):
            try:
                os.unlink(path)
            except OSError:
                pass
        self.counters["completions"] += 1
        return "accepted"

    # ------------------------------------------------------------ accounting
    def counter_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)
