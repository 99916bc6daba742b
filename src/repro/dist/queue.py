"""Lease-based job queue of one campaign: the only record of cell state.

The campaign manifest (:mod:`repro.campaign.manifest`) records *what* a sweep
is — its spec and cell ids, written once.  *Where each cell stands* lives
here, in a queue directory next to the manifest that any number of workers
write concurrently:

    <manifest_dir>/<campaign_id>.queue/
        claims/<cell_id>.t<token>.json     one file per claim generation
        results/<cell_id>.json             one file per completed cell

A cell is *done* once it has a result, *held* while its top claim is live,
*interrupted* once its top claim went stale, and *pending* when nobody has
claimed it (:meth:`JobQueue.cell_states`).  Resume, ``campaign ls`` and the
coordinator's roll-up all read that one view, so a cell a joiner holds or
finished looks the same to every reader.  The directories are created by the
first write, so reading a campaign's state never changes the tree.

Every coordination primitive reduces to a POSIX filesystem guarantee, so the
queue needs no server and works on any shared directory (local disk for
same-host workers, NFS-style mounts across hosts):

**Atomic claim with fencing tokens.**  A claim on cell C at generation *t*
is the file ``claims/C.t<t>.json``, created by hard-linking a fully written
temp file into place — ``link`` fails if the name exists, so the filesystem
picks exactly one winner per ``(cell, token)``, and no reader ever sees a
half-written claim.  The live claim is the one with the *highest* token; to
claim a cell a worker reads the current top claim, verifies it is stale
(:func:`lease_is_stale` — dead pid on this host, or heartbeat older than the
TTL), and races to create generation ``t+1``.  Losing the race is just
``FileExistsError``.  The token is a per-cell fencing token: it only ever
grows, every completion records the token it ran under, and a worker that
discovers its claim is no longer the top one knows it has been deposed.

**Heartbeat renewal.**  While its claim is still the cell's top claim, the
owner periodically rewrites it (atomic temp + ``os.replace``) with a fresh
heartbeat.  The scheduler piggybacks this on its per-record progress
callback.

**TTL re-queue.**  A claim whose lease is stale does not block the cell: the
next claimer supersedes it at the next token ("stealing" the cell).  A
SIGKILLed same-host joiner is stolen from immediately (dead pid); a vanished
remote host after :data:`LEASE_TTL_SECONDS` (override with
``$AUTOQ_REPRO_LEASE_TTL`` — tests and smoke runs use short TTLs).

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
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults import DEFAULT_STORE_RETRY, RetryPolicy, inject

__all__ = [
    "QUEUE_SUFFIX",
    "CLAIM_DIR",
    "RESULT_DIR",
    "LEASE_TTL_ENV",
    "LEASE_TTL_SECONDS",
    "CellState",
    "QueueLease",
    "JobQueue",
    "lease_is_stale",
    "queue_dir_for",
    "result_fingerprint",
]

#: the queue lives next to its manifest: ``<manifest_dir>/<campaign_id>.queue/``
QUEUE_SUFFIX = ".queue"
CLAIM_DIR = "claims"
RESULT_DIR = "results"

#: a claim whose heartbeat is older than this is abandoned even when pid
#: liveness cannot be checked (the owner ran on another host)
LEASE_TTL_SECONDS = 900.0

#: overrides the stale-lease TTL (seconds) for claims — chaos tests and smoke
#: runs shrink it so cross-host abandonment is observable in seconds
LEASE_TTL_ENV = "AUTOQ_REPRO_LEASE_TTL"

_CLAIM_NAME = re.compile(r"^(?P<cell>.+)\.t(?P<token>\d+)\.json$")


def queue_dir_for(manifest_dir: str, campaign_id: str) -> str:
    """Where the fabric queue of ``campaign_id`` lives under ``manifest_dir``."""
    return os.path.join(manifest_dir, f"{campaign_id}{QUEUE_SUFFIX}")


def default_lease_ttl() -> float:
    """The claim TTL: ``$AUTOQ_REPRO_LEASE_TTL`` or :data:`LEASE_TTL_SECONDS`."""
    override = os.environ.get(LEASE_TTL_ENV)
    if override:
        try:
            value = float(override)
        except ValueError:
            return LEASE_TTL_SECONDS
        if value > 0:
            return value
    return LEASE_TTL_SECONDS


def lease_is_stale(
    owner: Optional[Dict],
    ttl: float = LEASE_TTL_SECONDS,
    now: Optional[float] = None,
) -> bool:
    """Whether a claim's lease no longer belongs to a live worker.

    A lease is the ``{"pid", "host", "heartbeat"}`` record a claim file
    carries.  Stale means the cell may be claimed again:

    * no lease at all, or one that does not parse;
    * heartbeat older than ``ttl`` — covers crashed workers on *other*
      hosts, where pid liveness cannot be probed;
    * the pid is this very process — we are obviously not running that
      cell in parallel with ourselves, so a same-process resume (e.g.
      after ``KeyboardInterrupt``) reclaims its own cells immediately;
    * same host and the pid is dead.

    A same-host lease held by a different live process, or a fresh
    heartbeat from another host, is *live* and blocks the claim.
    """
    if not owner:
        return True
    try:
        heartbeat = float(owner["heartbeat"])
        pid = int(owner["pid"])
        host = owner["host"]
    except (KeyError, TypeError, ValueError):
        return True
    if (time.time() if now is None else now) - heartbeat > ttl:
        return True
    if host != socket.gethostname():
        return False
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except PermissionError:
        return False  # alive, owned by another user
    except OSError:
        return True  # ProcessLookupError and friends: owner is gone
    return False


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


def _listdir(directory: str) -> List[str]:
    try:
        return os.listdir(directory)
    except OSError:
        return []


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _read_json(path: str) -> Optional[Dict]:
    """A JSON object file's content; ``None`` when missing, unreadable or garbled."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _read_lease(path: str) -> Optional[Dict]:
    """The lease a claim file carries; ``None`` when it does not parse — a
    lease nobody can parse is stale by definition."""
    lease = (_read_json(path) or {}).get("lease")
    return lease if isinstance(lease, dict) else None


def _write_json(target: str, payload: Dict, exclusive: bool) -> None:
    """Write ``payload`` to a temp file next to ``target``, then move it in.

    ``exclusive`` hard-links the temp file into place — atomic *and* failing
    with ``FileExistsError`` when ``target`` exists, so the first writer
    wins; otherwise ``os.replace`` overwrites.  Readers never see a
    half-written file, and the temp file never outlives the call.
    """
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
        if exclusive:
            os.link(temp_path, target)
        else:
            os.replace(temp_path, target)
            temp_path = None
    finally:
        if temp_path is not None:
            _discard(temp_path)


class _ClaimLost(Exception):
    """Internal: another worker won the exclusive-create race for this token.

    Deliberately not an ``OSError`` — losing a race is a deterministic
    outcome, and the retry policy (allowlist: ``OSError``) must not burn
    attempts re-running it.
    """


@dataclass(frozen=True)
class CellState:
    """One cell as the queue sees it (see :meth:`JobQueue.cell_states`).

    ``status`` is ``"done"`` (the cell has a result), ``"held"`` (its top
    claim is live), ``"interrupted"`` (its top claim is stale) or
    ``"pending"`` (never claimed).  ``attempts`` counts claim generations:
    the larger of the result's token and the top claim's.  ``lease`` is the
    top claim's lease and ``result`` the completion record, when present.
    """

    status: str
    attempts: int
    lease: Optional[Dict]
    result: Optional[Dict]


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

    def reset(self) -> None:
        """Drop every claim and result — a fresh campaign reusing an id must
        not inherit the previous sweep's completions."""
        for directory in (self.claim_dir, self.result_dir):
            for name in _listdir(directory):
                _discard(os.path.join(directory, name))

    # ----------------------------------------------------------- inspection
    @staticmethod
    def _lease() -> Dict:
        """This process's lease, the record :func:`lease_is_stale` judges."""
        return {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "heartbeat": time.time(),
        }

    def _claims(self) -> Dict[str, List[Tuple[int, str]]]:
        """``(token, path)`` of every claim generation by cell, ascending,
        from one listing of the claim directory."""
        claims: Dict[str, List[Tuple[int, str]]] = {}
        for name in _listdir(self.claim_dir):
            match = _CLAIM_NAME.match(name)
            if match is not None:
                claims.setdefault(match.group("cell"), []).append(
                    (int(match.group("token")), os.path.join(self.claim_dir, name)))
        for generations in claims.values():
            generations.sort()
        return claims

    def _claim_files(self, cell_id: str) -> List[Tuple[int, str]]:
        """``(token, path)`` of every claim generation of a cell, ascending."""
        return self._claims().get(cell_id, [])

    def current_claim(self, cell_id: str) -> Tuple[int, Optional[Dict]]:
        """The cell's top ``(token, lease)``; ``(0, None)`` when never claimed.

        An unreadable or garbled claim file reads as ``(token, None)``.
        """
        claims = self._claim_files(cell_id)
        if not claims:
            return 0, None
        token, path = claims[-1]
        return token, _read_lease(path)

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
            _discard(path)
            return None
        return record if isinstance(record, dict) else None

    def cell_states(self, cell_ids: List[str]) -> Dict[str, CellState]:
        """Where every cell of ``cell_ids`` stands, in the given order.

        Read-only: lists the claim and result directories once per call
        and creates or deletes nothing.  A garbled result reads as
        unfinished (the claim decides), a garbled claim as stale.
        """
        claims = self._claims()
        finished = set(_listdir(self.result_dir))
        states = {}
        for cell_id in cell_ids:
            token, path = claims.get(cell_id, [(0, "")])[-1]
            lease = _read_lease(path) if path else None
            record = (_read_json(self._result_path(cell_id))
                      if f"{cell_id}.json" in finished else None)
            if record is not None:
                status = "done"
            elif not token:
                status = "pending"
            elif lease is not None and not lease_is_stale(lease, ttl=self.lease_ttl):
                status = "held"
            else:
                status = "interrupted"
            attempts = max(token, int((record or {}).get("token") or 0))
            states[cell_id] = CellState(status, attempts, lease, record)
        return states

    # ---------------------------------------------------------------- claim
    def _claim_payload(self, cell_id: str, token: int, owner: Dict) -> Dict:
        return {"campaign_id": self.campaign_id, "cell_id": cell_id,
                "token": token, "lease": owner}

    def _write_claim(self, path: str, payload: Dict) -> None:
        """The exclusive-create race; the ``queue.claim`` fault site.

        The claim is written to a temp file and hard-linked into place, so a
        concurrent claimer never reads a half-written claim, which would
        parse as a stale lease and be superseded while its owner runs.
        """
        inject("queue.claim")
        try:
            _write_json(path, payload, exclusive=True)
        except FileExistsError as error:
            raise _ClaimLost(path) from error

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
        try:
            self.retry.call(self._write_claim, path,
                            self._claim_payload(cell_id, token, owner))
        except (_ClaimLost, OSError):
            return None
        self.counters["cells_claimed"] += 1
        if top_token:
            # the cell went back into the queue at least once
            self.counters["cells_requeued"] += 1
        if stolen:
            self.counters["cells_stolen"] += 1
        # superseded generations are dead weight; removing them is safe (the
        # top token only grows) and keeps the claim dir at one file per cell
        for old_token, old_path in self._claim_files(cell_id):
            if old_token < token:
                _discard(old_path)
        return QueueLease(cell_id=cell_id, token=token, path=path,
                          owner=owner, stolen=stolen)

    # ---------------------------------------------------------------- renew
    def renew(self, lease: QueueLease) -> bool:
        """Refresh the lease heartbeat; ``False`` once ownership is gone.

        Ownership is gone as soon as the lease is not the cell's top claim:
        a higher generation exists (this worker was presumed dead and the
        cell stolen), or the cell was completed and its claims dropped.  The
        deposed worker may still finish and complete (idempotently), but
        stops renewing — and never resurrects a claim file.
        """
        if self.current_claim(lease.cell_id)[0] != lease.token:
            return False
        owner = self._lease()
        try:
            _write_json(lease.path,
                        self._claim_payload(lease.cell_id, lease.token, owner),
                        exclusive=False)
        except OSError:
            return False
        lease.owner = owner
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
        try:
            _write_json(self._result_path(lease.cell_id), record, exclusive=True)
        except FileExistsError:
            existing = self.result(lease.cell_id) or {}
            if existing.get("fingerprint") == fingerprint:
                self.counters["duplicates"] += 1
                return "duplicate"
            self.counters["conflicts"] += 1
            return "conflict"
        # ownership is settled; drop this cell's claim files so state scans
        # stop parsing leases for finished work
        for _token, path in self._claim_files(lease.cell_id):
            _discard(path)
        self.counters["completions"] += 1
        return "accepted"

    # ------------------------------------------------------------ accounting
    def counter_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)
