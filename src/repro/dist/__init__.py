"""Distributed campaign fabric: many workers, one campaign.

The paper's Table 2/3 sweeps are embarrassingly parallel at the cell level.
This package turns a matrix sweep into a multi-process fabric:

* :mod:`repro.dist.queue` — the lease-based job queue next to the campaign
  manifest, and the only record of cell state.  Atomic claims with fencing
  tokens, heartbeat renewal, idempotent first-writer-wins completion, and
  TTL-based re-queue of cells owned by dead workers;
  :meth:`~repro.dist.JobQueue.cell_states` is the read-only view resume,
  ``campaign ls`` and the coordinator's roll-up share.

Workers attach with ``campaign --join <id>`` (see
:meth:`repro.campaign.scheduler.MatrixScheduler.join`); the coordinator's
``summary.json`` roll-up merges whatever the fabric produced.  Joined hosts
share verified gate-application prefixes the same way they share the queue:
point ``--store-dir`` at a directory (:mod:`repro.ta.store`) on the mount
that holds ``--manifest-dir``.
"""

from .queue import (
    CLAIM_DIR,
    LEASE_TTL_ENV,
    QUEUE_SUFFIX,
    RESULT_DIR,
    JobQueue,
    QueueLease,
    queue_dir_for,
    result_fingerprint,
)

__all__ = [
    "CLAIM_DIR",
    "LEASE_TTL_ENV",
    "QUEUE_SUFFIX",
    "RESULT_DIR",
    "JobQueue",
    "QueueLease",
    "queue_dir_for",
    "result_fingerprint",
]
