"""Campaign manifests: the on-disk record of what a sweep is.

A matrix sweep (:mod:`repro.campaign.scheduler`) is identified by a campaign
id.  Its manifest, ``<manifest_dir>/<campaign_id>.json``, records the full
sweep spec, the spec's fingerprint and the ids of the sweep's cells.  It is
written once, atomically, when the sweep is created, and never again.

Where each cell stands (done, held by a live worker, interrupted, pending)
is not the manifest's business: that lives in the campaign's lease queue
next to it (:mod:`repro.dist.queue`), which the coordinator and every
``campaign --join`` worker write concurrently.

``campaign --resume <id>`` rebuilds the spec from the manifest alone, and a
spec passed alongside ``--resume`` is checked against the stored fingerprint
so a manifest is never resumed under a different sweep definition.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from .cache import atomic_write_json

__all__ = [
    "ManifestError",
    "CampaignManifest",
    "default_manifest_dir",
    "list_campaign_ids",
]

#: version 2 stores ``cells`` as a list of ids; version 1 mapped every id to
#: its lease state, which :meth:`CampaignManifest.load` still reads
MANIFEST_VERSION = 2

#: environment variable overriding the default manifest directory
MANIFEST_DIR_ENV = "AUTOQ_REPRO_MANIFEST_DIR"


class ManifestError(ValueError):
    """A manifest is missing, corrupt, or does not match the requested sweep."""


def default_manifest_dir() -> str:
    """The manifest directory: ``$AUTOQ_REPRO_MANIFEST_DIR`` or
    ``~/.cache/autoq-repro/manifests`` (exactly as the CLI help documents)."""
    override = os.environ.get(MANIFEST_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "autoq-repro", "manifests")


def list_campaign_ids(directory: str) -> List[str]:
    """Campaign ids with a manifest under ``directory`` (sorted; [] when absent)."""
    try:
        names = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        return []
    return sorted(name[: -len(".json")] for name in names if name.endswith(".json"))


class CampaignManifest:
    """The sweep record of one matrix campaign: id, spec, fingerprint, cells.

    Construct through :meth:`create` (a fresh sweep; the one write) or
    :meth:`load` (resume, join, ``campaign ls``).
    """

    def __init__(
        self,
        path: str,
        campaign_id: str,
        spec: Dict,
        spec_fingerprint: str,
        cell_ids: List[str],
    ):
        self.path = path
        self.campaign_id = campaign_id
        self.spec = spec
        self.spec_fingerprint = spec_fingerprint
        self.cell_ids = cell_ids

    @staticmethod
    def path_for(directory: str, campaign_id: str) -> str:
        """Where the manifest of ``campaign_id`` lives under ``directory``."""
        return os.path.join(directory, f"{campaign_id}.json")

    @classmethod
    def create(
        cls,
        directory: str,
        campaign_id: str,
        spec: Dict,
        spec_fingerprint: str,
        cell_ids: List[str],
    ) -> "CampaignManifest":
        """Write the manifest of a fresh sweep (overwrites any previous sweep
        under the same id)."""
        os.makedirs(directory, exist_ok=True)
        manifest = cls(cls.path_for(directory, campaign_id), campaign_id, spec,
                       spec_fingerprint, list(cell_ids))
        manifest.save()
        return manifest

    @classmethod
    def load(cls, directory: str, campaign_id: str) -> "CampaignManifest":
        """Load an existing manifest; :class:`ManifestError` when absent/corrupt."""
        path = cls.path_for(directory, campaign_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise ManifestError(
                f"no manifest for campaign {campaign_id!r} in {directory!r}; "
                "start it without --resume first"
            ) from None
        except (OSError, ValueError) as error:
            raise ManifestError(f"cannot read manifest {path!r}: {error}") from error
        for field in ("campaign_id", "spec", "spec_fingerprint", "cells"):
            if field not in payload:
                raise ManifestError(f"manifest {path!r} is missing the {field!r} field")
        if not isinstance(payload["cells"], (list, dict)):
            raise ManifestError(f"manifest {path!r} has a malformed 'cells' field")
        # a version-1 mapping of id -> state lists as its ids, in order
        return cls(path, payload["campaign_id"], payload["spec"],
                   payload["spec_fingerprint"], list(payload["cells"]))

    def to_dict(self) -> Dict:
        return {
            "version": MANIFEST_VERSION,
            "campaign_id": self.campaign_id,
            "spec": self.spec,
            "spec_fingerprint": self.spec_fingerprint,
            "cells": self.cell_ids,
        }

    def save(self) -> None:
        """Persist the manifest atomically."""
        atomic_write_json(self.path, self.to_dict(), indent=2)

    def check_fingerprint(self, spec_fingerprint: str) -> None:
        """Refuse to resume under a different sweep definition."""
        if spec_fingerprint != self.spec_fingerprint:
            raise ManifestError(
                f"campaign {self.campaign_id!r} was started from a different sweep spec "
                f"(manifest fingerprint {self.spec_fingerprint[:12]}…, "
                f"requested {spec_fingerprint[:12]}…); drop --resume or pass the original spec"
            )
