"""The sweep fingerprint: what every shard of one sweep computes.

A resumed, repeated or overlapping sweep reuses exactly the shards
that would be recomputed identically, and recomputes everything else.
The fingerprint decides which: it hashes everything that changes a
shard's outcome (campaign spec, metrics on/off, payload schema
version), and :class:`repro.parallel.cache.ShardCache` keys every
stored shard by fingerprint x seed.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.campaign import CampaignSpec

from .shard import PAYLOAD_VERSION


def sweep_fingerprint(spec: CampaignSpec, with_metrics: bool) -> str:
    """Hex digest identifying what every shard of this sweep computes.

    The per-shard seed is excluded (it varies within one sweep and is
    the other half of the shard's cache key instead); everything else
    that affects a shard's payload is included.
    """
    identity = {
        "payload_version": PAYLOAD_VERSION,
        "spec": spec.fingerprint_data(),
        "with_metrics": bool(with_metrics),
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


__all__ = ["sweep_fingerprint"]
