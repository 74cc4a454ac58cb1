"""Content-addressed shard cache: never simulate the same shard twice.

A sweep shard is a pure function of ``(campaign spec, seed, fidelity,
payload schema)`` — everything the sweep *fingerprint* already hashes.
The cache exploits that purity: every completed shard is stored under a
key derived from ``fingerprint x seed``, so any later sweep that needs
the same shard — a re-run, a resumed run, an overlapping seed range, a
``--target-ci`` extension drawing more strata — loads it byte-identical
instead of re-simulating.  The fingerprint -> payload pipeline is also
the future campaign service's result cache and idempotency key.

The cache is also a sweep's only resume store: with no shared cache
root, the sweep roots one at its own checkpoint directory
(``<out>/shards``), so resuming means every finished seed is a cache
hit under the sweep's fingerprint.

Integrity is enforced on *read*, not trusted from the writer:

* every entry embeds the SHA-256 of its canonical shard payload JSON;
  ``get`` recomputes it, so a truncated or bit-flipped entry is
  detected, evicted and re-simulated — never served;
* entries are written via :func:`atomic_write_json` (unique temp name
  per writer, ``fsync``, ``os.replace``), so a worker killed mid-write
  can never leave a half-entry under the final name;
* the key includes the sweep fingerprint, so any spec change (duration,
  masking, profiles, fidelity, rare boost, payload schema version)
  changes the key and can never hit a stale entry.

Layout under the cache root::

    objects/<k[:2]>/<k>.json      one validated shard entry per key

Eviction is explicit (``repro-bt cache prune --max-bytes N``): entries
are dropped oldest-access first until the store fits the budget.  The
cache is an optimisation, never a source of truth — deleting any part
of it only costs recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import get_logger
from repro.collection.store import atomic_writer

from .shard import ShardResult

log = get_logger("parallel.cache")

#: Version of the cache entry layout; part of every key derivation so a
#: layout change starts a disjoint keyspace instead of mis-parsing.
CACHE_VERSION = 1

#: Environment variable naming a default cache root for the CLI.
CACHE_ENV = "REPRO_BT_CACHE"


def atomic_write_json(path: Path, document: dict) -> None:
    """Write ``document`` to ``path`` atomically and durably.

    The temp name is unique per writer process (two concurrent sweeps
    storing the same shard must not interleave into one temp file), the
    payload is flushed and fsynced before the rename, and ``os.replace``
    makes the publish atomic: any reader ever sees either the old
    complete file or the new complete file, never a torn one.  A writer
    killed at any point leaves at worst an orphaned ``*.tmp`` file.
    The document is serialised whole and written in one call: the same
    bytes as a streamed ``json.dump``, without its per-chunk writes.

    The discipline itself lives in
    :func:`repro.collection.store.atomic_writer` so every on-disk
    artifact — cache entries, JSONL repositories, the columnar store's
    sidecar files — publishes the same way.
    """
    text = json.dumps(document, separators=(",", ":"))
    with atomic_writer(path) as handle:
        handle.write(text)


def payload_digest(payload: dict) -> str:
    """SHA-256 of a shard payload's canonical JSON serialisation."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def shard_key(fingerprint: str, seed: int) -> str:
    """The content-address of one shard: fingerprint x seed x layout."""
    identity = f"{CACHE_VERSION}:{fingerprint}:{int(seed)}"
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache store (``repro-bt cache info``)."""

    entries: int
    total_bytes: int


class ShardCache:
    """The on-disk shard store rooted at a directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    # -- round-trip ----------------------------------------------------------

    def has(self, fingerprint: str, seed: int) -> bool:
        """Whether an entry exists for this identity (not validated)."""
        return self.entry_path(shard_key(fingerprint, seed)).exists()

    def get(self, fingerprint: str, seed: int) -> Optional[ShardResult]:
        """The cached shard for this identity, or None to simulate it.

        Every miss path is silent-but-logged: a missing entry, an
        unparsable entry, an identity mismatch (which would be a hash
        collision or manual tampering) and a payload-digest mismatch
        (truncation, bit rot) all return None — the caller re-simulates
        and overwrites.  Corrupt entries are evicted on detection.
        """
        key = shard_key(fingerprint, seed)
        path = self.entry_path(key)
        if not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (ValueError, OSError) as error:
            log.warning("cache %s unreadable (%s), evicting", key[:12], error)
            self._evict(path)
            return None
        if (
            entry.get("fingerprint") != fingerprint
            or entry.get("seed") != int(seed)
            or entry.get("version") != CACHE_VERSION
        ):
            log.warning("cache %s identity mismatch, evicting", key[:12])
            self._evict(path)
            return None
        payload = entry.get("shard")
        if not isinstance(payload, dict) or payload_digest(payload) != entry.get(
            "sha256"
        ):
            log.warning("cache %s failed digest validation, evicting", key[:12])
            self._evict(path)
            return None
        try:
            shard = ShardResult.from_payload(payload)
        except (ValueError, KeyError, TypeError) as error:
            log.warning("cache %s payload invalid (%s), evicting", key[:12], error)
            self._evict(path)
            return None
        log.debug("cache hit: seed=%d key=%s", seed, key[:12])
        return shard

    def put(self, fingerprint: str, seed: int, shard: ShardResult) -> Path:
        """Store a completed shard under its content address."""
        key = shard_key(fingerprint, seed)
        path = self.entry_path(key)
        payload = shard.to_payload()
        atomic_write_json(
            path,
            {
                "version": CACHE_VERSION,
                "fingerprint": fingerprint,
                "seed": int(seed),
                "sha256": payload_digest(payload),
                "shard": payload,
            },
        )
        return path

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / read-only
            pass

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> List[Tuple[Path, os.stat_result]]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        found = []
        for path in sorted(objects.glob("*/*.json")):
            try:
                found.append((path, path.stat()))
            except OSError:  # pragma: no cover - concurrent prune
                continue
        return found

    def stats(self) -> CacheStats:
        """Entry count and total size of the store."""
        entries = self._entries()
        return CacheStats(
            entries=len(entries),
            total_bytes=sum(stat.st_size for _, stat in entries),
        )

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Drop oldest-modified entries until the store fits the budget."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = self._entries()
        total = sum(stat.st_size for _, stat in entries)
        dropped = freed = 0
        for path, stat in sorted(entries, key=lambda e: (e[1].st_mtime, e[0])):
            if total <= max_bytes:
                break
            self._evict(path)
            total -= stat.st_size
            freed += stat.st_size
            dropped += 1
        return {"dropped": dropped, "freed_bytes": freed, "kept_bytes": total}


__all__ = [
    "CACHE_ENV",
    "CACHE_VERSION",
    "CacheStats",
    "ShardCache",
    "atomic_write_json",
    "payload_digest",
    "shard_key",
]
