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

* an entry is two newline-terminated lines: a compact JSON header
  (``version``, ``fingerprint``, ``seed``, ``sha256``), then the
  compact shard payload JSON.  ``sha256`` is taken over the payload
  line's bytes exactly as written, so ``put`` serialises the payload
  once and ``get`` hashes the raw bytes before it parses anything; a
  truncated, bit-flipped or hand-edited entry is detected, evicted and
  re-simulated, never served;
* entries are written via :func:`~repro.collection.store.atomic_writer`
  (unique temp name per writer, ``fsync``, ``os.replace``), so a worker
  killed mid-write can never leave a half-entry under the final name;
* the key includes the sweep fingerprint, so any spec change (duration,
  masking, profiles, fidelity, rare boost, payload schema version)
  changes the key and can never hit a stale entry.  It also includes
  :data:`CACHE_VERSION`, so entries of an older layout are never read:
  they are recomputed once and ``repro-bt cache prune`` reclaims them.

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
#: 2: header line + payload line, digest over the payload bytes.
#: 3: the payload's records are rows (``PAYLOAD_VERSION`` 4).
CACHE_VERSION = 3

#: Environment variable naming a default cache root for the CLI.
CACHE_ENV = "REPRO_BT_CACHE"


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
        unreadable or malformed entry, an identity mismatch (which
        would be a hash collision or manual tampering) and a digest
        mismatch (truncation, bit rot) all return None — the caller
        re-simulates and overwrites.  Corrupt entries are evicted on
        detection.  The payload line is hashed as read and parsed only
        once its digest matches.
        """
        key = shard_key(fingerprint, seed)
        path = self.entry_path(key)
        if not path.exists():
            return None
        try:
            lines = path.read_bytes().split(b"\n")
            if len(lines) != 3 or lines[2]:
                raise ValueError("not a header line and a payload line")
            header = json.loads(lines[0])
            if not isinstance(header, dict):
                raise ValueError("header is not a JSON object")
        except (ValueError, OSError) as error:
            log.warning("cache %s unreadable (%s), evicting", key[:12], error)
            self._evict(path)
            return None
        if (
            header.get("fingerprint") != fingerprint
            or header.get("seed") != int(seed)
            or header.get("version") != CACHE_VERSION
        ):
            log.warning("cache %s identity mismatch, evicting", key[:12])
            self._evict(path)
            return None
        if hashlib.sha256(lines[1]).hexdigest() != header.get("sha256"):
            log.warning("cache %s failed digest validation, evicting", key[:12])
            self._evict(path)
            return None
        try:
            shard = ShardResult.from_payload(json.loads(lines[1]))
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            log.warning("cache %s payload invalid (%s), evicting", key[:12], error)
            self._evict(path)
            return None
        log.debug("cache hit: seed=%d key=%s", seed, key[:12])
        return shard

    def put(self, fingerprint: str, seed: int, shard: ShardResult) -> Path:
        """Store a completed shard under its content address.

        The payload is serialised once; its digest is taken over those
        bytes, which are written unchanged as the entry's second line.
        """
        key = shard_key(fingerprint, seed)
        path = self.entry_path(key)
        payload = json.dumps(shard.to_payload(), separators=(",", ":"))
        header = json.dumps(
            {
                "version": CACHE_VERSION,
                "fingerprint": fingerprint,
                "seed": int(seed),
                "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            },
            separators=(",", ":"),
        )
        with atomic_writer(path) as handle:
            handle.write(f"{header}\n{payload}\n")
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
    "shard_key",
]
