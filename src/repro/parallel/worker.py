"""Standalone shard worker: ``python -m repro.parallel.worker``.

The dispatch backends (:mod:`repro.parallel.backends`) ship shards to
places a :class:`concurrent.futures.ProcessPoolExecutor` cannot reach —
a fresh interpreter, another host over SSH.  This module is the far end
of that wire: it reads one JSON *task* from stdin, runs the shard, and
writes one JSON *reply* to stdout: the shard payload plus the worker's
own throughput and peak RSS.  Nothing else touches stdout, so the reply
is machine-parseable even when the simulation logs to stderr.

The task carries the campaign spec as plain JSON
(:func:`spec_to_payload` / :func:`spec_from_payload`): node profiles
travel by *name* and are resolved against the receiving interpreter's
registry, so both ends must run the same repro version — which the
sweep fingerprint embedded in every checkpoint/cache entry enforces
downstream anyway.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from repro.core.campaign import CampaignSpec
from repro.obs.journal import peak_rss_kb
from repro.recovery.masking import MaskingPolicy
from repro.testbed.nodes import profile_by_name

from .shard import run_shard

#: Version of the stdin/stdout wire format.
#: 2: the reply's shard carries rows (``PAYLOAD_VERSION`` 4) and a
#: ``wall`` object with the worker's ``events_per_sec`` and
#: ``rss_peak_kb``.
TASK_VERSION = 2


def spec_to_payload(spec: CampaignSpec) -> Dict[str, object]:
    """A campaign spec as plain JSON-able data (wire format)."""
    return {
        "duration": spec.duration,
        "seed": spec.seed,
        "masking": {
            "bind_wait": spec.masking.bind_wait,
            "retry": spec.masking.retry,
            "sdp_before_pan": spec.masking.sdp_before_pan,
        },
        "workloads": list(spec.workloads),
        "profiles": [profile.name for profile in spec.profiles],
        "hardware_replacement": spec.hardware_replacement,
        "fidelity": spec.fidelity,
        "rare_boost": spec.rare_boost,
    }


def spec_from_payload(payload: Dict[str, object]) -> CampaignSpec:
    """Rebuild a spec from :func:`spec_to_payload` data.

    Raises ``KeyError`` for a profile name the receiving interpreter
    does not know — the clear failure mode for a version-skewed remote.
    """
    masking = payload.get("masking", {})
    if not isinstance(masking, dict):
        raise ValueError("spec payload field 'masking' must be an object")
    return CampaignSpec(
        duration=float(payload["duration"]),  # type: ignore[arg-type]
        seed=int(payload["seed"]),  # type: ignore[call-overload]
        masking=MaskingPolicy(
            bind_wait=bool(masking.get("bind_wait", False)),
            retry=bool(masking.get("retry", False)),
            sdp_before_pan=bool(masking.get("sdp_before_pan", False)),
        ),
        workloads=tuple(str(w) for w in payload["workloads"]),  # type: ignore[union-attr]
        profiles=tuple(
            profile_by_name(str(name))
            for name in payload["profiles"]  # type: ignore[union-attr]
        ),
        hardware_replacement=bool(payload.get("hardware_replacement", True)),
        fidelity=str(payload.get("fidelity", "bit")),
        rare_boost=float(payload.get("rare_boost", 1.0)),  # type: ignore[arg-type]
    )


def main() -> int:
    """Run one task from stdin; reply on stdout; 0 on success."""
    try:
        task = json.load(sys.stdin)
    except ValueError as error:
        print(f"worker: unreadable task on stdin: {error}", file=sys.stderr)
        return 2
    if task.get("version") != TASK_VERSION:
        print(
            f"worker: task version {task.get('version')!r} != {TASK_VERSION}",
            file=sys.stderr,
        )
        return 2
    try:
        spec = spec_from_payload(task["spec"])
        shard = run_shard(spec, with_metrics=bool(task.get("with_metrics", False)))
    except Exception as error:  # noqa: BLE001 - the wire carries one verdict
        print(f"worker: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    rate = shard.events / shard.wall_time if shard.wall_time > 0 else 0.0
    json.dump(
        {
            "version": TASK_VERSION,
            "shard": shard.to_payload(),
            # For the dispatcher's shard_completed event (wall envelope).
            "wall": {"events_per_sec": round(rate, 3), "rss_peak_kb": peak_rss_kb()},
        },
        sys.stdout,
        separators=(",", ":"),
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())


__all__ = ["TASK_VERSION", "main", "spec_from_payload", "spec_to_payload"]
