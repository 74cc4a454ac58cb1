"""Pluggable sweep execution backends: where shards actually run.

The sweep orchestrator (:mod:`repro.parallel.sweep`) decides *what* to
run — seeds, shard-store reuse, strata, stopping rules — and hands
the surviving shards to a :class:`SweepBackend`, which decides *where*:

* :class:`SerialBackend` — in the orchestrating process, one shard at a
  time.  Zero multiprocessing machinery: the debugger-friendly and
  CI-friendly path, and the reference your parallel results must match
  byte-for-byte.
* :class:`ProcessPoolBackend` — the historical default: a local
  :class:`~concurrent.futures.ProcessPoolExecutor`, with the
  journal-tailing watchdog loop when telemetry is on.
* :class:`SubprocessBackend` — dispatches each shard to a fresh
  ``python -m repro.parallel.worker`` interpreter, locally or across a
  host list over SSH.  The *dispatcher* narrates the run journal on
  behalf of its remote shards (started / liveness heartbeats while the
  remote interpreter runs / completed-or-failed), so the existing
  monitor and watchdog see remote shards exactly like local ones.

Every backend funnels each finished shard through the orchestrator's
``complete`` callback; merging stays canonical (ascending-seed fold,
fsum pooling), so the backend choice can change wall-clock time but
never a byte of the merged tables — a property the test suite pins.

Select one with ``ExperimentConfig(backend=...)`` / ``repro-bt sweep
--backend``: ``"serial"``, ``"process"``, ``"subprocess"``, or
``"ssh:host1,host2"`` (a :class:`SweepBackend` instance also works).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import get_logger
from repro.core.campaign import CampaignSpec
from repro.obs.journal import (
    SHARD_COMPLETED,
    SHARD_FAILED,
    SHARD_HEARTBEAT,
    SHARD_REQUEUED,
    SHARD_SCHEDULED,
    SHARD_STALLED,
    SHARD_STARTED,
)

from .shard import ShardResult
from .worker import TASK_VERSION, spec_to_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .sweep import _SweepTelemetryContext

log = get_logger("parallel.backends")


class SweepStalledError(RuntimeError):
    """A monitored sweep gave up on a stalled shard (policy decision)."""


class SweepBackendError(RuntimeError):
    """A backend failed to produce a shard (dispatch/transport failure)."""


@dataclass
class ShardPlan:
    """Everything a backend needs to execute one batch of shards.

    ``runner`` is the in-process worker entry (normally
    :func:`repro.parallel.shard.run_shard`; tests substitute doubles),
    always called as ``runner(spec, with_metrics, telemetry)`` with
    ``telemetry=None`` when the sweep runs unjournaled.  ``complete`` is
    the orchestrator's merge callback and must be called exactly once
    per pending seed.  ``ctx`` is the sweep's telemetry context, or
    None when the sweep runs unjournaled.
    """

    spec: CampaignSpec
    pending: Tuple[int, ...]
    with_metrics: bool
    jobs: int
    runner: Callable[..., ShardResult]
    complete: Callable[[ShardResult], None]
    ctx: Optional["_SweepTelemetryContext"] = None


class SweepBackend:
    """Interface every sweep backend implements."""

    #: Stable identifier, recorded on ``sweep_started`` journal events
    #: and on :class:`~repro.parallel.sweep.SweepResult.backend`.
    name: str = "abstract"

    def run(self, plan: ShardPlan) -> None:
        """Execute every pending shard, calling ``plan.complete`` each."""
        raise NotImplementedError


class SerialBackend(SweepBackend):
    """Run every shard in-process, one at a time, in seed order."""

    name = "serial"

    def run(self, plan: ShardPlan) -> None:
        ctx = plan.ctx
        for seed in plan.pending:
            telemetry = None
            if ctx is not None:
                ctx.writer.emit(SHARD_SCHEDULED, seed=seed, index=ctx.index[seed])
                telemetry = ctx.shard_telemetry(seed)
            plan.complete(
                plan.runner(plan.spec.with_seed(seed), plan.with_metrics, telemetry)
            )
            if ctx is not None:
                ctx.refresh(time.time())


class ProcessPoolBackend(SweepBackend):
    """Local process-pool execution (the historical default)."""

    name = "process"

    def run(self, plan: ShardPlan) -> None:
        if plan.jobs == 1 or len(plan.pending) <= 1:
            # The pool costs more than it buys; fall back to the serial
            # reference path (byte-identical results either way).
            SerialBackend().run(plan)
            return
        workers = min(plan.jobs, len(plan.pending))
        if plan.ctx is None:
            self._run_plain_pool(plan, workers)
        else:
            self._run_monitored_pool(plan, workers, plan.ctx)

    def _run_plain_pool(self, plan: ShardPlan, workers: int) -> None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    plan.runner, plan.spec.with_seed(seed), plan.with_metrics, None
                ): seed
                for seed in plan.pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    plan.complete(future.result())

    def _run_monitored_pool(
        self, plan: ShardPlan, workers: int, ctx: "_SweepTelemetryContext"
    ) -> None:
        """The journal-tailing, watchdog-supervised pool loop.

        Stall handling per the telemetry policy:

        * ``log`` — warn and keep waiting; a dead worker process (broken
          pool) is still fatal, since nothing can complete anymore.
        * ``requeue`` — resubmit the stalled shard (first completion
          wins; a straggler's late duplicate result is discarded), up to
          ``max_retries`` extra attempts per seed; a broken pool is
          rebuilt and every incomplete shard resubmitted under the same
          budget.
        * ``abort`` — emit ``sweep_aborted`` and raise
          :class:`SweepStalledError` at the first stall verdict.
        """
        spec, pending, with_metrics = plan.spec, plan.pending, plan.with_metrics
        telemetry = ctx.telemetry
        incomplete: Set[int] = set(pending)
        attempts: Dict[int, int] = {seed: 0 for seed in pending}
        pool = ProcessPoolExecutor(max_workers=workers)

        def _launch(
            target: ProcessPoolExecutor, seeds: Sequence[int]
        ) -> Dict["Future[ShardResult]", int]:
            out: Dict["Future[ShardResult]", int] = {}
            for seed in seeds:
                attempts[seed] += 1
                out[
                    target.submit(
                        plan.runner,
                        spec.with_seed(seed),
                        with_metrics,
                        ctx.shard_telemetry(seed),
                    )
                ] = seed
            return out

        def _retry_budget_left(seed: int) -> bool:
            # attempts[] counts submissions so far; the first one is free.
            return attempts[seed] <= telemetry.max_retries

        def _requeue(
            target: ProcessPoolExecutor, seed: int
        ) -> Dict["Future[ShardResult]", int]:
            ctx.writer.emit(
                SHARD_REQUEUED, seed=seed, wall={"attempt": attempts[seed] + 1}
            )
            log.warning(
                "sweep: requeueing shard seed=%d (attempt %d)",
                seed,
                attempts[seed] + 1,
            )
            return _launch(target, [seed])

        for seed in pending:
            ctx.writer.emit(SHARD_SCHEDULED, seed=seed, index=ctx.index[seed])
        futures = _launch(pool, list(pending))
        try:
            while incomplete:
                done, _ = wait(
                    set(futures),
                    timeout=telemetry.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                broken: Optional[BrokenProcessPool] = None
                for future in done:
                    seed = futures.pop(future)
                    try:
                        shard = future.result()
                    except BrokenProcessPool as error:
                        broken = error
                        continue
                    except Exception:
                        ctx.abort(f"shard seed={seed} raised")
                        raise
                    if seed in incomplete:
                        incomplete.discard(seed)
                        plan.complete(shard)
                now = time.time()
                ctx.refresh(now)
                if broken is not None:
                    # The whole pool died with the worker; every in-flight
                    # future is lost, so rebuild-and-resubmit is the only
                    # way to keep the sweep alive.
                    if telemetry.policy != "requeue":
                        ctx.abort("worker process died (pool broken)")
                        raise broken
                    pool.shutdown(wait=False)
                    stranded = sorted(incomplete)
                    for seed in stranded:
                        ctx.writer.emit(
                            SHARD_STALLED, seed=seed, wall={"cause": "worker_exit"}
                        )
                        if not _retry_budget_left(seed):
                            ctx.abort(
                                f"shard seed={seed} lost after "
                                f"{attempts[seed]} attempt(s)"
                            )
                            raise SweepStalledError(
                                f"shard seed={seed} lost its worker "
                                f"{attempts[seed]} time(s); retry budget exhausted"
                            ) from broken
                    pool = ProcessPoolExecutor(max_workers=workers)
                    futures = {}
                    for seed in stranded:
                        futures.update(_requeue(pool, seed))
                    continue
                for action in ctx.watchdog.check(now):
                    if action.seed not in incomplete:
                        continue
                    ctx.writer.emit(
                        SHARD_STALLED,
                        seed=action.seed,
                        wall={"silent_for": round(action.silent_for, 3)},
                    )
                    log.warning(
                        "sweep: shard seed=%d silent for %.1f s (policy=%s)",
                        action.seed,
                        action.silent_for,
                        telemetry.policy,
                    )
                    if telemetry.policy == "log":
                        continue
                    if telemetry.policy == "abort" or not _retry_budget_left(
                        action.seed
                    ):
                        ctx.abort(
                            f"shard seed={action.seed} stalled "
                            f"(silent {action.silent_for:.1f} s)"
                        )
                        raise SweepStalledError(
                            f"shard seed={action.seed} silent past the "
                            f"{telemetry.heartbeat_deadline:.1f} s deadline "
                            f"(attempt {attempts[action.seed]})"
                        )
                    futures.update(_requeue(pool, action.seed))
        finally:
            # Late duplicates from requeued-but-alive stragglers may still
            # be running; don't block the merge on them.
            pool.shutdown(wait=False, cancel_futures=True)


class SubprocessBackend(SweepBackend):
    """Dispatch shards to standalone worker interpreters, local or SSH.

    Without ``hosts`` every shard runs in a fresh local
    ``python -m repro.parallel.worker`` subprocess — full interpreter
    isolation (no inherited state, no fork pitfalls).  With ``hosts``
    the same worker is launched through ``ssh host <python> -m ...``,
    shards round-robined across the list; the remote interpreters must
    have this repro version importable (the sweep fingerprint carried
    by every shard-store entry catches skew downstream).

    Liveness reuses the run journal: the dispatcher thread emits
    ``shard_heartbeat`` while its worker is alive, so the sweep monitor
    and stall watchdog treat remote shards exactly like local ones.
    """

    #: Dispatcher-side heartbeat cadence when the sweep is unjournaled
    #: (with telemetry on, the sweep's own interval wins).
    DEFAULT_HEARTBEAT = 10.0

    def __init__(
        self,
        hosts: Optional[Sequence[str]] = None,
        python: Optional[str] = None,
    ) -> None:
        self.hosts: Tuple[str, ...] = tuple(hosts) if hosts else ()
        self.python = python
        self.name = f"ssh:{','.join(self.hosts)}" if self.hosts else "subprocess"

    # -- dispatch plumbing ---------------------------------------------------

    def _argv(self, slot: int) -> Tuple[List[str], str]:
        """(command line, host label) for dispatch slot ``slot``."""
        if self.hosts:
            host = self.hosts[slot % len(self.hosts)]
            python = self.python or "python3"
            return (
                [
                    "ssh",
                    "-o",
                    "BatchMode=yes",
                    host,
                    python,
                    "-m",
                    "repro.parallel.worker",
                ],
                host,
            )
        python = self.python or sys.executable or "python3"
        return [python, "-m", "repro.parallel.worker"], "localhost"

    def _env(self) -> Optional[Dict[str, str]]:
        """Local subprocess env with this repro guaranteed importable."""
        if self.hosts:
            return None  # ssh: the remote login environment decides
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{package_root}{os.pathsep}{existing}" if existing else package_root
        )
        return env

    def run(self, plan: ShardPlan) -> None:
        ctx = plan.ctx
        if ctx is not None:
            for seed in plan.pending:
                ctx.writer.emit(SHARD_SCHEDULED, seed=seed, index=ctx.index[seed])
        merge_lock = threading.Lock()
        workers = min(plan.jobs, len(plan.pending))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="sweep-dispatch"
        ) as pool:
            futures = [
                pool.submit(self._dispatch, plan, seed, slot, merge_lock)
                for slot, seed in enumerate(plan.pending)
            ]
            for future in futures:
                future.result()  # re-raise the first dispatch failure

    def _dispatch(
        self, plan: ShardPlan, seed: int, slot: int, merge_lock: threading.Lock
    ) -> None:
        ctx = plan.ctx
        argv, host = self._argv(slot)
        where = {"backend": self.name, "host": host}
        task = json.dumps(
            {
                "version": TASK_VERSION,
                "spec": spec_to_payload(plan.spec.with_seed(seed)),
                "with_metrics": plan.with_metrics,
            }
        )
        heartbeat = (
            ctx.telemetry.heartbeat_interval
            if ctx is not None
            else self.DEFAULT_HEARTBEAT
        )
        started = time.perf_counter()
        if ctx is not None:
            ctx.writer.emit(SHARD_STARTED, seed=seed, index=ctx.index[seed], wall=where)
        try:
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=self._env(),
            )
        except OSError as error:
            self._fail(plan, seed, f"cannot launch worker {argv[0]!r}: {error}")
            raise SweepBackendError(
                f"backend {self.name}: cannot launch worker: {error}"
            ) from error
        while True:
            try:
                out, err = proc.communicate(input=task, timeout=heartbeat)
                break
            except subprocess.TimeoutExpired:
                task = None  # type: ignore[assignment]  # stdin sent once
                if ctx is not None:
                    # Dispatcher-side liveness: the remote interpreter is
                    # still running — keep the watchdog fed.
                    ctx.writer.emit(SHARD_HEARTBEAT, seed=seed, wall=dict(where))
        if proc.returncode != 0:
            tail = (err or "").strip().splitlines()[-3:]
            detail = "; ".join(tail) if tail else f"exit status {proc.returncode}"
            self._fail(plan, seed, detail)
            raise SweepBackendError(
                f"backend {self.name}: shard seed={seed} failed on {host}: {detail}"
            )
        try:
            reply = json.loads(out)
            if reply.get("version") != TASK_VERSION:
                raise ValueError(f"reply version {reply.get('version')!r}")
            shard = ShardResult.from_payload(reply["shard"])
        except (ValueError, KeyError, TypeError) as error:
            self._fail(plan, seed, f"unparsable worker reply: {error}")
            raise SweepBackendError(
                f"backend {self.name}: shard seed={seed} returned an "
                f"unparsable reply: {error}"
            ) from error
        if shard.seed != seed:
            self._fail(plan, seed, f"worker returned seed {shard.seed}")
            raise SweepBackendError(
                f"backend {self.name}: asked for seed {seed}, got {shard.seed}"
            )
        if ctx is not None:
            wall_time = time.perf_counter() - started
            ctx.writer.emit(
                SHARD_COMPLETED,
                seed=seed,
                index=ctx.index[seed],
                duration=shard.duration,
                total_items=shard.total_items,
                statistics=shard.statistics,
                events=shard.events,
                metrics=shard.metrics,
                wall={**where, "wall_time": round(wall_time, 6)},
            )
        with merge_lock:
            plan.complete(shard)

    def _fail(self, plan: ShardPlan, seed: int, detail: str) -> None:
        if plan.ctx is not None:
            plan.ctx.writer.emit(
                SHARD_FAILED,
                seed=seed,
                index=plan.ctx.index[seed],
                error=f"SweepBackendError: {detail}",
            )


#: Backend names accepted by :func:`resolve_backend` (plus ``ssh:...``).
BACKEND_NAMES = ("process", "serial", "subprocess")


def resolve_backend(
    backend: Union[None, str, SweepBackend],
) -> SweepBackend:
    """Turn a backend selector into a backend instance.

    ``None`` keeps the historical default (local process pool); a
    string picks one of :data:`BACKEND_NAMES` or ``"ssh:host1,host2"``;
    a :class:`SweepBackend` instance passes through.
    """
    if backend is None:
        return ProcessPoolBackend()
    if isinstance(backend, SweepBackend):
        return backend
    if isinstance(backend, str):
        if backend == "process":
            return ProcessPoolBackend()
        if backend == "serial":
            return SerialBackend()
        if backend == "subprocess":
            return SubprocessBackend()
        if backend.startswith("ssh:"):
            hosts = [host for host in backend[4:].split(",") if host]
            if not hosts:
                raise ValueError("ssh backend needs at least one host: 'ssh:h1,h2'")
            return SubprocessBackend(hosts=hosts)
        raise ValueError(
            f"unknown sweep backend {backend!r}; expected one of "
            f"{BACKEND_NAMES} or 'ssh:host1,host2'"
        )
    raise TypeError(f"backend must be None, str or SweepBackend, not {type(backend)}")


__all__ = [
    "BACKEND_NAMES",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShardPlan",
    "SubprocessBackend",
    "SweepBackend",
    "SweepBackendError",
    "SweepStalledError",
    "resolve_backend",
]
