"""Pluggable sweep execution backends: where shards actually run.

The sweep orchestrator (:mod:`repro.parallel.sweep`) decides *what* to
run — seeds, shard-store reuse, strata, stopping rules — and hands
the surviving shards to a :class:`SweepBackend`, which decides *where*:

* :class:`SerialBackend` — in the orchestrating process, one shard at a
  time.  Zero multiprocessing machinery: the debugger-friendly and
  CI-friendly path, and the reference your parallel results must match
  byte-for-byte.
* :class:`ProcessPoolBackend` — the historical default: a local
  :class:`~concurrent.futures.ProcessPoolExecutor`.
* :class:`SubprocessBackend` — dispatches each shard to a fresh
  ``python -m repro.parallel.worker`` interpreter, locally or across a
  host list over SSH.  The *dispatcher* narrates the run journal on
  behalf of its remote shards (started / liveness heartbeats while the
  remote interpreter runs / completed-or-failed).

Both parallel backends run under one supervision loop
(:func:`_supervise`) and supply only how an attempt is launched.  The
loop keeps at most ``jobs`` attempts in flight, merges each seed's
first completion, tails the journal into the monitor and applies the
stall policy (``log``/``requeue``/``abort``) to watchdog verdicts and
lost workers alike — a pool broken by a dying process, a worker
interpreter killed by a signal, ssh's exit 255.  Any other failure is
fatal: nothing more is launched, and the subprocess backend kills its
running workers before the error propagates.

Every backend funnels each finished shard through the orchestrator's
``complete`` callback; merging stays canonical (ascending-seed fold,
fsum pooling), so the backend choice can change wall-clock time but
never a byte of the merged tables — a property the test suite pins.

Select one with ``ExperimentConfig(backend=...)`` / ``repro-bt sweep
--backend``: ``"serial"``, ``"process"``, ``"subprocess"``, or
``"ssh:host1,host2"`` (a :class:`SweepBackend` instance also works).
"""

from __future__ import annotations

import itertools
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


class _WorkerLost(RuntimeError):
    """A worker interpreter died under its shard (a signal, or ssh's 255)."""


#: Attempt errors that mean the worker died, not that its shard failed.
_LOST = (BrokenProcessPool, _WorkerLost)


def _supervise(
    plan: ShardPlan, workers: int, launch: Callable[[int], "Future[ShardResult]"]
) -> None:
    """The one supervision loop every parallel backend runs under.

    ``launch(seed)`` starts one attempt of a shard and returns its
    future; at most ``workers`` attempts are in flight.  Each seed's
    first completion is merged from this thread, and a straggler's late
    duplicate is discarded.  A lost worker (see ``_LOST``) and a
    watchdog stall verdict are handled per the telemetry policy:

    * ``log`` — warn and keep waiting on a stall; a lost worker is
      fatal, since its shard can no longer complete.
    * ``requeue`` — launch the shard again, up to ``max_retries`` extra
      attempts per seed.
    * ``abort`` — emit ``sweep_aborted`` and raise
      :class:`SweepStalledError`.

    An unjournaled sweep has no watchdog and treats a lost worker as
    ``log`` does.  Any other error from an attempt propagates at once:
    nothing more is launched, and the caller tears down the attempts
    still running.
    """
    ctx = plan.ctx
    policy = ctx.telemetry.policy if ctx is not None else "log"
    retries = ctx.telemetry.max_retries if ctx is not None else 0
    poll = ctx.telemetry.poll_interval if ctx is not None else None
    queue = list(plan.pending)
    attempts = dict.fromkeys(plan.pending, 0)
    incomplete = set(plan.pending)
    running: Dict["Future[ShardResult]", int] = {}

    def requeue(seed: int, reason: str) -> None:
        # attempts[] counts launches so far; the first one is free.
        if policy != "requeue" or attempts[seed] > retries:
            verdict = (
                "retry budget exhausted"
                if policy == "requeue"
                else f"stall policy {policy!r}"
            )
            if ctx is not None:
                ctx.abort(reason)
            raise SweepStalledError(f"{reason} (attempt {attempts[seed]}); {verdict}")
        if ctx is not None:
            ctx.writer.emit(
                SHARD_REQUEUED, seed=seed, wall={"attempt": attempts[seed] + 1}
            )
        log.warning(
            "sweep: requeueing shard seed=%d (attempt %d)", seed, attempts[seed] + 1
        )
        queue.append(seed)

    if ctx is not None:
        for seed in plan.pending:
            ctx.writer.emit(SHARD_SCHEDULED, seed=seed, index=ctx.index[seed])
    while incomplete:
        while queue and len(running) < workers:
            seed = queue.pop(0)
            attempts[seed] += 1
            running[launch(seed)] = seed
        done, _ = wait(running, timeout=poll, return_when=FIRST_COMPLETED)
        for future in done:
            seed = running.pop(future)
            try:
                shard = future.result()
            except _LOST as error:
                # One death breaks a whole pool and fails every attempt
                # in it; each incomplete seed is requeued once.
                if (
                    seed in incomplete
                    and seed not in queue
                    and seed not in running.values()
                ):
                    if ctx is not None:
                        ctx.writer.emit(
                            SHARD_STALLED, seed=seed, wall={"cause": "worker_exit"}
                        )
                    requeue(seed, f"shard seed={seed} lost its worker: {error}")
                continue
            if seed in incomplete:
                incomplete.discard(seed)
                plan.complete(shard)
        if ctx is None:
            continue
        now = time.time()
        ctx.refresh(now)
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
                policy,
            )
            if policy != "log":
                requeue(
                    action.seed,
                    f"shard seed={action.seed} silent for {action.silent_for:.1f} s",
                )


class ProcessPoolBackend(SweepBackend):
    """Local process-pool execution (the historical default)."""

    name = "process"

    def run(self, plan: ShardPlan) -> None:
        if plan.jobs == 1 or len(plan.pending) <= 1:
            # The pool costs more than it buys; fall back to the serial
            # reference path (byte-identical results either way).
            SerialBackend().run(plan)
            return
        ctx = plan.ctx
        workers = min(plan.jobs, len(plan.pending))
        pool = ProcessPoolExecutor(max_workers=workers)

        def launch(seed: int) -> "Future[ShardResult]":
            nonlocal pool
            telemetry = ctx.shard_telemetry(seed) if ctx is not None else None
            args = (plan.spec.with_seed(seed), plan.with_metrics, telemetry)
            try:
                return pool.submit(plan.runner, *args)
            except BrokenProcessPool:
                # A dying worker took the pool down; the requeued shard
                # needs a fresh one.
                pool.shutdown(wait=False)
                pool = ProcessPoolExecutor(max_workers=workers)
                return pool.submit(plan.runner, *args)

        try:
            _supervise(plan, workers, launch)
        finally:
            # Requeued stragglers may still be running; the merge does
            # not wait for their late duplicates.
            pool.shutdown(wait=False)


class SubprocessBackend(SweepBackend):
    """Dispatch shards to standalone worker interpreters, local or SSH.

    Without ``hosts`` every shard runs in a fresh local
    ``python -m repro.parallel.worker`` subprocess — full interpreter
    isolation (no inherited state, no fork pitfalls).  With ``hosts``
    the same worker is launched through ``ssh host <python> -m ...``,
    shards round-robined across the list; the remote interpreters must
    have this repro version importable (the sweep fingerprint carried
    by every shard-store entry catches skew downstream).

    Each attempt runs on a dispatcher thread under the shared
    supervision loop.  The worker's exit status decides what a failure
    is: killed by a signal (or ssh's 255, a lost link) is a lost worker,
    handled by the stall policy; 1 (the shard raised), 2 (the worker
    rejected the task) and an unreadable reply fail the sweep with
    :class:`SweepBackendError`.  When the sweep is journaled, the
    dispatcher thread emits ``shard_heartbeat`` while its worker is
    alive, so a hung but living interpreter is never flagged as stalled.
    """

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
        workers = min(plan.jobs, len(plan.pending))
        slots = itertools.count()
        live: Set[subprocess.Popen[str]] = set()
        stop = threading.Event()
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="sweep-dispatch"
        ) as threads:
            try:
                _supervise(
                    plan,
                    workers,
                    lambda seed: threads.submit(
                        self._attempt, plan, seed, next(slots), live, stop
                    ),
                )
            finally:
                # Leave nothing running: kill every worker still alive;
                # leaving the block joins the threads that reap them.
                stop.set()
                for proc in list(live):
                    proc.kill()

    def _attempt(
        self,
        plan: ShardPlan,
        seed: int,
        slot: int,
        live: Set[subprocess.Popen[str]],
        stop: threading.Event,
    ) -> ShardResult:
        """One attempt of ``seed`` in a worker interpreter (on a thread)."""
        ctx = plan.ctx
        argv, host = self._argv(slot)
        where = {"backend": self.name, "host": host}
        task: Optional[str] = json.dumps(
            {
                "version": TASK_VERSION,
                "spec": spec_to_payload(plan.spec.with_seed(seed)),
                "with_metrics": plan.with_metrics,
            }
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
            raise self._fail(
                plan, seed, f"cannot launch worker {argv[0]!r}: {error}"
            ) from error
        live.add(proc)
        # Teardown sets ``stop`` before it reads ``live``, so a worker
        # started during teardown is killed on one side or the other.
        if stop.is_set():
            proc.kill()
        heartbeat = ctx.telemetry.heartbeat_interval if ctx is not None else None
        while True:
            try:
                out, err = proc.communicate(task, timeout=heartbeat)
                break
            except subprocess.TimeoutExpired:
                task = None  # stdin is sent once
                if ctx is not None:
                    # Dispatcher-side liveness: the worker is still running.
                    ctx.writer.emit(SHARD_HEARTBEAT, seed=seed, wall=dict(where))
        status = proc.returncode
        if status < 0 or (self.hosts and status == 255):
            raise _WorkerLost(f"worker on {host} exited with status {status}")
        if status != 0:
            tail = "; ".join((err or "").strip().splitlines()[-3:])
            raise self._fail(
                plan, seed, f"failed on {host}: {tail or f'exit status {status}'}"
            )
        try:
            reply = json.loads(out)
            if reply.get("version") != TASK_VERSION:
                raise ValueError(f"reply version {reply.get('version')!r}")
            shard = ShardResult.from_payload(reply["shard"])
            reported = reply["wall"]
            worker_wall = {
                "events_per_sec": reported["events_per_sec"],
                "rss_peak_kb": reported["rss_peak_kb"],
            }
        except (ValueError, KeyError, TypeError) as error:
            raise self._fail(plan, seed, f"unparsable reply: {error}") from error
        if shard.seed != seed:
            raise self._fail(plan, seed, f"worker returned seed {shard.seed}")
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
                wall={**where, "wall_time": round(wall_time, 6), **worker_wall},
            )
        return shard

    def _fail(self, plan: ShardPlan, seed: int, detail: str) -> SweepBackendError:
        """Journal ``shard_failed`` for ``seed``; return the error to raise."""
        if plan.ctx is not None:
            plan.ctx.writer.emit(
                SHARD_FAILED,
                seed=seed,
                index=plan.ctx.index[seed],
                error=f"SweepBackendError: {detail}",
            )
        return SweepBackendError(f"backend {self.name}: shard seed={seed} {detail}")


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
