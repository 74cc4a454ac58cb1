"""Discrete-event simulation engine.

The engine is a deterministic, single-threaded event loop over a binary
heap of timestamped events.  Simulated time is a float number of seconds.
Determinism is guaranteed by a monotonically increasing sequence number
used as a tie-breaker for events scheduled at the same instant.

The engine knows nothing about Bluetooth; it only runs callbacks and
generator-based processes (see :mod:`repro.sim.process`).  The hot loop
is tuned for campaign-scale runs (hundreds of thousands of events):

* Heap entries are plain ``(time, priority, seq, event)`` tuples, so the
  heap siftup/siftdown comparisons run entirely in C — no Python-level
  ``__lt__`` is ever invoked on an event.
* Events carry ``__slots__`` and the engine keeps a **free-list**:
  one-shot events flagged as recyclable (the process-timeout fast path,
  :meth:`Simulator._schedule_timeout`) are returned to the free-list as
  they are popped and reused by later schedules instead of reallocated.
* :meth:`Simulator.schedule_periodic` arms a timer-wheel-style periodic
  event that **re-arms itself in place** — the same event object is
  re-stamped with the next deadline and re-pushed, so a daemon that
  fires every N seconds allocates nothing per firing.
* :meth:`Simulator.run` / :meth:`Simulator.run_until` pop events in one
  pass: cancelled events are drained as they surface at the heap head,
  without the historical ``peek()``/``step()`` double re-scan.

Two observability affordances are built in, both free when unused:

* ``len(sim)`` / :meth:`Simulator.pending_events` are O(1) and count
  only *live* events — cancelled-but-unpopped events (which linger in
  the heap until their turn) are tracked separately via
  :attr:`Simulator.cancelled_pending`, so queue-depth metrics do not
  over-report.
* :meth:`Simulator.set_profiler` installs a profiling hook (see
  :class:`repro.obs.profile.EngineProfiler`); when none is installed
  the hot loop pays a single ``is None`` check per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter  # repro: allow[DET002] profiler hook wall time; never feeds sim time
from typing import Callable, Dict, List, Optional, Protocol, Tuple


class ProfilerHook(Protocol):
    """Structural type of an engine profiling hook (see repro.obs.profile)."""

    def record(
        self, callback: Callable[[], None], wall_seconds: float, queue_depth: int
    ) -> None:
        """Account one executed event."""


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class EventHandle:
    """One scheduled event, doubling as the handle that can cancel it.

    The heap itself stores ``(time, priority, seq, event)`` tuples (so
    ordering is decided by C tuple comparison); this object carries the
    mutable state — the callback and the cancellation flag.

    Cancellation is O(1): the event is flagged and skipped when popped.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "cancelled",
        "popped",
        "_recycle",
        "_sim",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Optional[Callable[[], None]],
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.popped = False
        self._recycle = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event's callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Only events still in the heap count as cancelled-but-unpopped;
        # cancelling after the event already ran changes nothing.
        if self._sim is not None and not self.popped:
            self._sim._cancelled += 1


#: Backwards-compatible alias: the scheduled event *is* the handle now.
_ScheduledEvent = EventHandle


class PeriodicHandle:
    """Handle to a :meth:`Simulator.schedule_periodic` timer.

    The underlying event object is reused across firings (re-stamped
    with the next deadline and re-pushed before the callback runs), so
    a periodic daemon allocates no event objects after arming.
    ``cancel()`` stops all future firings; it is idempotent and safe to
    call from inside the callback itself.
    """

    __slots__ = ("_sim", "_event", "interval", "callback", "priority", "_active")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        priority: int,
        first_time: float,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self.callback = callback
        self.priority = priority
        self._active = True
        self._event = sim._push_event(first_time, self._fire, priority)

    @property
    def active(self) -> bool:
        """Whether the timer will keep firing."""
        return self._active

    def cancel(self) -> None:
        """Stop future firings.  Idempotent."""
        if not self._active:
            return
        self._active = False
        self._event.cancel()

    def _fire(self) -> None:
        # Re-arm *before* running the callback (drift-free: next deadline
        # is previous deadline + interval) so the callback can cancel the
        # already-armed next firing via the ordinary cancel path.
        sim = self._sim
        event = self._event
        event.time += self.interval
        event.seq = sim._seq = sim._seq + 1
        event.popped = False
        heappush(sim._queue, (event.time, event.priority, event.seq, event))
        self.callback()


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, lambda: print("hello at t=5"))
        sim.run_until(10.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled = 0  # cancelled events still lingering in the heap
        self._free: List[EventHandle] = []  # recyclable event free-list
        self._profiler: Optional[ProfilerHook] = None
        # Live processes, in spawn order: each holds its own resume
        # method, so only :meth:`close` can let go of it.
        self._processes: Dict[object, None] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def _push_event(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int,
        recycle: bool = False,
    ) -> EventHandle:
        """Allocate (or reuse) an event and push it onto the heap."""
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.cancelled = False
            event.popped = False
            event._recycle = recycle
        else:
            event = EventHandle(time, priority, seq, callback, self)
            event._recycle = recycle
        heappush(self._queue, (time, priority, seq, event))
        return event

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``priority`` breaks ties between events at the same instant; lower
        runs first.  Returns a handle that can cancel the event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self._push_event(self._now + delay, callback, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        return self._push_event(time, callback, priority)

    def _schedule_timeout(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Process-timeout fast path: the event is recycled after it pops.

        Only :class:`repro.sim.process.Process` uses this — it drops its
        reference to the handle the moment the event fires (or is
        cancelled), which is what makes reuse safe.  ``delay`` must be
        non-negative (the caller has validated it).  The body is
        :meth:`_push_event` inlined (priority 0, recycle on): this runs
        once per process timeout, the hottest schedule in a campaign.
        """
        time = self._now + delay
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = 0
            event.seq = seq
            event.callback = callback
            event.cancelled = False
            event.popped = False
            event._recycle = True
        else:
            event = EventHandle(time, 0, seq, callback, self)
            event._recycle = True
        heappush(self._queue, (time, 0, seq, event))
        return event

    def _schedule_timeout_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Absolute-deadline variant of :meth:`_schedule_timeout`.

        Backs :class:`repro.sim.process.SleepUntil`: a process that has
        pre-computed a chain of consecutive delays sleeps once until the
        final instant instead of waking at every intermediate deadline.
        The caller is responsible for deriving ``time`` with the same
        float additions the individual waits would have performed, which
        keeps the wake instant bit-identical.  ``time`` must not lie in
        the past (callers chain forward from ``now``).
        """
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = 0
            event.seq = seq
            event.callback = callback
            event.cancelled = False
            event.popped = False
            event._recycle = True
        else:
            event = EventHandle(time, 0, seq, callback, self)
            event._recycle = True
        heappush(self._queue, (time, 0, seq, event))
        return event

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], None],
        priority: int = 0,
        first_delay: Optional[float] = None,
    ) -> PeriodicHandle:
        """Run ``callback`` every ``interval`` simulated seconds, forever.

        The first firing happens ``first_delay`` seconds from now
        (default: one full ``interval``); subsequent deadlines are
        drift-free (``previous + interval``, regardless of callback
        cost).  The timer re-arms by reusing its single event object —
        no allocation per firing.  Returns a :class:`PeriodicHandle`
        whose ``cancel()`` stops the timer.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        if first_delay is None:
            first_delay = interval
        if first_delay < 0:
            raise SimulationError(f"cannot schedule {first_delay} s in the past")
        return PeriodicHandle(
            self, interval, callback, priority, self._now + first_delay
        )

    # -- run control -------------------------------------------------------

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def set_profiler(self, profiler: Optional[ProfilerHook]) -> None:
        """Install (or, with None, remove) the event-loop profiling hook.

        The profiler must expose ``record(callback, wall_seconds,
        queue_depth)``; see :class:`repro.obs.profile.EngineProfiler`.
        With no profiler installed the loop pays one ``is None`` check.
        """
        self._profiler = profiler

    @property
    def profiler(self) -> Optional[ProfilerHook]:
        """The installed profiling hook, or None."""
        return self._profiler

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        Cancelled events surfacing at the heap head are drained (and
        recycled) on the way, so a subsequent pop is O(log n) with no
        re-scan.
        """
        queue = self._queue
        while queue:
            event = queue[0][3]
            if not event.cancelled:
                return queue[0][0]
            heappop(queue)
            event.popped = True
            self._cancelled -= 1
            if event._recycle:
                event.callback = None
                self._free.append(event)
        return None

    def _pop_live(self) -> Optional[Tuple[float, Callable[[], None]]]:
        """Pop the next live event, draining cancelled ones in one pass.

        Returns ``(time, callback)``, with the event already recycled
        when eligible, or None if the queue is empty.
        """
        queue = self._queue
        free = self._free
        while queue:
            entry = heappop(queue)
            event = entry[3]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                if event._recycle:
                    event.callback = None
                    free.append(event)
                continue
            callback = event.callback
            if event._recycle:
                event.callback = None
                free.append(event)
            assert callback is not None
            return entry[0], callback
        return None

    def step(self) -> bool:
        """Run the single next event.  Returns False if the queue was empty."""
        popped = self._pop_live()
        if popped is None:
            return False
        self._now = popped[0]
        callback = popped[1]
        profiler = self._profiler
        if profiler is None:
            callback()
        else:
            started = perf_counter()
            callback()
            profiler.record(
                callback,
                perf_counter() - started,
                len(self._queue) - self._cancelled,
            )
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue is empty (or ``max_events`` processed).

        Returns the number of events processed.
        """
        self._stopped = False
        count = 0
        pop_live = self._pop_live
        while not self._stopped:
            if max_events is not None and count >= max_events:
                break
            popped = pop_live()
            if popped is None:
                break
            self._now = popped[0]
            callback = popped[1]
            profiler = self._profiler
            if profiler is None:
                callback()
            else:
                started = perf_counter()
                callback()
                profiler.record(
                    callback,
                    perf_counter() - started,
                    len(self._queue) - self._cancelled,
                )
            count += 1
        return count

    def run_until(self, time: float) -> int:
        """Run all events up to and including simulated ``time``.

        The clock is advanced to exactly ``time`` afterwards, even if the
        last event fired earlier.  Returns the number of events processed.

        This is the campaign hot loop: events (and any cancelled events
        shadowing them at the heap head) are popped in a single pass —
        no separate ``peek()``/``step()`` head re-scans.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to t={time} (now is t={self._now})"
            )
        self._stopped = False
        count = 0
        queue = self._queue
        free = self._free
        # The profiler is attached before the run starts (or not at
        # all), so it is loop-invariant here.
        profiler = self._profiler
        while not self._stopped and queue:
            if queue[0][0] > time:
                break
            entry = heappop(queue)
            event = entry[3]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                if event._recycle:
                    event.callback = None
                    free.append(event)
                continue
            callback = event.callback
            if event._recycle:
                event.callback = None
                free.append(event)
            self._now = entry[0]
            if profiler is None:
                callback()
            else:
                started = perf_counter()
                callback()
                profiler.record(
                    callback,
                    perf_counter() - started,
                    len(queue) - self._cancelled,
                )
            count += 1
        if time > self._now:
            self._now = time
        return count

    def close(self) -> None:
        """Tear the simulator down so its object graph dies by reference counting.

        Every live process stops and drops its generator, every queued
        event loses its callback, and the queue and free-list empty.
        That breaks the reference cycles a run leaves behind (a process
        and its own resume method, a queued event and the process it
        resumes, a periodic timer and its event, events and the
        simulator), so dropping the last reference to the simulator, its
        processes and its owners frees them at once instead of waiting
        for a full cyclic collection.  The simulator cannot run again.
        """
        processes = list(self._processes)
        self._processes.clear()
        for process in processes:
            process._release()  # type: ignore[attr-defined]
        for entry in self._queue:
            event = entry[3]
            event.callback = None
            event._sim = None
        for event in self._free:
            event._sim = None
        self._queue.clear()
        self._free.clear()
        self._cancelled = 0
        self._profiler = None

    # -- accounting --------------------------------------------------------

    def pending_events(self) -> int:
        """Number of non-cancelled events still queued.  O(1)."""
        return len(self._queue) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still lingering in the heap (not yet popped)."""
        return self._cancelled

    @property
    def free_list_size(self) -> int:
        """Recyclable event objects currently parked on the free-list."""
        return len(self._free)

    def __len__(self) -> int:
        """Live (non-cancelled) events still queued."""
        return self.pending_events()


__all__ = [
    "Simulator",
    "EventHandle",
    "PeriodicHandle",
    "ProfilerHook",
    "SimulationError",
]
