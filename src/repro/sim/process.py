"""Generator-based simulation processes.

A *process* is a Python generator driven by the simulator.  It models a
concurrent activity (a workload client, a daemon, a protocol timer) that
repeatedly waits — for time to pass or for an event to fire — and then
acts.  Processes yield:

* :class:`Timeout` — resume after a simulated delay;
* :class:`SimEvent` — resume when the event is triggered (receiving its
  value, or having its exception thrown in);
* another :class:`Process` — resume when it terminates (receiving its
  return value, or re-raising its failure).

Processes can be interrupted (:meth:`Process.interrupt`), which throws
:class:`Interrupt` inside the generator at its current wait point — used
to model recovery actions tearing down an in-flight workload cycle.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from .engine import EventHandle, Simulator


class Interrupt(Exception):
    """Thrown inside a process generator when it is interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Yieldable: suspend the process for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class SleepUntil:
    """Yieldable: suspend the process until absolute simulated ``time``.

    This is the vehicle for *wait chaining*: a sequence of consecutive
    waits with nothing externally observable between them collapses into
    one wake-up at the final deadline.  The caller must accumulate the
    deadline with the same float additions the individual waits would
    have performed (``deadline = now; deadline += d1; deadline += d2``),
    which makes the final instant bit-identical to the step-by-step
    schedule — the event count drops, the timeline does not move.
    """

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time

    def __repr__(self) -> str:
        return f"SleepUntil({self.time!r})"


class SimEvent:
    """A one-shot event that processes can wait on.

    Trigger it with :meth:`succeed` (delivering a value) or :meth:`fail`
    (throwing an exception into every waiter).
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._waiters: List["Process"] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully, waking all waiters."""
        self._trigger(value=value)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with an exception, thrown into all waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(exception=exception)
        return self

    def _trigger(
        self, value: Any = None, exception: Optional[BaseException] = None
    ) -> None:
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self._exception = exception
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            # Wake each waiter at the current instant, preserving order.
            self._sim.schedule(0.0, lambda p=proc: p._resume_from_event(self))

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            self._sim.schedule(0.0, lambda: proc._resume_from_event(self))
        else:
            self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)


class Process:
    """A running simulation process wrapping a generator.

    Completed processes expose :attr:`alive`, :attr:`result` and
    :attr:`exception`.  Waiting on a finished process resumes
    immediately.
    """

    def __init__(self, sim: Simulator, generator: Generator, name: str = "") -> None:
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._alive = True
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._waiters: List["Process"] = []
        self._pending_timeout: Optional[EventHandle] = None
        self._waiting_on: Optional[SimEvent] = None
        self._waiting_on_proc: Optional["Process"] = None
        # One bound-method object reused for every timeout resume — the
        # per-wait lambda allocation is the single hottest allocation in
        # a campaign, so it is hoisted to construction time.  A timeout
        # resumes the generator with None, which is _step_send's default,
        # so the engine calls _step_send directly (no wrapper frame).
        self._on_timeout = self._step_send
        sim._processes[self] = None
        # Start the process at the current instant.  The start event is
        # recyclable: nothing holds its handle, it can never be cancelled.
        sim._schedule_timeout(0.0, self._on_timeout)

    # -- public API ------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (None until finished)."""
        return self._result

    @property
    def exception(self) -> Optional[BaseException]:
        """Exception that terminated the process, if any."""
        return self._exception

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        No-op on a finished process.
        """
        if not self._alive:
            return
        self._cancel_wait()
        self._sim.schedule(
            0.0, lambda: self._step_throw(Interrupt(cause)), priority=-1
        )

    # -- kernel ----------------------------------------------------------

    def _cancel_wait(self) -> None:
        if self._pending_timeout is not None:
            self._pending_timeout.cancel()
            self._pending_timeout = None
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
        if self._waiting_on_proc is not None:
            self._waiting_on_proc._waiters_remove(self)
            self._waiting_on_proc = None

    def _waiters_remove(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    def _resume_from_event(self, event: SimEvent) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        if event._exception is not None:
            self._step_throw(event._exception)
        else:
            self._step_send(event._value)

    def _resume_from_process(self, proc: "Process") -> None:
        if not self._alive:
            return
        self._waiting_on_proc = None
        if proc._exception is not None:
            self._step_throw(proc._exception)
        else:
            self._step_send(proc._result)

    def _step_send(self, value: Any = None) -> None:
        if not self._alive:
            return
        self._pending_timeout = None
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._finish(exception=exc)
            return
        # Inlined Timeout fast path (~95% of waits): everything else
        # falls through to the generic dispatcher.
        if type(yielded) is Timeout:
            self._pending_timeout = self._sim._schedule_timeout(
                yielded.delay, self._on_timeout
            )
            return
        if type(yielded) is SleepUntil:
            self._pending_timeout = self._sim._schedule_timeout_at(
                yielded.time, self._on_timeout
            )
            return
        self._wait_on(yielded)

    def _step_throw(self, exception: BaseException) -> None:
        if not self._alive:
            return
        self._pending_timeout = None
        try:
            yielded = self._gen.throw(exception)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._finish(exception=exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        # Timeout is ~95% of all waits in a campaign: exact-type check
        # first, then the recyclable-event fast path with the prebound
        # resume method (no lambda, no new event object in steady state).
        if type(yielded) is Timeout:
            delay = yielded.delay
            # Timeout.__init__ validated delay >= 0.
            self._pending_timeout = self._sim._schedule_timeout(
                delay, self._on_timeout
            )
        elif type(yielded) is SleepUntil:
            self._pending_timeout = self._sim._schedule_timeout_at(
                yielded.time, self._on_timeout
            )
        elif isinstance(yielded, SimEvent):
            self._waiting_on = yielded
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            if yielded._alive:
                self._waiting_on_proc = yielded
                yielded._waiters.append(self)
            else:
                self._sim.schedule(0.0, lambda: self._resume_from_process(yielded))
                self._waiting_on_proc = yielded
        elif isinstance(yielded, Timeout):  # Timeout subclass (rare)
            self._pending_timeout = self._sim._schedule_timeout(
                yielded.delay, self._on_timeout
            )
        else:
            self._step_throw(
                TypeError(f"process yielded unsupported value: {yielded!r}")
            )

    def _release(self) -> None:
        """Stop for good and drop the generator (:meth:`Simulator.close`).

        Breaks the cycles through this process — its own resume method,
        and the generator frame whose locals reach back to the objects
        (events, connections) that hold the process.
        """
        self._alive = False
        self._on_timeout = None  # type: ignore[assignment]
        self._gen = None  # type: ignore[assignment]
        self._pending_timeout = None
        self._waiting_on = None
        self._waiting_on_proc = None
        self._waiters = []

    def _finish(
        self, result: Any = None, exception: Optional[BaseException] = None
    ) -> None:
        self._alive = False
        # A finished process never waits again: dropping its resume
        # method ends the only cycle through it.
        self._on_timeout = None  # type: ignore[assignment]
        self._sim._processes.pop(self, None)
        self._result = result
        self._exception = exception
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim.schedule(0.0, lambda p=proc: p._resume_from_process(self))
        # An exception with no waiters would otherwise vanish silently.
        if exception is not None and not waiters and not isinstance(exception, Interrupt):
            raise exception


def spawn(sim: Simulator, generator: Generator, name: str = "") -> Process:
    """Start ``generator`` as a process on ``sim``."""
    return Process(sim, generator, name=name)


__all__ = ["Process", "SimEvent", "Timeout", "SleepUntil", "Interrupt", "spawn"]
