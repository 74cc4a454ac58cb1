"""Engine profiling: where does the simulator's wall time go?

The campaign's cost is dominated by the discrete-event hot loop
(``benchmarks/results/simulator_throughput.txt``), so the profiler
hangs off the engine's hook surface (:meth:`repro.sim.Simulator.set_profiler`)
and measures the loop from inside: events popped per wall second,
callback wall-time aggregated by callsite, and the queue-depth
high-water mark.  The hook is a single ``is not None`` check per event
when detached, keeping the disabled-mode overhead inside the 5 % budget
the overhead benchmark enforces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


def callsite_of(callback: Callable) -> str:
    """A stable human-readable key for a callback (module-level cheap)."""
    func = getattr(callback, "__func__", callback)
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        return repr(callback)
    module = getattr(func, "__module__", "") or ""
    return f"{module.rsplit('.', 1)[-1]}.{qualname}" if module else qualname


@dataclass
class CallsiteStats:
    """Aggregate wall-time of one callback callsite."""

    calls: int = 0
    seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        """Mean callback duration in microseconds."""
        return 1e6 * self.seconds / self.calls if self.calls else 0.0


class EngineProfiler:
    """Measures the event loop via the engine's profiler hook.

    Attach with :meth:`attach` (or ``sim.set_profiler(profiler)``); the
    engine then reports every executed callback through :meth:`record`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.events_processed = 0
        self.callback_seconds = 0.0
        self.queue_depth_hwm = 0
        self.by_callsite: Dict[str, CallsiteStats] = {}
        self._attached_at: Optional[float] = None
        self.wall_seconds = 0.0

    # -- lifecycle -------------------------------------------------------------

    def attach(self, sim) -> None:
        """Install this profiler on ``sim`` and start the wall clock."""
        sim.set_profiler(self)
        self._attached_at = self._clock()

    def detach(self, sim) -> None:
        """Remove this profiler from ``sim`` and stop the wall clock."""
        sim.set_profiler(None)
        if self._attached_at is not None:
            self.wall_seconds += self._clock() - self._attached_at
            self._attached_at = None

    # -- the hook the engine calls ---------------------------------------------

    def record(self, callback: Callable, seconds: float, queue_depth: int) -> None:
        """One executed event: its callback, wall time and queue depth."""
        self.events_processed += 1
        self.callback_seconds += seconds
        if queue_depth > self.queue_depth_hwm:
            self.queue_depth_hwm = queue_depth
        key = callsite_of(callback)
        stats = self.by_callsite.get(key)
        if stats is None:
            stats = CallsiteStats()
            self.by_callsite[key] = stats
        stats.calls += 1
        stats.seconds += seconds

    # -- derived views -----------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Wall seconds observed so far (running total while attached)."""
        if self._attached_at is not None:
            return self.wall_seconds + (self._clock() - self._attached_at)
        return self.wall_seconds

    def events_per_second(self) -> float:
        """Events popped per wall second over the attached period."""
        elapsed = self.elapsed
        return self.events_processed / elapsed if elapsed > 0 else 0.0

    def top_callsites(self, n: int = 10) -> List[Tuple[str, CallsiteStats]]:
        """The ``n`` callsites with the most aggregate wall time."""
        ranked = sorted(
            self.by_callsite.items(), key=lambda kv: kv[1].seconds, reverse=True
        )
        return ranked[:n]

    def render(self, n: int = 10) -> str:
        """A plain-text profile report."""
        lines = [
            "Engine profile",
            "--------------",
            f"events processed     : {self.events_processed}",
            f"events per wall sec  : {self.events_per_second():,.0f}",
            f"callback wall time   : {self.callback_seconds:.3f} s",
            f"queue depth high-water: {self.queue_depth_hwm}",
        ]
        if self.by_callsite:
            lines.append("top callsites (by wall time):")
            for key, stats in self.top_callsites(n):
                lines.append(
                    f"  {key:<48} {stats.calls:>8} calls  "
                    f"{1e3 * stats.seconds:>9.1f} ms  {stats.mean_us:>7.1f} us/call"
                )
        return "\n".join(lines)


__all__ = ["EngineProfiler", "CallsiteStats", "callsite_of"]
