"""Observability: sim-time metrics, error-propagation traces, profiling.

The paper's methodology *is* observability — instrument a running PAN,
collect everything, analyze offline.  This package gives the simulated
stack the same backbone:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram registry; the
  stack's schema lives in :mod:`repro.obs.instruments`.
* :mod:`repro.obs.trace` — spans/events stamped with ``Simulator.now``
  following each injected fault from activation through the stack
  layers to its user-level classification.
* :mod:`repro.obs.profile` — engine profiling via the hook surface on
  :class:`repro.sim.Simulator`.
* :mod:`repro.obs.export` — Prometheus text exposition, trace JSONL,
  and propagation cross-checks against the relationship analysis.
* :mod:`repro.obs.journal` — the sweep run journal: append-only JSONL
  shard lifecycle events with a versioned, determinism-split schema.
* :mod:`repro.obs.campaign` — sweep-level monitoring over the journal:
  live progress/ETA, straggler and stall detection, the watchdog, and
  the ``repro-bt top`` / ``repro-bt report`` renderers.

Everything defaults to off: the active registry/tracer are null
objects, and the engine hook is a single ``None`` check.  Use::

    obs = Observability()
    result = repro.api.run(duration=DAY, seed=7, observability=obs)
    print(obs.metrics_text())
    obs.write_trace("trace.jsonl")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .export import (
    cross_check_relationship,
    full_stack_spans,
    propagation_paths,
    read_trace_jsonl,
    render_prometheus,
    render_propagation_summary,
    write_metrics,
    write_trace_jsonl,
)
from .campaign import (
    SweepMonitor,
    SweepWatchdog,
    monitor_from_journal,
    render_report,
    render_sweep_openmetrics,
    render_top,
    write_sweep_textfile,
)
from .instruments import StackInstruments, stack_instruments
from .journal import (
    JournalReader,
    JournalWriter,
    NullJournal,
    NULL_JOURNAL,
    ShardTelemetry,
    SweepTelemetry,
    canonical_journal,
    read_journal,
    validate_journal,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    get_registry,
    set_registry,
)
from .profile import EngineProfiler
from .trace import (
    NullTracer,
    NULL_TRACER,
    Span,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
)


class Observability:
    """One campaign's observability bundle: registry + tracer + profiler.

    Construct with the pieces you want (all on by default), then pass to
    :func:`repro.api.run` — or use :meth:`activate` directly around any
    simulation you drive yourself.
    """

    def __init__(
        self,
        metrics: bool = True,
        tracing: bool = True,
        profiling: bool = True,
        trace_limit: int = 200_000,
    ) -> None:
        self.registry = MetricsRegistry() if metrics else NULL_REGISTRY
        self.tracer = Tracer(max_records=trace_limit) if tracing else NULL_TRACER
        self.profiler: Optional[EngineProfiler] = (
            EngineProfiler() if profiling else None
        )

    @contextmanager
    def activate(self, sim=None):
        """Make this bundle the process-wide active observability.

        Installs the registry and tracer as the active ones, wires the
        tracer's clock and the profiler onto ``sim`` (when given), and
        restores everything on exit — activations nest safely.
        """
        previous_registry = set_registry(self.registry)
        previous_tracer = set_tracer(self.tracer)
        if sim is not None:
            self.tracer.set_clock(lambda: sim.now)
            if self.profiler is not None:
                self.profiler.attach(sim)
        try:
            yield self
        finally:
            if sim is not None and self.profiler is not None:
                self.profiler.detach(sim)
            set_registry(previous_registry)
            set_tracer(previous_tracer)

    # -- export shortcuts ------------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition (metrics + engine series)."""
        return render_prometheus(self.registry, profiler=self.profiler)

    def write_metrics(self, path):
        """Write the Prometheus exposition to ``path``."""
        return write_metrics(self.registry, path, profiler=self.profiler)

    def write_trace(self, path):
        """Write the trace as JSONL to ``path``."""
        return write_trace_jsonl(self.tracer, path)


__all__ = [
    "Observability",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceEvent",
    "EngineProfiler",
    "StackInstruments",
    "stack_instruments",
    "get_registry",
    "set_registry",
    "get_tracer",
    "set_tracer",
    "render_prometheus",
    "render_propagation_summary",
    "write_metrics",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "propagation_paths",
    "full_stack_spans",
    "cross_check_relationship",
    "JournalWriter",
    "JournalReader",
    "NullJournal",
    "NULL_JOURNAL",
    "SweepTelemetry",
    "ShardTelemetry",
    "read_journal",
    "validate_journal",
    "canonical_journal",
    "SweepMonitor",
    "SweepWatchdog",
    "monitor_from_journal",
    "render_top",
    "render_report",
    "render_sweep_openmetrics",
    "write_sweep_textfile",
]
