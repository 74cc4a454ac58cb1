"""Sweep-level observability: live monitor, watchdog, renderers.

:class:`SweepMonitor` folds run-journal events (see
:mod:`repro.obs.journal`) into per-shard state and aggregate views —
progress, ETA, throughput percentiles, stragglers and stalls.  It is
pure with respect to time: every method that needs "now" takes it as an
argument, so the monitor works identically over a live tail and a
finished journal, and is trivially testable.

:class:`SweepWatchdog` wraps a monitor with a heartbeat deadline and
turns silence into actions for the orchestrator
(:mod:`repro.parallel.sweep`) to apply per policy: ``log``, ``requeue``
or ``abort``.

The renderers are the CLI surfaces: :func:`render_top` is the
single-screen live status (``repro-bt top``), :func:`render_report` the
post-mortem timeline/straggler view (``repro-bt report <dir>``), and
:func:`render_sweep_openmetrics` / :func:`write_sweep_textfile` the
OpenMetrics textfile exporter for scraping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from . import journal as jn

#: Shard lifecycle states the monitor tracks.
PENDING = "pending"
SCHEDULED = "scheduled"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
STALLED = "stalled"
REQUEUED = "requeued"

#: States that still expect forward progress.
_LIVE_STATES = (RUNNING, STALLED)


@dataclass
class ShardView:
    """Everything the journal has said about one shard so far."""

    seed: int
    index: int = -1
    status: str = PENDING
    #: Wall timestamps from the envelope (None until seen).
    scheduled_ts: Optional[float] = None
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    #: Last envelope timestamp of *any* event from this shard.
    last_seen_ts: Optional[float] = None
    #: Sim-time progress (from progress events / completion).
    sim_time: float = 0.0
    frac: float = 0.0
    #: Completion payload.
    wall_time: Optional[float] = None
    events_per_sec: Optional[float] = None
    rss_peak_kb: Optional[int] = None
    total_items: Optional[int] = None
    error: Optional[str] = None
    reused: bool = False
    #: Served byte-identical from the content-addressed shard cache.
    cached: bool = False
    attempts: int = 0
    heartbeats: int = 0

    def silent_for(self, now: float) -> Optional[float]:
        """Seconds since this shard was last heard from (None if never)."""
        if self.last_seen_ts is None:
            return None
        return max(0.0, now - self.last_seen_ts)

    def running_for(self, now: float) -> Optional[float]:
        """Wall seconds from start to finish-or-now (None if unstarted)."""
        if self.started_ts is None:
            return None
        end = self.finished_ts if self.finished_ts is not None else now
        return max(0.0, end - self.started_ts)


class SweepMonitor:
    """Aggregate live view of one sweep, folded from journal events.

    Feed it events with :meth:`feed` (e.g. from
    :class:`repro.obs.journal.JournalReader.poll`); a ``sweep_started``
    event resets the state, so tailing a journal that holds several
    (resumed) sweep runs always reflects the latest one.
    """

    def __init__(self) -> None:
        self.fingerprint: Optional[str] = None
        self.root_seed: Optional[int] = None
        self.expected: List[int] = []
        self.shards: Dict[int, ShardView] = {}
        self.started_ts: Optional[float] = None
        self.finished: bool = False
        self.aborted: Optional[str] = None
        self.events_seen: int = 0

    # -- folding -------------------------------------------------------------

    def feed(self, events: Iterable[dict]) -> "SweepMonitor":
        for event in events:
            self.observe(event)
        return self

    def _shard(self, seed: int) -> ShardView:
        view = self.shards.get(seed)
        if view is None:
            view = ShardView(seed=seed)
            self.shards[seed] = view
            if seed not in self.expected:
                self.expected.append(seed)
        return view

    def observe(self, event: dict) -> None:
        """Fold one journal event into the monitor state."""
        if not isinstance(event, dict):
            return
        kind = event.get("event")
        if kind not in jn.EVENT_SCHEMA:
            return
        self.events_seen += 1
        wall = event.get("wall") or {}
        ts = wall.get("ts")
        if kind == jn.SWEEP_STARTED:
            self.__init__()  # a new run re-keys the whole view
            self.fingerprint = event.get("fp")
            self.root_seed = event.get("root_seed")
            self.expected = [int(seed) for seed in event.get("seeds", [])]
            self.started_ts = ts
            for seed in self.expected:
                self.shards[seed] = ShardView(seed=seed)
            self.events_seen = 1
            return
        if kind == jn.SWEEP_COMPLETED:
            self.finished = True
            return
        if kind == jn.SWEEP_ABORTED:
            self.finished = True
            self.aborted = str(event.get("reason", "aborted"))
            return

        seed = event.get("seed")
        if not isinstance(seed, int):
            return
        view = self._shard(seed)
        if ts is not None:
            view.last_seen_ts = ts
        if kind == jn.SHARD_SCHEDULED:
            view.status = SCHEDULED
            view.index = int(event.get("index", view.index))
            view.scheduled_ts = ts
        elif kind == jn.SHARD_STARTED:
            view.status = RUNNING
            view.index = int(event.get("index", view.index))
            view.started_ts = ts
            view.attempts += 1
        elif kind == jn.SHARD_HEARTBEAT:
            view.heartbeats += 1
            if view.status in (SCHEDULED, STALLED):
                view.status = RUNNING
            sim_time = wall.get("sim_time")
            if isinstance(sim_time, (int, float)):
                view.sim_time = max(view.sim_time, float(sim_time))
            rss = wall.get("rss_peak_kb")
            if isinstance(rss, int):
                view.rss_peak_kb = rss
        elif kind == jn.SHARD_PROGRESS:
            if view.status in (SCHEDULED, STALLED):
                view.status = RUNNING
            view.sim_time = max(view.sim_time, float(event.get("sim_time", 0.0)))
            view.frac = max(view.frac, float(event.get("frac", 0.0)))
        elif kind == jn.SHARD_COMPLETED:
            view.status = COMPLETED
            view.index = int(event.get("index", view.index))
            view.finished_ts = ts
            view.frac = 1.0
            view.sim_time = float(event.get("duration", view.sim_time))
            view.total_items = int(event.get("total_items", 0))
            wall_time = wall.get("wall_time")
            if isinstance(wall_time, (int, float)):
                view.wall_time = float(wall_time)
            eps = wall.get("events_per_sec")
            if isinstance(eps, (int, float)):
                view.events_per_sec = float(eps)
            rss = wall.get("rss_peak_kb")
            if isinstance(rss, int):
                view.rss_peak_kb = rss
            if wall.get("reused"):
                view.reused = True
        elif kind == jn.SHARD_FAILED:
            view.status = FAILED
            view.finished_ts = ts
            view.error = str(event.get("error", ""))
        elif kind == jn.SHARD_STALLED:
            if view.status in _LIVE_STATES:
                view.status = STALLED
        elif kind == jn.SHARD_REQUEUED:
            view.status = REQUEUED
        elif kind == jn.SHARD_CACHE_HIT:
            view.cached = True
            view.index = int(event.get("index", view.index))

    # -- aggregate views -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Shard count per lifecycle state."""
        out: Dict[str, int] = {}
        for view in self.shards.values():
            out[view.status] = out.get(view.status, 0) + 1
        return out

    def completed(self) -> List[ShardView]:
        return [v for v in self._ordered() if v.status == COMPLETED]

    def progress(self) -> float:
        """Aggregate sweep progress in [0, 1]."""
        if not self.shards:
            return 0.0
        total = 0.0
        for view in self.shards.values():
            total += 1.0 if view.status == COMPLETED else min(view.frac, 1.0)
        return total / len(self.shards)

    def eta_seconds(self, now: float) -> Optional[float]:
        """Naive ETA from aggregate progress rate (None before any)."""
        if self.started_ts is None or self.finished:
            return None
        progress = self.progress()
        elapsed = max(0.0, now - self.started_ts)
        if progress <= 0.0 or elapsed <= 0.0:
            return None
        if progress >= 1.0:
            return 0.0
        return elapsed * (1.0 - progress) / progress

    def throughput_percentiles(self) -> Dict[str, float]:
        """p50/p90/max of completed shards' events/sec (empty if none)."""
        rates = sorted(
            v.events_per_sec
            for v in self.shards.values()
            if v.status == COMPLETED and v.events_per_sec is not None
        )
        if not rates:
            return {}

        def pick(fraction: float) -> float:
            index = min(len(rates) - 1, int(fraction * (len(rates) - 1) + 0.5))
            return rates[index]

        return {"p50": pick(0.5), "p90": pick(0.9), "max": rates[-1]}

    def stalled(self, now: float, deadline: float) -> List[ShardView]:
        """Started-but-silent shards past the heartbeat deadline."""
        out = []
        for view in self._ordered():
            if view.status not in _LIVE_STATES:
                continue
            silent = view.silent_for(now)
            if silent is not None and silent > deadline:
                out.append(view)
        return out

    def stragglers(self, now: float, factor: float = 2.0) -> List[ShardView]:
        """Running shards slower than ``factor`` x the median completed wall."""
        walls = sorted(
            v.wall_time
            for v in self.shards.values()
            if v.status == COMPLETED and v.wall_time is not None and not v.reused
        )
        if not walls:
            return []
        median = walls[len(walls) // 2]
        out = []
        for view in self._ordered():
            if view.status not in _LIVE_STATES:
                continue
            running = view.running_for(now)
            if running is not None and running > factor * median:
                out.append(view)
        return out

    def _ordered(self) -> List[ShardView]:
        return [self.shards[seed] for seed in self.expected if seed in self.shards]


def monitor_from_journal(path: Union[str, Path]) -> SweepMonitor:
    """A monitor folded over every event currently in a journal file."""
    return SweepMonitor().feed(jn.read_journal(path))


# -- watchdog ----------------------------------------------------------------


@dataclass(frozen=True)
class WatchdogAction:
    """One verdict of a watchdog check: a shard went silent."""

    seed: int
    silent_for: float
    attempt: int


class SweepWatchdog:
    """Flags started shards whose heartbeat went silent past a deadline.

    ``check`` returns each (seed, attempt) at most once, so the
    orchestrator can apply its policy exactly once per stall; a shard
    that is requeued (new attempt) becomes eligible for flagging again.
    """

    def __init__(self, monitor: SweepMonitor, deadline: float) -> None:
        if deadline <= 0:
            raise ValueError("watchdog deadline must be positive")
        self.monitor = monitor
        self.deadline = deadline
        self._flagged: set = set()

    def check(self, now: float) -> List[WatchdogAction]:
        """Newly stalled shards as of ``now`` (each attempt once)."""
        actions = []
        for view in self.monitor.stalled(now, self.deadline):
            key = (view.seed, view.attempts)
            if key in self._flagged:
                continue
            self._flagged.add(key)
            actions.append(
                WatchdogAction(
                    seed=view.seed,
                    silent_for=view.silent_for(now) or 0.0,
                    attempt=view.attempts,
                )
            )
        return actions


# -- rendering ---------------------------------------------------------------

_STATUS_GLYPH = {
    PENDING: ".",
    SCHEDULED: "~",
    RUNNING: ">",
    COMPLETED: "#",
    FAILED: "!",
    STALLED: "?",
    REQUEUED: "r",
}


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(max(0.0, seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes:02d}:{secs:02d}"


def _fmt_rate(rate: Optional[float]) -> str:
    if rate is None:
        return "-"
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.0f}k"
    return f"{rate:.0f}"


def _progress_bar(fraction: float, width: int = 24) -> str:
    filled = int(round(min(1.0, max(0.0, fraction)) * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_top(
    monitor: SweepMonitor,
    now: float,
    deadline: Optional[float] = None,
    max_rows: int = 24,
) -> str:
    """The single-screen live sweep status (``repro-bt top``)."""
    fp = (monitor.fingerprint or "?")[:12]
    counts = monitor.counts()
    total = len(monitor.shards)
    done = counts.get(COMPLETED, 0)
    progress = monitor.progress()
    state = "finished" if monitor.finished else "running"
    if monitor.aborted is not None:
        state = f"ABORTED ({monitor.aborted})"
    lines = [
        f"Sweep {fp}  {_progress_bar(progress)} {progress:6.1%}  "
        f"{done}/{total} shards  {state}",
        f"  elapsed {_fmt_duration(now - monitor.started_ts if monitor.started_ts else None)}"
        f"  ETA {_fmt_duration(monitor.eta_seconds(now))}"
        f"  states: "
        + " ".join(f"{name}={n}" for name, n in sorted(counts.items())),
    ]
    percentiles = monitor.throughput_percentiles()
    if percentiles:
        lines.append(
            "  shard throughput (ev/s): "
            + "  ".join(f"{k}={_fmt_rate(v)}" for k, v in percentiles.items())
        )
    stalled = {v.seed for v in monitor.stalled(now, deadline)} if deadline else set()
    stragglers = {v.seed for v in monitor.stragglers(now)}
    lines.append("")
    header = (
        f"  {'':1} {'seed':>16} {'st':>2} {'prog':>6} {'sim-t':>10} "
        f"{'wall':>7} {'ev/s':>7} {'rss MB':>7} {'beat':>6}"
    )
    lines.append(header)
    shown = 0
    for view in monitor._ordered():
        if shown >= max_rows:
            lines.append(f"  ... {len(monitor.shards) - shown} more shard(s)")
            break
        shown += 1
        flag = ""
        if view.seed in stalled:
            flag = "STALLED"
        elif view.seed in stragglers:
            flag = "straggler"
        elif view.reused:
            flag = "reused"
        silent = view.silent_for(now)
        rss = f"{view.rss_peak_kb / 1024:.0f}" if view.rss_peak_kb else "-"
        lines.append(
            f"  {_STATUS_GLYPH.get(view.status, '?'):1} {view.seed:>16} "
            f"{view.status[:2]:>2} {view.frac:>6.1%} {view.sim_time:>10.0f} "
            f"{_fmt_duration(view.running_for(now)):>7} "
            f"{_fmt_rate(view.events_per_sec):>7} {rss:>7} "
            f"{_fmt_duration(silent):>6} {flag}".rstrip()
        )
    return "\n".join(lines)


def render_report(events: List[dict], now: Optional[float] = None) -> str:
    """Post-mortem over a full journal: timeline, stragglers, watchdog.

    Wall-clock figures come from the non-deterministic envelope, so the
    report (unlike the canonical projection) is a wall-domain artifact.
    """
    monitor = SweepMonitor().feed(events)
    if now is None:
        times = [
            e["wall"]["ts"]
            for e in events
            if isinstance(e.get("wall"), dict) and "ts" in e["wall"]
        ]
        now = max(times) if times else 0.0
    fp = monitor.fingerprint or "?"
    lines = [
        f"Sweep post-mortem  fingerprint {fp[:16]}  "
        f"({len(monitor.shards)} shard(s), {monitor.events_seen} journal event(s))",
    ]
    counts = monitor.counts()
    lines.append(
        "  outcome: "
        + ", ".join(f"{n} {name}" for name, n in sorted(counts.items()))
        + (f"; ABORTED: {monitor.aborted}" if monitor.aborted else "")
    )
    start = monitor.started_ts
    completed = monitor.completed()

    # Timeline: per-shard start/end offsets against the sweep clock.
    if start is not None:
        span = max((v.finished_ts or now) for v in monitor.shards.values()) - start
        span = max(span, 1e-9)
        width = 32
        lines.append("")
        lines.append(f"  timeline ({span:.1f} s wall)")
        for view in monitor._ordered():
            if view.started_ts is None:
                bar = " " * width
                window = "never started"
            else:
                s_off = (view.started_ts - start) / span
                e_off = ((view.finished_ts or now) - start) / span
                left = int(s_off * width)
                right = max(left + 1, int(e_off * width))
                glyph = _STATUS_GLYPH.get(view.status, "?")
                bar = " " * left + glyph * (right - left) + " " * (width - right)
                window = (
                    f"{view.started_ts - start:7.1f}s -> "
                    f"{(view.finished_ts or now) - start:7.1f}s"
                )
            lines.append(f"    {view.seed:>16} |{bar}| {window}")

    # Straggler table: wall/throughput/RSS deltas vs the median shard.
    fresh = [v for v in completed if not v.reused and v.wall_time is not None]
    if fresh:
        walls = sorted(v.wall_time for v in fresh)
        median = walls[len(walls) // 2]
        lines.append("")
        lines.append(
            f"  per-shard profile (median wall {median:.2f} s; "
            "delta = shard vs median)"
        )
        lines.append(
            f"    {'seed':>16} {'wall s':>8} {'delta':>7} {'ev/s':>8} "
            f"{'rss MB':>7} {'items':>7}"
        )
        for view in sorted(fresh, key=lambda v: -(v.wall_time or 0.0)):
            delta = (view.wall_time / median - 1.0) if median > 0 else 0.0
            rss = f"{view.rss_peak_kb / 1024:.0f}" if view.rss_peak_kb else "-"
            lines.append(
                f"    {view.seed:>16} {view.wall_time:>8.2f} {delta:>+6.0%} "
                f"{_fmt_rate(view.events_per_sec):>8} {rss:>7} "
                f"{view.total_items if view.total_items is not None else '-':>7}"
            )
        percentiles = monitor.throughput_percentiles()
        if percentiles:
            lines.append(
                "    throughput percentiles (ev/s): "
                + "  ".join(f"{k}={_fmt_rate(v)}" for k, v in percentiles.items())
            )

    # Watchdog / failure narrative.
    incidents = [
        e
        for e in events
        if e.get("event")
        in (jn.SHARD_STALLED, jn.SHARD_REQUEUED, jn.SHARD_FAILED, jn.SWEEP_ABORTED)
    ]
    lines.append("")
    if incidents:
        lines.append(f"  incidents ({len(incidents)})")
        for event in incidents:
            wall = event.get("wall") or {}
            offset = (
                f"+{wall['ts'] - start:.1f}s"
                if start is not None and "ts" in wall
                else "?"
            )
            detail = ""
            if event["event"] == jn.SHARD_STALLED:
                # A lost worker's stall names its cause; a watchdog
                # stall reports how long the shard was silent.
                if "cause" in wall:
                    detail = f"cause {wall['cause']}"
                else:
                    detail = f"silent {wall.get('silent_for', '?')}s"
            elif event["event"] == jn.SHARD_REQUEUED:
                detail = f"attempt {wall.get('attempt', '?')}"
            elif event["event"] == jn.SHARD_FAILED:
                detail = str(event.get("error", ""))
            elif event["event"] == jn.SWEEP_ABORTED:
                detail = str(event.get("reason", ""))
            lines.append(
                f"    {offset:>9}  {event['event']:<15} "
                f"seed={event.get('seed', '-')}  {detail}".rstrip()
            )
    else:
        lines.append("  incidents: none")
    return "\n".join(lines)


# -- OpenMetrics textfile exporter -------------------------------------------


def render_sweep_openmetrics(monitor: SweepMonitor, now: float) -> str:
    """The sweep state as an OpenMetrics text exposition.

    Suitable for the node-exporter textfile collector: write it (see
    :func:`write_sweep_textfile`) and point a scraper at it.
    """
    fp = monitor.fingerprint or ""
    lines = [
        "# TYPE repro_sweep_info gauge",
        f'repro_sweep_info{{fingerprint="{fp}"}} 1',
        "# TYPE repro_sweep_shards gauge",
    ]
    counts = monitor.counts()
    for state in sorted(set(_STATUS_GLYPH) | set(counts)):
        lines.append(
            f'repro_sweep_shards{{state="{state}"}} {counts.get(state, 0)}'
        )
    lines.append("# TYPE repro_sweep_progress_ratio gauge")
    lines.append(f"repro_sweep_progress_ratio {monitor.progress():.6f}")
    eta = monitor.eta_seconds(now)
    if eta is not None:
        lines.append("# TYPE repro_sweep_eta_seconds gauge")
        lines.append(f"repro_sweep_eta_seconds {eta:.3f}")
    percentiles = monitor.throughput_percentiles()
    if percentiles:
        lines.append("# TYPE repro_sweep_shard_events_per_second gauge")
        for key, value in percentiles.items():
            lines.append(
                f'repro_sweep_shard_events_per_second{{quantile="{key}"}} '
                f"{value:.3f}"
            )
    lines.append("# TYPE repro_sweep_finished gauge")
    lines.append(f"repro_sweep_finished {1 if monitor.finished else 0}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_sweep_textfile(
    monitor: SweepMonitor, path: Union[str, Path], now: float
) -> Path:
    """Atomically refresh the OpenMetrics textfile at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(render_sweep_openmetrics(monitor, now), encoding="utf-8")
    os.replace(tmp, path)
    return path


__all__ = [
    "ShardView",
    "SweepMonitor",
    "SweepWatchdog",
    "WatchdogAction",
    "monitor_from_journal",
    "render_top",
    "render_report",
    "render_sweep_openmetrics",
    "write_sweep_textfile",
]
