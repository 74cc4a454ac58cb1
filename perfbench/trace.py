"""Per-layer spans and module self time for the traced benchmark run.

Nothing here edits ``src``.  Spans come from two places, both in the
benchmark's own code:

* explicit :func:`span` blocks around the calls a workload makes
  (the sweep, the render), and :func:`outside_request` around the
  output check's statistics pass, which pauses every other span;
* :func:`installed` wrappers put around a layer's public entry points
  for the length of one repetition (``ShardCache.get``,
  ``SQLiteStore.iter_records``, ``build_relationship_table``, ...) and
  restored afterwards.

Span totals are inclusive: a span covers every call made inside it,
including calls into layers that have spans of their own (the
relationship build includes the store scans it consumes).  Generator
entry points are timed per ``next()``, so a streaming stage is charged
only for the time spent producing its items.

:func:`module_self_times` folds a :mod:`cProfile` run into
``<package>.<module>.self_s`` buckets plus ``ext.*`` buckets for the
C extensions and standard library the program leans on.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter


class Spans:
    """Inclusive wall time per span name, and work counted at spans."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        #: Work counted at span boundaries (``sim.events``, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Set while the output check runs: its calls are not the request's.
        self.paused = False

    def add(self, name: str, seconds: float) -> None:
        if not self.paused:
            self.seconds[name] += seconds

    def get(self, name: str) -> float:
        return self.seconds.get(name, 0.0)


#: The recorder spans go to; None outside a traced repetition.
_active: Optional[Spans] = None


@contextlib.contextmanager
def span(name: str) -> Iterator[None]:
    """Time the block under ``name`` when a traced repetition is running."""
    recorder = _active
    if recorder is None:
        yield
        return
    started = _clock()
    try:
        yield
    finally:
        recorder.add(name, _clock() - started)


@contextlib.contextmanager
def outside_request(name: str) -> Iterator[None]:
    """Time the block under ``name`` with every other span paused.

    For the output check's own work, so that the request's spans count
    only the request's calls.
    """
    recorder = _active
    if recorder is None:
        yield
        return
    recorder.paused = True
    started = _clock()
    try:
        yield
    finally:
        recorder.paused = False
        recorder.add(name, _clock() - started)


def _timed_call(name: str, func: Callable, spans: Spans) -> Callable:
    def wrapper(*args, **kwargs):
        started = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            spans.add(name, _clock() - started)

    return wrapper


def _timed_campaign(name: str, func: Callable, spans: Spans) -> Callable:
    """Time one simulated replicate and count the work it did."""
    timed = _timed_call(name, func, spans)

    def wrapper(self, *args, **kwargs):
        result = timed(self, *args, **kwargs)
        spans.counts["sim.events"] += result.events_processed
        spans.counts["sim.simulated_s"] += result.duration
        spans.counts["sim.cycles"] += sum(
            stats.cycles
            for testbed in result.testbeds
            for stats in result.client_stats(testbed)
        )
        return result

    return wrapper


def _timed_generator(name: str, func: Callable, spans: Spans) -> Callable:
    def wrapper(*args, **kwargs):
        started = _clock()
        iterator = iter(func(*args, **kwargs))
        elapsed = _clock() - started
        try:
            while True:
                started = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    elapsed += _clock() - started
                    return
                elapsed += _clock() - started
                yield item
        finally:
            spans.add(name, elapsed)

    return wrapper


class _TimedJson:
    """Stand-in for a module's ``json`` global: times ``dump``/``load``."""

    def __init__(self, real, spans: Spans, dump_span: str, load_span: str) -> None:
        self._real = real
        self.dump = _timed_call(dump_span, real.dump, spans)
        self.load = _timed_call(load_span, real.load, spans)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


#: (span name, module, attribute path, kind).  ``kind`` is ``call``,
#: ``gen`` (a generator function), ``classmethod``, ``property`` or
#: ``campaign`` (a call returning a ``CampaignResult``, whose engine
#: events, simulated seconds and workload cycles are counted too).
PATCH_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.run", "repro.core.campaign", "CampaignSpec._execute", "campaign"),
    ("parallel.shard.summarise", "repro.parallel.shard",
     "ShardResult.from_campaign", "classmethod"),
    ("parallel.shard.encode", "repro.parallel.shard",
     "ShardResult.to_payload", "call"),
    ("parallel.shard.decode", "repro.parallel.shard",
     "ShardResult.from_payload", "classmethod"),
    ("parallel.cache.get", "repro.parallel.cache", "ShardCache.get", "call"),
    ("parallel.cache.put", "repro.parallel.cache", "ShardCache.put", "call"),
    ("parallel.sweep.pool", "repro.parallel.backends", "SerialBackend.run", "call"),
    ("collection.store.ingest", "repro.parallel.sweep",
     "SweepResult.into_store", "call"),
    ("collection.repository.merge", "repro.parallel.sweep",
     "SweepResult.repository", "property"),
    ("collection.store.scan", "repro.collection.store",
     "SQLiteStore.iter_records", "gen"),
    ("collection.store.scan", "repro.collection.repository",
     "CentralRepository.iter_records", "gen"),
    ("core.merge.stream", "repro.core.relationship", "iter_node_logs", "gen"),
    ("core.coalescence.coalesce", "repro.core.relationship", "iter_coalesce", "gen"),
    ("core.relationship.build", "repro.core.summary",
     "build_relationship_table", "call"),
    ("core.relationship.build", "repro.core.relationship",
     "build_relationship_table", "call"),
    ("core.sira_analysis.build", "repro.core.summary", "build_sira_table", "call"),
)


def _wrap(kind: str, name: str, original, spans: Spans):
    if kind == "call":
        return _timed_call(name, original, spans)
    if kind == "gen":
        return _timed_generator(name, original, spans)
    if kind == "campaign":
        return _timed_campaign(name, original, spans)
    if kind == "classmethod":
        return classmethod(_timed_call(name, original.__func__, spans))
    if kind == "property":
        return property(_timed_call(name, original.fget, spans))
    raise ValueError(f"unknown patch kind {kind!r}")


@contextlib.contextmanager
def installed(spans: Spans) -> Iterator[Spans]:
    """Record spans for every patch point and explicit :func:`span` block.

    Originals are restored on exit, so an untraced repetition after a
    traced one runs the unmodified program.
    """
    global _active
    restore: List[Tuple[object, str, object]] = []
    try:
        for name, module_name, path, kind in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attr] if parents else getattr(owner, attr)
            restore.append((owner, attr, original))
            setattr(owner, attr, _wrap(kind, name, original, spans))
        cache_module = importlib.import_module("repro.parallel.cache")
        restore.append((cache_module, "json", cache_module.json))
        cache_module.json = _TimedJson(
            json, spans, "parallel.shard.encode", "parallel.shard.decode"
        )
        _active = spans
        yield spans
    finally:
        _active = None
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- module self time ---------------------------------------------------------

#: Buckets for code outside ``src/repro``: (bucket, substrings of the
#: profiled file name or function name that select it), first match wins.
EXT_BUCKETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ext.sqlite3", ("sqlite3",)),
    ("ext.json", ("json",)),
    ("ext.numpy", ("numpy",)),
    ("ext.re", ("re.Pattern", "/re/", "_sre")),
    ("ext.random", ("random",)),
    ("ext.dataclasses", ("dataclasses.py", "/copy.py", "<string>")),
)


def _bucket(filename: str, funcname: str, src_root: Path) -> str:
    if filename.startswith(str(src_root)):
        relative = Path(filename).relative_to(src_root).with_suffix("")
        parts = [part for part in relative.parts if part != "__init__"]
        return ".".join(parts[1:] or parts) + ".self_s"
    text = f"{filename} {funcname}"
    for bucket, needles in EXT_BUCKETS:
        if any(needle in text for needle in needles):
            return f"{bucket}.self_s"
    return "ext.other.self_s"


def module_self_times(profile, src_root: Path) -> Dict[str, float]:
    """Total ``tottime`` of a :class:`cProfile.Profile` per module bucket.

    ``src_root`` is the ``src`` directory; ``src/repro/sim/engine.py``
    becomes ``sim.engine.self_s``.  Built-in functions are charged to
    the extension or standard module their name mentions
    (:data:`EXT_BUCKETS`) or to ``ext.other``.
    """
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, funcname), row in pstats.Stats(profile).stats.items():
        totals[_bucket(filename, funcname, src_root)] += row[2]
    return dict(totals)


__all__ = [
    "EXT_BUCKETS",
    "PATCH_POINTS",
    "Spans",
    "installed",
    "module_self_times",
    "outside_request",
    "span",
]
