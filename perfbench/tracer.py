"""In-memory span tracer for the benchmark's traced pass.

A span is one call into a layer: its name, the function called, start,
end, the span that enclosed it, and the Spark jobs and stages that ran
under it. Every span that can start Spark work gets its own job group,
unique across passes, so job ids never accumulate from one pass or span
into the next.

Layers are traced from outside the program: :meth:`Tracer.instrument`
swaps a module attribute for a wrapper for the duration of a pass, so the
program's own call path runs unchanged. The wrapper forces the layer's
output (cache plus count) inside the span, so the time of the work lands
in the layer that did it rather than in whichever later action first
needed the rows.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator

from pyspark.sql import DataFrame


def job_counts(sc, group: str) -> tuple[int, int]:
    """``(jobs, stages)`` run under one job group; stages include skipped ones."""
    tracker = sc.statusTracker()
    ids = tracker.getJobIdsForGroup(group)
    stages = 0
    for job_id in ids:
        info = tracker.getJobInfo(job_id)
        if info is not None:
            stages += len(info.stageIds)
    return len(ids), stages


@dataclass
class Span:
    name: str
    fn: str
    parent: int | None
    group: str  # Spark job group; "" for spans that run no Spark work
    start: float
    end: float = 0.0
    jobs: int = 0
    stages: int = 0
    rows: int = 0  # rows of the forced output
    child_s: float = 0.0  # part of the span covered by its children

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


@dataclass(frozen=True)
class Probe:
    """A layer function to trace: ``module.attr`` as seen by its caller.

    ``layer`` names the span, or derives it from the call arguments.
    ``force`` caches and counts DataFrame outputs inside the span; ``keep``
    retains the forced outputs for statistics taken after the pass;
    ``observe(out, *args, **kwargs)`` sees every call.
    """

    module: ModuleType
    attr: str
    layer: str | Callable[..., str]
    spark: bool = True
    force: bool = True
    keep: bool = False
    observe: Callable[..., None] | None = None


def _force(out: Any) -> tuple[Any, int]:
    """Cache and count every DataFrame in ``out``; return it and its rows."""
    if isinstance(out, DataFrame):
        out = out.cache()
        return out, out.count()
    if isinstance(out, tuple):
        forced = [_force(x) for x in out]
        return tuple(x for x, _ in forced), sum(n for _, n in forced)
    if hasattr(out, "__len__"):
        return out, len(out)
    return out, 0


@dataclass
class Tracer:
    sc: Any
    group: str  # the pass's job group; spans' groups extend it
    spans: list[Span] = field(default_factory=list)
    kept: dict[str, list[Any]] = field(default_factory=dict)  # by layer
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def _group_of(self, idx: int | None) -> str:
        while idx is not None:
            if self.spans[idx].group:
                return self.spans[idx].group
            idx = self.spans[idx].parent
        return self.group

    @contextmanager
    def span(self, name: str, fn: str = "", spark: bool = True) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        group = f"{self.group}/s{idx}.{name}" if spark else ""
        sp = Span(name, fn or name, parent, group, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(idx)
        if spark:
            self.sc.setJobGroup(group, name)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if spark:
                sp.jobs, sp.stages = job_counts(self.sc, group)
                self.sc.setJobGroup(self._group_of(parent), "pass")
            if parent is not None:
                self.spans[parent].child_s += sp.total_s

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer = probe.layer(*args, **kwargs) if callable(probe.layer) else probe.layer
            with self.span(layer, probe.attr, probe.spark) as sp:
                out = fn(*args, **kwargs)
                if probe.force:
                    out, sp.rows = _force(out)
            if probe.keep:
                self.kept.setdefault(layer, []).append(out)
            if probe.observe is not None:
                probe.observe(out, *args, **kwargs)
            return out

        return traced

    @contextmanager
    def instrument(self, probes: list[Probe]) -> Iterator[None]:
        """Trace every probe's function until the block exits."""
        saved = []
        try:
            for p in probes:
                fn = getattr(p.module, p.attr)
                saved.append((p.module, p.attr, fn))
                setattr(p.module, p.attr, self._wrap(p, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # --- aggregation --------------------------------------------------------
    def _of(self, name: str, fn: str | None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (fn is None or s.fn == fn)]

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self._of(name, None))

    def total_s(self, name: str) -> float:
        return sum(s.total_s for s in self._of(name, None))

    def jobs(self, name: str) -> int:
        return sum(s.jobs for s in self._of(name, None))

    def stages(self, name: str) -> int:
        return sum(s.stages for s in self._of(name, None))

    def rows(self, name: str, fn: str | None = None) -> int:
        return sum(s.rows for s in self._of(name, fn))

    def jobs_total(self) -> int:
        return sum(s.jobs for s in self.spans)

    def stages_total(self) -> int:
        return sum(s.stages for s in self.spans)

    def calls(self, name: str) -> int:
        return len(self._of(name, None))

    def dump(self, t0: float) -> list[dict]:
        """Spans as records, times in seconds since ``t0``."""
        return [
            {
                "id": i,
                "name": s.name,
                "fn": s.fn,
                "parent": s.parent,
                "group": s.group,
                "start": s.start - t0,
                "end": s.end - t0,
                "jobs": s.jobs,
                "stages": s.stages,
                "rows": s.rows,
            }
            for i, s in enumerate(self.spans)
        ]
