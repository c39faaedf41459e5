"""In-memory span recorder for the traced replay, and the arithmetic on spans.

A span is one call across a layer boundary: its name, start and end on
``time.perf_counter``, the span that was open when it began (its parent),
the replayed command it belongs to, and the counts taken from the call's
arguments and result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import time
from collections import defaultdict

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: str
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``command`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = ""
        self._open: list[int] = []
        self._next_id = 0

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``count(result, *args, **kwargs)`` gives its counts."""
        kwargs = kwargs or {}
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
        counts = count(result, *args, **kwargs) if count else {}
        self.spans.append(Span(span_id, name, start, end, parent, self.command, counts))
        return result

    def wrap(self, fn, name, count=None):
        """``fn`` traced under ``name``, a string or a function of fn's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, fn, args, kwargs, count)

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s.id] = s.duration - covered
    return out


def summary(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return dict(sorted(out.items()))


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s), separators=(",", ":")) + "\n")
