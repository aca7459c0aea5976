"""In-memory span recorder and the summary statistics of the benchmark.

A span is one timed call into a layer: its name, start and end (from
``time.perf_counter``), the index of the enclosing span and the id of the
operation it belongs to. Spans are kept in a list and written out only
when the run ends, so recording costs two clock reads and an append.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

OP_SPAN = "op"
_NULL = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def untraced(name: str):
    """Span factory of the untraced pass: records nothing."""
    return _NULL


class Recorder:
    """Collects nested spans; ``span(name)`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra, spans=[asdict(s) for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(kids) for s, kids in zip(spans, children)]


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1), numpy's default rule."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_samples(q: float, beyond: int = 10) -> int:
    """Smallest sample count that leaves ``beyond`` samples above the q-quantile."""
    # the tolerance absorbs rounding in 1 - q, e.g. 1 - 0.9 = 0.09999999999999998
    return math.ceil(beyond / (1.0 - q) - 1e-9)


def median(values) -> float:
    return percentile(values, 0.5)
