"""In-memory spans, their self time, and the wrappers that open them.

The benchmark times the library from outside: :func:`instrument` swaps a
public function or method for a wrapper that opens a span around every call
and puts the original back on exit.  A wrapper draws no random number and
touches no argument or result, so a traced run computes the same floats as an
untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.stats import honest_percentile


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the enclosing span."""

    span_id: int
    name: str
    parent: int | None
    start_ns: int = 0
    end_ns: int = 0
    thread: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Keeps every span in memory; nesting is tracked per thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span = Span(
                next(self._ids),
                name,
                stack[-1].span_id if stack else None,
                thread=threading.get_ident(),
            )
            self.spans.append(span)
        stack.append(span)
        span.start_ns = self._clock()
        try:
            yield span
        finally:
            span.end_ns = self._clock()
            stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> Span:
        """Record an interval timed before the tracer existed (a root span)."""
        with self._lock:
            span = Span(next(self._ids), name, None, start_ns, end_ns, threading.get_ident())
            self.spans.append(span)
        return span

    def write_jsonl(self, path: Path) -> None:
        """Write one JSON object per span (times in ns, self time included)."""
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            for span in self.spans:
                record = {
                    "id": span.span_id,
                    "name": span.name,
                    "parent": span.parent,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "self_ns": own[span.span_id],
                    "thread": span.thread,
                }
                sink.write(json.dumps(record) + "\n")


def _covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.duration_ns
        - _covered_ns(children.get(span.span_id, ()), span.start_ns, span.end_ns)
        for span in spans
    }


@dataclass
class LayerStats:
    """Per-name aggregate of the spans of one layer call."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    first_s: float = 0.0
    durations_ms: list[float] = field(default_factory=list)

    @property
    def p50_ms(self) -> float | None:
        return honest_percentile(self.durations_ms, 50.0)


def summarize(spans: Iterable[Span]) -> dict[str, LayerStats]:
    """Calls, total, self and first-call time per span name, in start order."""
    spans = sorted(spans, key=lambda span: span.start_ns)
    own = self_times(spans)
    summary: dict[str, LayerStats] = defaultdict(LayerStats)
    for span in spans:
        stats = summary[span.name]
        seconds = span.duration_ns / 1e9
        if stats.calls == 0:
            stats.first_s = seconds
        stats.calls += 1
        stats.total_s += seconds
        stats.self_s += own[span.span_id] / 1e9
        stats.durations_ms.append(seconds * 1e3)
    return dict(summary)


Target = tuple[Any, str, str]


def _spanned(tracer: Tracer, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, targets: Iterable[Target]) -> Iterator[None]:
    """Open a span around every call of each ``(owner, attribute, span name)``.

    ``owner`` is a class (the attribute is a method) or a module (the
    attribute is a function looked up there at call time).  Every original is
    restored on exit, also when the body raises.
    """
    originals: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name in targets:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _spanned(tracer, name, original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


@contextlib.contextmanager
def record_calls(owner: Any, attribute: str, calls: list[tuple[int, int]]) -> Iterator[None]:
    """Append the ``perf_counter_ns`` readings on entry to and exit from every call of a method.

    The untraced run's only hooks: two clock reads per call, from which the
    end of set-up, the length of the run and the round intervals are taken.
    """
    original = vars(owner)[attribute]

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        entered = time.perf_counter_ns()
        result = original(*args, **kwargs)
        calls.append((entered, time.perf_counter_ns()))
        return result

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        setattr(owner, attribute, original)
