"""Honest percentiles and open-loop due-time accounting.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it, so p50 needs 20 samples and p99 needs 1000.  An open-loop request
is timed from the moment it was due, not from when it was sent, so a stall
also charges the requests it delayed.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentile levels tried, highest first, when a tail latency is reported.
TAIL_LEVELS = (99.0, 90.0, 50.0)


def samples_beyond(count: int, level: float) -> int:
    """Samples ranked above the nearest-rank ``level`` percentile of ``count``."""
    return count - max(1, math.ceil(level / 100.0 * count))


def honest_percentile(values: Sequence[float], level: float) -> float | None:
    """Nearest-rank percentile, or ``None`` when too few samples lie beyond it."""
    if not values or samples_beyond(len(values), level) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(level / 100.0 * len(ordered))) - 1]


def tail(values: Sequence[float], levels: Sequence[float] = TAIL_LEVELS) -> tuple[float, float]:
    """``(level, value)`` of the highest level in ``levels`` that is honest here."""
    for level in levels:
        value = honest_percentile(values, level)
        if value is not None:
            return level, value
    raise ValueError(f"{len(values)} samples are too few for any of {tuple(levels)}")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Outcome:
    """One open-loop request: when it was due, sent and answered (seconds)."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    payload: Any = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def sender_loop(
    count: int,
    due: Sequence[float] | None,
    send: Callable[[int], tuple[bool, Any]],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    until: float = math.inf,
) -> list[Outcome]:
    """Send requests ``0 .. count-1`` in order, each at its due time, never earlier.

    A request that falls due while the previous one is still out is sent
    late; its lateness and its latency both count from its due time.  With
    ``due=None`` the loop is closed: each request is due when the previous
    one is answered, and sending stops once ``clock()`` passes ``until``.
    """
    outcomes = []
    for index in range(count):
        if clock() >= until:
            break
        due_at = clock() if due is None else due[index]
        sleep_until(due_at, clock, sleep)
        sent = clock()
        ok, payload = send(index)
        outcomes.append(Outcome(index, due_at, sent, clock(), ok, payload))
    return outcomes


def sleep_until(
    deadline: float, clock: Callable[[], float], sleep: Callable[[float], None]
) -> None:
    """Sleep to within a millisecond of ``deadline``, then yield until it passes.

    A plain sleep can overshoot by a millisecond or more, which would show
    up as generator lateness rather than server latency.
    """
    while (remaining := deadline - clock()) > 0:
        sleep(remaining - 1e-3 if remaining > 2e-3 else 0.0)


def backlog_grows(outcomes: Sequence[Outcome], slack_s: float) -> bool:
    """Whether the generator fell further behind over the course of a rung.

    Compares the median lateness of the last quarter of the requests (in due
    order) with that of the first quarter.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.due)
    quarter = len(ordered) // 4
    if quarter == 0:
        return False
    first = median([outcome.lateness for outcome in ordered[:quarter]])
    last = median([outcome.lateness for outcome in ordered[-quarter:]])
    return last - first > slack_s
