"""The percentile/sample-count rule and open-loop due-time accounting."""

import pytest

from perfbench.stats import (
    backlog_grows,
    honest_percentile,
    samples_beyond,
    sender_loop,
    sleep_until,
    tail,
)


@pytest.mark.parametrize(
    ("count", "level", "honest"),
    [(19, 50.0, False), (20, 50.0, True), (99, 90.0, False), (100, 90.0, True),
     (999, 99.0, False), (1000, 99.0, True)],
)
def test_percentile_needs_ten_samples_beyond(count, level, honest):
    values = [float(v) for v in range(count)]
    assert (samples_beyond(count, level) >= 10) is honest
    assert (honest_percentile(values, level) is not None) is honest


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]  # 1 .. 1000
    assert honest_percentile(values, 50.0) == 500.0
    assert honest_percentile(values, 99.0) == 990.0
    assert honest_percentile(list(reversed(values)), 99.0) == 990.0


def test_tail_takes_the_highest_honest_level():
    assert tail([float(v) for v in range(1000)])[0] == 99.0
    assert tail([float(v) for v in range(384)])[0] == 90.0
    assert tail([float(v) for v in range(25)])[0] == 50.0
    with pytest.raises(ValueError):
        tail([1.0] * 19)


class FakeClock:
    """A clock that moves only when the code under test sleeps or works.

    Every sleep takes at least 0.1 ms, as a real one does.
    """

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += max(1e-4, seconds)


def _drive(due, service_s, clock, until=float("inf")):
    def send(index):
        clock.now += service_s
        return True, index

    return sender_loop(len(due) if due else 100, due, send, clock, clock.sleep, until)


def test_a_stall_is_charged_from_the_due_time():
    clock = FakeClock()
    outcomes = _drive([float(i) for i in range(8)], 2.0, clock)
    assert [o.sent for o in outcomes] == [2.0 * i for i in range(8)]
    assert [o.lateness for o in outcomes] == [float(i) for i in range(8)]
    assert [o.latency for o in outcomes] == [i + 2.0 for i in range(8)]
    assert backlog_grows(outcomes, slack_s=0.5)


def test_a_fast_server_is_never_late():
    clock = FakeClock()
    outcomes = _drive([float(i) for i in range(8)], 0.25, clock)
    assert all(0.0 <= o.lateness < 1e-3 for o in outcomes)
    assert all(o.latency == pytest.approx(0.25, abs=1e-3) for o in outcomes)
    assert not backlog_grows(outcomes, slack_s=0.5)


def test_closed_loop_requests_are_due_when_taken_until_the_deadline():
    clock = FakeClock()
    outcomes = _drive(None, 0.3, clock, until=1.0)
    assert [o.index for o in outcomes] == [0, 1, 2, 3]
    assert all(o.latency == pytest.approx(0.3) and o.lateness == 0.0 for o in outcomes)


def test_sleep_until_never_returns_early():
    clock = FakeClock()
    sleep_until(0.0105, clock, clock.sleep)
    assert 0.0105 <= clock.now < 0.0107
    assert clock.sleeps[0] == pytest.approx(0.0095)
