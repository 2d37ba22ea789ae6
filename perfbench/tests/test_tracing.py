"""Self time over nested spans, and the wrappers that open them."""

import types

from perfbench.tracing import Span, Tracer, instrument, record_calls, self_times, summarize


def _spans(*rows):
    return [Span(span_id, name, parent, start, end) for span_id, name, parent, start, end in rows]


def test_self_time_subtracts_children_once():
    spans = _spans(
        (1, "root", None, 0, 100),
        (2, "a", 1, 10, 40),
        (3, "a.child", 2, 20, 30),
        (4, "b", 1, 50, 60),
    )
    assert self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_overlapping_children_are_covered_by_their_union():
    spans = _spans(
        (1, "root", None, 0, 100),
        (2, "worker", 1, 10, 40),
        (3, "worker", 1, 30, 50),
        (4, "late", 1, 90, 120),  # clipped to the parent's end
    )
    assert self_times(spans)[1] == 100 - 40 - 10


def test_self_times_sum_to_the_root_duration():
    spans = _spans((1, "root", None, 0, 1000), (2, "a", 1, 100, 400), (3, "b", 2, 150, 250))
    assert sum(self_times(spans).values()) == 1000


def test_tracer_nests_and_summarizes_with_a_fake_clock():
    ticks = iter(range(0, 10**9, 10**8))  # every clock read moves 0.1 s
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        for _ in range(2):
            with tracer.span("inner"):
                pass
    summary = summarize(tracer.spans)
    assert summary["outer"].calls == 1
    assert summary["inner"].calls == 2
    assert abs(summary["inner"].total_s - 0.2) < 1e-9
    assert abs(summary["inner"].first_s - 0.1) < 1e-9
    assert abs(summary["outer"].self_s - (summary["outer"].total_s - 0.2)) < 1e-9
    assert summary["inner"].p50_ms is None  # two samples: too few for a p50


class Layer:
    def work(self, x):
        return x * 2


def test_instrument_wraps_and_restores():
    module = types.SimpleNamespace()
    module.__dict__["helper"] = lambda x: x + 1
    original_work = Layer.__dict__["work"]
    tracer = Tracer()
    with instrument(tracer, [(Layer, "work", "layer.work"), (module, "helper", "layer.helper")]):
        assert Layer().work(3) == 6
        assert module.helper(3) == 4
    assert Layer.__dict__["work"] is original_work
    assert [span.name for span in tracer.spans] == ["layer.work", "layer.helper"]


def test_record_calls_records_entry_and_exit_per_call():
    calls = []
    with record_calls(Layer, "work", calls):
        Layer().work(1)
        Layer().work(2)
    assert len(calls) == 2
    assert calls[0][0] <= calls[0][1] <= calls[1][0] <= calls[1][1]
    assert Layer().work(1) == 2 and len(calls) == 2
