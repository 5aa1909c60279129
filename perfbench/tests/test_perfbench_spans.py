import threading

import pytest

import layers
from spans import Span, Tracer, self_times


def test_self_time_subtracts_only_same_thread_children():
    spans = [
        Span(1, "run", None, 1, "A", 0.0, 10.0),
        Span(2, "metrics", 1, 1, "A", 1.0, 4.0),
        Span(3, "norm", 2, 1, "A", 2.0, 3.0),
        Span(4, "gradient", 1, 1, "A", 5.0, 6.0),
        # A second thread's spans overlap thread A's run in time but are not
        # its children, so they must not reduce its self time.
        Span(5, "run", None, 5, "B", 0.5, 9.0),
        Span(6, "metrics", 5, 5, "B", 3.0, 8.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 3.5, 6: 5.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(1, "outer", None, 1, "A", 0.0, 10.0),
        Span(2, "c", 1, 1, "A", 1.0, 4.0),
        Span(3, "c", 1, 1, "A", 3.0, 5.0),
        Span(4, "c", 1, 1, "A", 8.0, 12.0),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_attributes_nested_spans_per_thread():
    ticks = iter(range(1, 100))
    lock = threading.Lock()

    def clock():
        with lock:
            return float(next(ticks))

    tracer = Tracer(clock)
    outer_open, other_done = threading.Event(), threading.Event()
    inner = tracer.wrap("inner", lambda: None)

    def first():
        span = tracer.begin("outer")
        outer_open.set()
        assert other_done.wait(5)
        inner()
        tracer.end(span)

    def second():
        assert outer_open.wait(5)
        tracer.wrap("other", lambda: None)()
        other_done.set()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
        assert not t.is_alive()

    by_name = {s.name: s for s in tracer.spans}
    outer, other, inner_span = by_name["outer"], by_name["other"], by_name["inner"]
    assert (outer.start, other.start, other.end, inner_span.start, inner_span.end, outer.end) == (
        1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
    )
    assert inner_span.parent == outer.id and inner_span.run == outer.id
    assert other.parent is None and other.run == other.id
    assert other.thread != outer.thread == inner_span.thread
    assert self_times(tracer.spans)[outer.id] == pytest.approx(4.0)


@pytest.mark.parametrize(
    "count, nominal, expected",
    [
        (0, 50.0, None),
        (1, 50.0, 50.0),
        (19, 99.0, None),
        (20, 99.0, 50.0),
        (99, 99.0, 50.0),
        (100, 99.0, 90.0),
        (999, 99.0, 90.0),
        (1000, 99.0, 99.0),
        (1000, 90.0, 90.0),
        (100000, 99.0, 99.0),
    ],
)
def test_percentile_rule_needs_ten_samples_beyond(count, nominal, expected):
    assert layers.percentile_for(count, nominal) == expected


def test_tail_metric_reports_the_percentile_it_used():
    metric = next(m for m in layers.METRICS if m.name == "problem.gradient_us.p99")
    spans = [Span(i + 1, "problem.gradient", None, i + 1, "A", 0.0, (i + 1) * 1e-6)
             for i in range(150)]
    evaluation = layers.evaluate(layers.Rep(spans, 1.0), {})
    value, note = evaluation[metric.name]
    assert note == "p90"
    assert value == pytest.approx(135.1)
    values, absent, used = layers.summarize([evaluation])
    assert used[metric.name] == "p90"
    assert values["problem.gradient_calls"] == 150
    assert absent["subspace.metrics_us.p50"] == "no calls on this workload"
