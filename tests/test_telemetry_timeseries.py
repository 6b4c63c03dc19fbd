"""Windowed time-series: binning, boundaries, coalescing, sum invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import MICROSECOND, SECOND
from repro.telemetry import (
    DEFAULT_MAX_WINDOWS,
    FIG2B_WINDOW_NS,
    FIG2C_WINDOW_NS,
    TelemetrySession,
    WindowedRecorder,
)


def test_presets_match_figure2():
    assert FIG2B_WINDOW_NS == SECOND
    assert FIG2C_WINDOW_NS == 100 * MICROSECOND
    recorder = WindowedRecorder()
    assert recorder.window_ns == FIG2C_WINDOW_NS
    assert recorder.max_windows == DEFAULT_MAX_WINDOWS


def test_boundary_event_lands_in_the_later_window():
    """Windows are half-open: an event at exactly k * window_ns belongs
    to window k, never k - 1."""
    recorder = WindowedRecorder(window_ns=100, max_windows=64)
    recorder.record_count("x.events", 0)
    recorder.record_count("x.events", 99)  # last tick of window 0
    recorder.record_count("x.events", 100)  # first tick of window 1
    recorder.record_count("x.events", 200)  # first tick of window 2
    assert recorder.counts_array("x.events") == [2, 1, 1]
    points = recorder.points("x.events")
    assert [(p.index, p.start_ns, p.value) for p in points] == [
        (0, 0, 2),
        (1, 100, 1),
        (2, 200, 1),
    ]


def test_empty_windows_between_bursts_are_explicit_zeros():
    recorder = WindowedRecorder(window_ns=10, max_windows=64)
    recorder.record_count("bursty", 5, amount=3)
    recorder.record_count("bursty", 45, amount=2)
    assert recorder.counts_array("bursty") == [3, 0, 0, 0, 2]
    # points() stays sparse — only the two non-empty windows.
    assert len(recorder.points("bursty")) == 2
    busiest = recorder.busiest("bursty")
    assert (busiest.index, busiest.value) == (0, 3)


def test_coalescing_doubles_width_and_preserves_sums():
    recorder = WindowedRecorder(window_ns=10, max_windows=4)
    for t in range(0, 40, 10):  # windows 0..3, one event each
        recorder.record_count("c", t)
    assert recorder.window_ns == 10 and recorder.coalesce_count == 0
    # t=40 would be window 4 >= max_windows: one doubling to width 20.
    recorder.record_count("c", 40)
    assert recorder.window_ns == 20
    assert recorder.coalesce_count == 1
    assert recorder.counts_array("c") == [2, 2, 1]
    assert sum(recorder.counts_array("c")) == recorder.total("c") == 5
    # A far-future event forces several doublings at once.
    recorder.record_count("c", 1_000)
    assert recorder.window_ns >= 256  # 20 -> 40 -> 80 -> 160 -> 320
    assert sum(recorder.counts_array("c")) == recorder.total("c") == 6


def test_coalescing_takes_max_for_gauge_series():
    recorder = WindowedRecorder(window_ns=10, max_windows=4)
    recorder.record_sample("depth", 0, 7)
    recorder.record_sample("depth", 10, 3)
    recorder.record_sample("depth", 40, 1)  # triggers coalesce to width 20
    assert recorder.window_ns == 20
    assert recorder.kind("depth") == "max"
    # Windows 0 and 1 folded into one window keeping max(7, 3).
    assert recorder.counts_array("depth") == [7, 0, 1]
    assert recorder.total("depth") == 7  # all-time max, not a sum


def test_count_and_max_series_coexist():
    recorder = WindowedRecorder(window_ns=100, max_windows=16)
    recorder.record_count("a.events", 0, amount=4)
    recorder.record_sample("a.depth", 0, 9)
    assert recorder.series_names == ["a.depth", "a.events"]
    assert recorder.kind("a.events") == "count"
    assert recorder.kind("a.depth") == "max"
    exported = recorder.to_dict()
    assert exported["series"]["a.events"]["total"] == 4
    assert exported["series"]["a.depth"]["windows"][0]["value"] == 9


def test_unknown_series_reads_are_empty_not_errors():
    recorder = WindowedRecorder()
    assert recorder.total("nope") == 0
    assert recorder.points("nope") == []
    assert recorder.counts_array("nope") == []
    assert recorder.busiest("nope") is None


def test_constructor_validation():
    with pytest.raises(ValueError):
        WindowedRecorder(window_ns=0)
    with pytest.raises(ValueError):
        WindowedRecorder(max_windows=1)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**7),  # virtual time
            st.integers(min_value=1, max_value=50),  # amount
        ),
        min_size=1,
        max_size=120,
    ),
    max_windows=st.integers(min_value=2, max_value=32),
)
def test_property_window_counts_sum_to_counter(events, max_windows):
    """The report CLI's invariant, under adversarial timestamps and a
    tiny memory cap that forces repeated coalescing: for any recording
    sequence, the per-window counts sum exactly to the counter, because
    TelemetrySession.count feeds both from the same call."""
    session = TelemetrySession(window_ns=100, max_windows=max_windows)
    for now, amount in events:
        session.count("prop.events", now, amount)
    expected = sum(amount for _, amount in events)
    assert session.metrics.counters["prop.events"].value == expected
    assert session.series.total("prop.events") == expected
    assert sum(session.series.counts_array("prop.events")) == expected


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["set", "add"]),
            st.sampled_from(["g.a", "g.b", "g.c"]),
            st.integers(min_value=0, max_value=5_000),  # time step
            st.integers(min_value=-20, max_value=60),  # value or delta
        ),
        min_size=1,
        max_size=80,
    ),
    max_windows=st.integers(min_value=2, max_value=8),
)
def test_property_gauge_fast_path_equals_a_plain_model(ops, max_windows):
    """gauge_set/gauge_add (one cached lookup per sample) leave every
    gauge and every series exactly where a plain-dict model says, with
    a window cap small enough that coalescing fires."""
    window_ns = 100
    session = TelemetrySession(window_ns=window_ns, max_windows=max_windows)
    value: dict[str, int] = {}
    samples: dict[str, list[tuple[int, int]]] = {}
    now = 0
    for op, name, step, number in ops:
        now += step
        if op == "set":
            session.gauge_set(name, now, number)
            value[name] = number
        else:
            session.gauge_add(name, now, number)
            value[name] = value.get(name, 0) + number
        samples.setdefault(name, []).append((now, value[name]))

    width = window_ns
    while now // width >= max_windows:
        width *= 2
    assert session.series.window_ns == width
    assert sorted(session.metrics.gauges) == sorted(samples)
    assert session.series.series_names == sorted(samples)
    exported = session.series.to_dict()["series"]
    for name, points in samples.items():
        gauge = session.metrics.gauges[name]
        assert gauge.value == value[name]
        assert gauge.high_watermark == max(0, *(v for _, v in points))
        windows: dict[int, int] = {}
        for t, v in points:
            windows[t // width] = max(windows.get(t // width, v), v)
        assert exported[name]["kind"] == "max"
        assert {w["index"]: w["value"] for w in exported[name]["windows"]} == windows
        assert session.series.total(name) == max(0, *windows.values())
