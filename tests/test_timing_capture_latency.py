"""Tests for latency accounting."""

import pytest

from repro.timing.latency import LatencyRecorder, summarize


class TestLatencyRecorder:
    def test_paper_definition_pairing(self):
        recorder = LatencyRecorder()
        recorder.input_event("s1", 100)
        assert recorder.order_sent("s1", 150) == 50
        # A newer input re-anchors the next order.
        recorder.input_event("s1", 400)
        recorder.input_event("s1", 420)
        assert recorder.order_sent("s1", 500) == 80

    def test_order_without_input_is_unattributed(self):
        recorder = LatencyRecorder()
        assert recorder.order_sent("s1", 100) is None
        assert recorder.samples("s1") == []

    def test_contexts_are_independent(self):
        recorder = LatencyRecorder()
        recorder.input_event("a", 100)
        recorder.input_event("b", 900)
        recorder.order_sent("a", 150)
        recorder.order_sent("b", 1_000)
        assert recorder.samples("a") == [50]
        assert recorder.samples("b") == [100]
        assert sorted(recorder.contexts) == ["a", "b"]
        assert sorted(recorder.all_samples()) == [50, 100]

    def test_stats_summary(self):
        recorder = LatencyRecorder()
        recorder.input_event("a", 0)
        for t in (100, 200, 300):
            recorder.input_event("a", 0)
            recorder.order_sent("a", t)
        stats = recorder.stats("a")
        assert stats.count == 3
        assert stats.mean == pytest.approx(200)
        assert stats.median == 200

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

