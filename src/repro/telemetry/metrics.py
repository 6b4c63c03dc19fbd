"""Counters, gauges, and ns-resolution histograms, registered by name.

The registry replaces ad-hoc latency plumbing with one shared sink:
components ask the session's registry for a named instrument once, at
construction, and update it on the hot path only when telemetry is on.
Registries export to plain dicts for the JSON dump.

Instrument names are dotted lowercase ``component.metric`` paths
(``link.a.exchange.queue_drops``) — enforced by the
``instrument-name-style`` lint rule — so exports group naturally and
the report CLI can filter by prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.hdr import LogLinearHistogram


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A point-in-time level (queue depth, backlog, in-flight count).

    Unlike a :class:`Counter`, a gauge moves both ways; the value that
    matters for capacity sizing is its **high-watermark** — the §4.3
    merge-backlog question is "how deep did the queue ever get", not
    "how deep is it now". The watermark only ratchets upward; ``set``
    and ``add`` keep it current with every update.
    """

    __slots__ = ("name", "value", "high_watermark")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.high_watermark = 0

    def set(self, value: int) -> None:
        self.value = value
        if value > self.high_watermark:
            self.high_watermark = value

    def add(self, delta: int = 1) -> None:
        self.set(self.value + delta)

    def to_dict(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "value": self.value,
            "high_watermark": self.high_watermark,
        }


@dataclass(frozen=True, slots=True)
class HistogramSummary:
    """Summary statistics of one histogram at export time."""

    count: int
    min: int
    max: int
    mean: float
    p50: float
    p90: float
    p99: float
    p999: float
    p9999: float


class Histogram(LogLinearHistogram):
    """A named ns-resolution latency instrument backed by log-linear buckets.

    Backed by :class:`~repro.telemetry.hdr.LogLinearHistogram`, so
    `record`/`observe` is O(1) and allocation-free, memory is bounded by
    the fixed bucket table (no reservoir thinning), percentiles carry a
    ≤ 0.78% relative-error guarantee out to p99.99, and histograms from
    different runs **merge losslessly** — the property ``repro sweep``
    relies on for true cross-cell tail percentiles.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def observe(self, value: int) -> None:
        self.record(value)

    def percentile(self, q: float) -> float:
        """Bounded-relative-error percentile; 0.0 on an empty histogram."""
        if self.count == 0:
            return 0.0
        return float(super().percentile(q))

    def summary(self) -> HistogramSummary:
        return HistogramSummary(
            count=self.count,
            min=self.min or 0,
            max=self.max or 0,
            mean=self.mean,
            p50=self.percentile(0.50),
            p90=self.percentile(0.90),
            p99=self.percentile(0.99),
            p999=self.percentile(0.999),
            p9999=self.percentile(0.9999),
        )

    def to_dict(self) -> dict:
        s = self.summary()
        return {
            "type": "histogram",
            "name": self.name,
            "count": s.count,
            "min": s.min,
            "max": s.max,
            "mean": s.mean,
            "p50": s.p50,
            "p90": s.p90,
            "p99": s.p99,
            "p999": s.p999,
            "p9999": s.p9999,
            "sub_bucket_bits": self.sub_bucket_bits,
            "total": self.total,
            "buckets": [[i, c] for i, c in self.nonzero_buckets()],
        }


class MetricsRegistry:
    """Named instruments, created on first request and shared after."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(name)
            self._histograms[name] = instrument
        return instrument

    @property
    def counters(self) -> dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def to_dict(self) -> dict:
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {
                name: {"value": g.value, "high_watermark": g.high_watermark}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.to_dict() for name, h in sorted(self._histograms.items())
            },
        }
