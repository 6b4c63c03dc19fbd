"""Windowed time-series: bin events into fixed sim-time windows.

Fig. 2(b) of the paper bins one stock's BBO events into 1-second
windows; Fig. 2(c) bins the busiest second into 100 µs windows (median
129, peak 1066 events ⇒ a ~100 ns/event processing budget). The
:class:`WindowedRecorder` reproduces that view inside a run: every
counted event and every gauge sample lands in the window containing its
virtual timestamp, so a finished run can show *burst structure*, not
just end-of-run totals.

Memory is bounded by coalescing: when an event's window index would
exceed ``max_windows``, the recorder doubles its window width and folds
every existing window into its half-index (counts add, gauge maxima take
the max). Coalescing preserves the core invariant the report CLI checks:
**the per-window counts of a series always sum to the total number of
events recorded against it**, at every width.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import MICROSECOND, SECOND

#: Fig. 2(b) preset — one-second windows over the whole run.
FIG2B_WINDOW_NS = SECOND
#: Fig. 2(c) preset — 100 µs windows inside the busiest second.
FIG2C_WINDOW_NS = 100 * MICROSECOND

#: Default cap on live windows before the recorder coalesces.
DEFAULT_MAX_WINDOWS = 4096


@dataclass(frozen=True, slots=True)
class WindowPoint:
    """One non-empty window of a series: index, start time, and value."""

    index: int
    start_ns: int
    value: int


class _Series:
    """One named series: sparse window→value map plus a running total."""

    __slots__ = ("name", "kind", "windows", "total")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind  # "count" or "max"
        self.windows: dict[int, int] = {}
        self.total = 0

    def record_max(self, idx: int, value: int) -> None:
        """Fold a gauge level into window ``idx`` (a "max" series)."""
        windows = self.windows
        prev = windows.get(idx)
        if prev is None or value > prev:
            windows[idx] = value
        if value > self.total:
            self.total = value

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def coalesce(self) -> None:
        """Fold each window into its half-index (width just doubled)."""
        folded: dict[int, int] = {}
        if self.kind == "count":
            for idx, value in self.windows.items():
                half = idx // 2
                folded[half] = folded.get(half, 0) + value
        else:
            for idx, value in self.windows.items():
                half = idx // 2
                prev = folded.get(half)
                if prev is None or value > prev:
                    folded[half] = value
        self.windows = folded


class WindowedRecorder:
    """Bins counter increments and gauge samples into sim-time windows.

    Window boundaries are half-open: an event at exactly
    ``k * window_ns`` lands in window ``k``, never ``k - 1``. Widths
    only grow (by doubling), so a recorder created at the Fig. 2(c)
    preset degrades gracefully on runs much longer than it was sized
    for instead of exhausting memory.
    """

    __slots__ = ("window_ns", "max_windows", "coalesce_count", "_series")

    def __init__(
        self, window_ns: int = FIG2C_WINDOW_NS, max_windows: int = DEFAULT_MAX_WINDOWS
    ):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if max_windows < 2:
            raise ValueError("max_windows must be at least 2")
        self.window_ns = window_ns
        self.max_windows = max_windows
        self.coalesce_count = 0
        self._series: dict[str, _Series] = {}

    # -- recording ----------------------------------------------------

    def record_count(self, name: str, now_ns: int, amount: int = 1) -> None:
        """Add ``amount`` events at virtual time ``now_ns`` to ``name``."""
        series = self._series.get(name)
        if series is None:
            series = _Series(name, "count")
            self._series[name] = series
        idx = self._fit(now_ns)
        series.windows[idx] = series.windows.get(idx, 0) + amount
        series.total += amount

    def record_sample(self, name: str, now_ns: int, value: int) -> None:
        """Record a gauge level at ``now_ns``; windows keep the maximum."""
        self.sampler(name).record_max(self._fit(now_ns), value)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def sampler(self, name: str) -> _Series:
        """The "max" series ``name``, created on first use.

        A caller that samples one name often may hold the series and
        call ``series.record_max(recorder._fit(now_ns), value)`` itself:
        that is exactly :meth:`record_sample` without the name lookup.
        """
        series = self._series.get(name)
        if series is None:
            series = _Series(name, "max")
            self._series[name] = series
        return series

    def _fit(self, now_ns: int) -> int:
        """Window index for ``now_ns``, coalescing until it is in range."""
        idx = now_ns // self.window_ns
        while idx >= self.max_windows:
            self.window_ns *= 2
            self.coalesce_count += 1
            for series in self._series.values():
                series.coalesce()
            idx = now_ns // self.window_ns
        return idx

    # -- reading ------------------------------------------------------

    @property
    def series_names(self) -> list[str]:
        return sorted(self._series)

    def kind(self, name: str) -> str:
        """``"count"`` or ``"max"`` — how ``name``'s windows aggregate."""
        return self._series[name].kind

    def total(self, name: str) -> int:
        """Sum of all events (count series) or all-time max (max series)."""
        series = self._series.get(name)
        return series.total if series is not None else 0

    def points(self, name: str) -> list[WindowPoint]:
        """Non-empty windows of ``name``, in time order."""
        series = self._series.get(name)
        if series is None:
            return []
        return [
            WindowPoint(index=idx, start_ns=idx * self.window_ns, value=value)
            for idx, value in sorted(series.windows.items())
        ]

    def counts_array(self, name: str) -> list[int]:
        """Dense per-window values from window 0 through the last non-empty
        window, with explicit zeros for empty windows between bursts."""
        series = self._series.get(name)
        if series is None or not series.windows:
            return []
        last = max(series.windows)
        return [series.windows.get(idx, 0) for idx in range(last + 1)]

    def busiest(self, name: str) -> WindowPoint | None:
        """The window with the largest value (earliest wins ties)."""
        best: WindowPoint | None = None
        for point in self.points(name):
            if best is None or point.value > best.value:
                best = point
        return best

    def to_dict(self) -> dict:
        """Plain-dict export, one entry per series, windows in time order."""
        return {
            "window_ns": self.window_ns,
            "max_windows": self.max_windows,
            "coalesce_count": self.coalesce_count,
            "series": {
                name: {
                    "kind": series.kind,
                    "total": series.total,
                    "windows": [
                        {
                            "index": idx,
                            "start_ns": idx * self.window_ns,
                            "value": value,
                        }
                        for idx, value in sorted(series.windows.items())
                    ],
                }
                for name, series in sorted(self._series.items())
            },
        }
