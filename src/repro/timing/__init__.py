"""Time: latency accounting.

§2: "For both monitoring and research, trading firms want to record their
network traffic with precise timestamps. Timestamps are used to calculate
a strategy's latency by subtracting the time at which the strategy sends
an order from the time at which the strategy's most recent input event
arrived. ... Some trading firms desire precision below 100 picoseconds."

This package provides the latency-attribution logic that turns
timestamp trails into the paper's latency numbers. The simulator's clock
is exact integer nanoseconds, so every timestamp is already true time.
"""

from repro.timing.latency import LatencyRecorder, LatencyStats, summarize

__all__ = [
    "LatencyRecorder",
    "LatencyStats",
    "summarize",
]
