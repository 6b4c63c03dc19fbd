"""Performance benches: how fast the library itself runs.

Unlike the E-series (which reproduce the paper), these time the hot
paths of the library with pytest-benchmark's statistics — the numbers a
downstream user needs to size their own experiments. No paper claims;
just throughput, and each row asserts the work it timed was done. They
write no file: whole-run throughput, layer by layer, is measured by
``perfbench/`` in same-session pairs (``make bench-pairs``).
"""

import numpy as np

from repro.exchange.book import OrderBook
from repro.protocols.pitch import AddOrder, DeleteOrder, PitchFrameCodec
from repro.sim.kernel import Simulator


def test_perf_kernel_event_throughput(benchmark):
    """Schedule+dispatch cost of the event loop (100k events/round)."""

    def run():
        sim = Simulator()
        for i in range(100_000):
            sim.schedule(after=i + 1, callback=_noop)
        sim.run()
        return sim.events_executed

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == 100_000


def _noop():
    pass


def test_perf_kernel_event_throughput_fast_path(benchmark):
    """The same 100k-event loop through the positional fast path.

    The spread between this row and ``kernel_event_throughput`` is the
    price of the validated keyword wrapper — what a hot caller saves by
    scheduling through ``schedule_after``.
    """

    def run():
        sim = Simulator()
        schedule_after = sim.schedule_after
        for i in range(100_000):
            schedule_after(i + 1, _noop)
        sim.run()
        return sim.events_executed

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == 100_000


def test_perf_pitch_encode_decode(benchmark):
    """Round-trip throughput of the market-data codec (10k messages)."""
    codec = PitchFrameCodec(unit=1)
    messages = [
        AddOrder(i, i, "B", 100, "AAPL", 10_000) if i % 2 else DeleteOrder(i, i)
        for i in range(10_000)
    ]

    def run():
        payloads = codec.pack(messages)
        decoded = 0
        for payload in payloads:
            decoded += len(PitchFrameCodec.unpack(payload)[2])
        return decoded

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == 10_000


def test_perf_order_book_matching(benchmark):
    """Book throughput on a realistic add/cancel/cross mix (30k ops)."""
    rng = np.random.default_rng(1)
    operations = []
    for i in range(30_000):
        roll = rng.random()
        side = "B" if rng.random() < 0.5 else "S"
        price = 10_000 + int(rng.integers(-50, 51)) * 100
        operations.append((roll, side, price, int(rng.integers(1, 10)) * 100))

    def run():
        book = OrderBook("X")
        live = []
        trades = 0
        for i, (roll, side, price, quantity) in enumerate(operations, start=1):
            if roll < 0.3 and live:
                book.cancel(live.pop())
            else:
                result = book.add_order(i, side, price, quantity, "o")
                trades += len(result.fills)
                if result.resting_quantity:
                    live.append(i)
        return trades

    trades = benchmark.pedantic(run, rounds=3, iterations=1)
    assert trades > 1_000


def test_perf_telemetry_overhead_ratio(benchmark):
    """The price of the flight recorder, measured by the kernel profiler.

    Runs the same Design 1 testbed dark and instrumented, both under
    the profiler. The dark run must register *zero* telemetry wall time
    (instrumented hot paths do nothing beyond one ``is not None``
    check); the instrumented run's telemetry share stays a fraction of
    the run.
    """
    from repro.core import build_system
    from repro.sim.kernel import MILLISECOND

    def run_pair():
        dark = build_system(design="design1", seed=1)
        dark_profiler = dark.sim.attach_profiler()
        dark.run(10 * MILLISECOND)

        lit = build_system(design="design1", seed=1, telemetry=True)
        lit_profiler = lit.sim.attach_profiler()
        lit.run(10 * MILLISECOND)

        return dark_profiler.report(), lit_profiler.report()

    dark_report, lit_report = benchmark.pedantic(run_pair, rounds=3, iterations=1)

    # Telemetry off: literally no recording work was measured.
    assert dark_report.telemetry_events == 0
    assert dark_report.telemetry_wall_ns == 0

    # Telemetry on: recording happened, and stayed a fraction of the run.
    assert lit_report.telemetry_events > 0
    assert lit_report.telemetry_wall_ns > 0
    assert 0.0 < lit_report.telemetry_share < 0.9
