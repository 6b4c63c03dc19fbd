"""E18 — footnote 1, taken seriously: tail latency under bursty load.

"Of course, tail latency matters too, but we'll focus on average
latency." — this bench measures what the footnote waves at. The same
Design 1 system runs a quiet session and one with Figure 2(c)-style
surges past the normalizer's serial per-event capacity (§3's 650 ns
budget). Quiet, the p99 hugs the median; under bursts, every event
behind the surge waits out the backlog, and the tail stretches to the
queue-drain time that simple arithmetic predicts:

    backlog_drain ≈ (arrival_rate − capacity) × burst_len × service_time
"""

import numpy as np
import pytest

from repro.core import build_system
from repro.sim.kernel import MILLISECOND
from repro.telemetry.hdr import LogLinearHistogram

SERVICE_NS = 650  # §3's per-event budget as the normalizer's capacity
QUIET_RATE = 30_000.0
BURST_RATE = 2_400_000.0
BURST_LEN_MS = 4
# ~0.95 PITCH messages per injected flow event: adds/cancels emit one,
# repricings two, and unfilled IOC probes none.
MSGS_PER_EVENT = 0.95
CAPACITY = 1e9 / SERVICE_NS  # messages/s the serial normalizer can absorb
PREDICTED_DRAIN_NS = (
    (BURST_RATE * MSGS_PER_EVENT - CAPACITY) * (BURST_LEN_MS / 1e3) * SERVICE_NS
)


def _bursty_rate(now_ns: int) -> float:
    t_ms = now_ns / MILLISECOND
    if 10 <= t_ms < 10 + BURST_LEN_MS:
        return BURST_RATE
    return QUIET_RATE


def _run(rate) -> list[int]:
    system = build_system(design="design1", seed=18, n_symbols=6, n_strategies=2)
    for normalizer in system.normalizers:
        normalizer.service_time_ns = SERVICE_NS
    system.flow.rate_per_s = rate
    system.run(40 * MILLISECOND)
    return system.roundtrip_samples()


def test_burst_tail_latency(benchmark, experiment_log):
    bursty = benchmark.pedantic(_run, args=(_bursty_rate,), rounds=1, iterations=1)
    quiet = _run(QUIET_RATE)

    q_median, q_p99 = np.median(quiet), np.percentile(quiet, 99)
    b_max = float(np.max(bursty))

    experiment_log.add("E18/tail", "quiet p99/median ratio",
                       1.02, q_p99 / q_median, rel_band=0.10)
    experiment_log.add("E18/tail", "burst tail amplification (max/quiet p99)",
                       PREDICTED_DRAIN_NS / 17_000, b_max / q_p99, rel_band=0.5)
    experiment_log.add("E18/tail", "worst burst delay vs drain model ns",
                       PREDICTED_DRAIN_NS, b_max - q_median, rel_band=0.5)

    # Quiet: the tail hugs the median (no queueing anywhere).
    assert q_p99 < 1.15 * q_median
    # Bursty: the worst round trip is queue-drain-sized — orders of
    # magnitude beyond the quiet tail, exactly as the footnote fears.
    assert b_max > 20 * q_p99
    assert b_max - q_median == pytest.approx(PREDICTED_DRAIN_NS, rel=0.5)


def test_tail_histogram_separates_modes(benchmark, experiment_log):
    samples = benchmark.pedantic(_run, args=(_bursty_rate,), rounds=1, iterations=1)
    hist = LogLinearHistogram()
    hist.record_many(samples)
    # Mass exists both at the quiet mode (~16 us) and deep in the burst
    # tail (hundreds of us): the histogram spans >1 decade.
    spread = hist.max / hist.min
    experiment_log.add("E18/tail", "latency spread max/min x",
                       100.0, spread, rel_band=0.9)
    assert spread > 10
    assert len(hist.nonzero_buckets()) >= 3
    assert hist.percentile(0.99) > 3 * hist.percentile(0.10)
