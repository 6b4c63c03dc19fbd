"""Tests for the cross-colo (Carteret exchange / Mahwah firm) system."""

import numpy as np
import pytest

from repro.core import build_system
from repro.sim.kernel import MILLISECOND


@pytest.fixture(scope="module")
def system():
    # The wan spec knobs that differ from the SystemSpec defaults are
    # pinned to the historical cross-colo builder's values.
    system = build_system(
        design="wan", seed=3, n_strategies=2,
        flow_rate_per_s=30_000.0, firm_partitions=4,
    )
    system.run(40 * MILLISECOND)
    return system


def test_market_data_crosses_the_metro(system):
    assert system.normalizers[0].stats.messages_in > 100
    assert all(s.stats.updates_in > 100 for s in system.strategies)
    # The microwave leg really lost frames; the fiber leg backstopped.
    mw_stats = system.microwave.stats_from(system.microwave.end_a)
    assert mw_stats.packets_lost > 0


def test_orders_complete_the_remote_loop(system):
    assert len(system.roundtrip_samples()) > 10
    assert sum(s.stats.fills for s in system.strategies) > 0
    assert system.exchange.order_entry.stats.acks > 0


def test_round_trip_is_two_metro_traversals(system):
    stats = system.roundtrip_stats()
    one_way = system.metro.microwave_latency_ns("carteret", "mahwah")
    # Median: two microwave crossings plus ~10-15 us of local processing.
    assert 2 * one_way < stats.median < 2 * one_way + 30_000
    # The floor can never beat the physics.
    assert stats.minimum > 2 * one_way


def test_loss_shows_up_in_the_tail_not_the_median(system):
    """A lost order frame costs a full RTO: visible at p99, invisible at
    the median — the §2 microwave trade in latency-distribution form."""
    stats = system.roundtrip_stats()
    retransmits = (
        system.order_channel_firm.stats.retransmits
        + system.order_channel_exchange.stats.retransmits
    )
    assert retransmits > 0
    assert stats.p99 > stats.median + system.order_channel_firm.rto_ns / 2
    assert stats.median < 1.1 * np.min(system.roundtrip_samples())


def test_no_orders_lost_despite_wan_loss(system):
    """Reliability end to end: every order the gateway tunneled arrived."""
    assert (
        system.order_channel_firm.stats.sent
        == system.exchange.order_entry.stats.requests
    )
    assert system.order_channel_firm.stats.failures == 0


def test_remote_vs_local_latency_gap(system):
    """The remote round trip is ~25x a local Design-1 loop — why firms
    place servers in every colo instead of trading remotely (§2)."""
    local = build_system(design="design1", seed=3)
    local.run(30 * MILLISECOND)
    assert system.roundtrip_stats().median > 20 * local.roundtrip_stats().median
