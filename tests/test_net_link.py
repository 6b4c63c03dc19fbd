"""Tests for the link model: serialization, queueing, loss, propagation."""

import pytest

from repro.net.addressing import EndpointAddress
from repro.net.link import (
    ETHERNET_OVERHEAD_BYTES,
    Link,
    SPEED_IN_FIBER,
    SPEED_MICROWAVE,
    fiber_link,
    microwave_link,
    propagation_ns,
)
from repro.net.packet import Packet
from repro.sim.kernel import Simulator


class Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def handle_packet(self, packet, ingress):
        self.received.append(packet)


def _packet(wire=1000, payload=900):
    return Packet(
        src=EndpointAddress("a"), dst=EndpointAddress("b"),
        wire_bytes=wire, payload_bytes=payload,
    )


def _wire(sim, **kwargs):
    a, b = Sink("a"), Sink("b")
    defaults = dict(bandwidth_bps=10e9, propagation_delay_ns=100)
    defaults.update(kwargs)
    link = Link(sim, "l", a, b, **defaults)
    return link, a, b


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    link, a, b = _wire(sim)
    packet = _packet(wire=1000)
    arrivals = []
    b.handle_packet = lambda p, i: arrivals.append(sim.now)
    link.send(packet, a)
    sim.run()
    expected_ser = round((1000 + ETHERNET_OVERHEAD_BYTES) * 8 / 10e9 * 1e9)
    assert arrivals == [expected_ser + 100]


def test_serialization_scales_with_bandwidth():
    sim = Simulator()
    slow, a, _ = _wire(sim, bandwidth_bps=1e9)
    fast, c, _ = _wire(sim, bandwidth_bps=100e9)
    assert slow.serialization_ns(1000) == pytest.approx(
        100 * fast.serialization_ns(1000), rel=0.01
    )


def test_back_to_back_frames_queue_behind_transmitter():
    sim = Simulator()
    link, a, b = _wire(sim, propagation_delay_ns=0)
    arrivals = []
    b.handle_packet = lambda p, i: arrivals.append(sim.now)
    for _ in range(3):
        link.send(_packet(wire=1000), a)
    sim.run()
    ser = link.serialization_ns(1000)
    assert arrivals == [ser, 2 * ser, 3 * ser]
    stats = link.stats_from(a)
    assert stats.packets_sent == 3
    # The second and third frames waited in the queue.
    assert stats.queue_delay_total_ns == ser + 2 * ser
    assert stats.queue_delay_max_ns == 2 * ser


def test_full_duplex_directions_are_independent():
    sim = Simulator()
    link, a, b = _wire(sim)
    a_got, b_got = [], []
    a.handle_packet = lambda p, i: a_got.append(sim.now)
    b.handle_packet = lambda p, i: b_got.append(sim.now)
    link.send(_packet(), a)
    link.send(_packet(), b)
    sim.run()
    # Both directions delivered at the same time: no shared contention.
    assert a_got == b_got


def test_queue_limit_drops_tail():
    sim = Simulator()
    link, a, b = _wire(sim, queue_limit_bytes=2500)
    accepted = [link.send(_packet(wire=1000), a) for _ in range(4)]
    # First starts transmitting immediately (still counted in queue until
    # started); two more fit in 2500B; the fourth is tail-dropped.
    assert accepted.count(False) >= 1
    stats = link.stats_from(a)
    assert stats.packets_dropped_queue >= 1
    sim.run()
    assert len(b.received) + stats.packets_dropped_queue == 4


def test_lossy_link_drops_at_configured_rate():
    sim = Simulator(seed=42)
    link, a, b = _wire(sim, loss_prob=0.3, propagation_delay_ns=1)
    n = 2000
    for _ in range(n):
        link.send(_packet(wire=100, payload=50), a)
    sim.run()
    loss_rate = link.stats_from(a).packets_lost / n
    assert 0.25 < loss_rate < 0.35
    assert len(b.received) == n - link.stats_from(a).packets_lost


def test_zero_loss_link_delivers_everything():
    sim = Simulator()
    link, a, b = _wire(sim)
    for _ in range(50):
        link.send(_packet(), a)
    sim.run()
    assert len(b.received) == 50


def test_utilization_reflects_busy_time():
    sim = Simulator()
    link, a, b = _wire(sim, propagation_delay_ns=0)
    link.send(_packet(wire=1000), a)
    sim.run()
    ser = link.serialization_ns(1000)
    assert link.stats_from(a).utilization(2 * ser) == pytest.approx(0.5)


def test_propagation_physics():
    # 50 km of fiber is ~250 us; microwave over the same path is faster.
    fiber_ns = propagation_ns(50_000, SPEED_IN_FIBER)
    microwave_ns = propagation_ns(50_000, SPEED_MICROWAVE)
    assert 240_000 < fiber_ns < 260_000
    assert microwave_ns < fiber_ns * 0.7


def test_microwave_vs_fiber_link_factories():
    sim = Simulator()
    a, b = Sink("a"), Sink("b")
    mw = microwave_link(sim, "mw", a, b, distance_m=50_000)
    fb = fiber_link(sim, "fb", Sink("c"), Sink("d"), distance_m=50_000)
    # Microwave wins on latency (straight path + air) despite loss.
    assert mw.propagation_delay_ns < fb.propagation_delay_ns
    assert mw.loss_prob > 0.0
    assert fb.loss_prob == 0.0
    assert mw.bandwidth_bps < fb.bandwidth_bps


def test_send_from_unattached_device_rejected():
    sim = Simulator()
    link, a, b = _wire(sim)
    with pytest.raises(ValueError):
        link.send(_packet(), Sink("stranger"))
    with pytest.raises(ValueError):
        link.stats_from(Sink("stranger"))
    assert link.other_end(a) is b


def test_link_validation():
    sim = Simulator()
    a, b = Sink("a"), Sink("b")
    with pytest.raises(ValueError):
        Link(sim, "bad", a, b, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, "bad", a, b, loss_prob=1.5)
    with pytest.raises(ValueError):
        Link(sim, "bad", a, a)


def test_port_send_matches_link_send():
    """A port resolved once behaves exactly like naming the sender."""
    outcomes = []
    for via_port in (False, True):
        sim = Simulator()
        link, a, b = _wire(sim, queue_limit_bytes=2500)
        arrivals = []
        b.handle_packet = lambda p, i, arrivals=arrivals: arrivals.append(sim.now)
        port = link.port(a)
        accepted = [
            port.send(_packet()) if via_port else link.send(_packet(), a)
            for _ in range(4)
        ]
        sim.run()
        outcomes.append((accepted, arrivals, vars(link.stats_from(a))))
    assert outcomes[0] == outcomes[1]
    accepted, arrivals, stats = outcomes[1]
    assert accepted == [True, True, True, False]  # the fourth overflows
    assert stats["packets_dropped_queue"] == 1 and len(arrivals) == 3


def test_port_of_unattached_device_names_the_link():
    sim = Simulator()
    link, a, b = _wire(sim)
    assert link.port(a) is not link.port(b)
    assert link.port(a).sink is b
    with pytest.raises(ValueError, match="not attached to link l$"):
        link.port(Sink("stranger"))


@pytest.mark.parametrize("bandwidth_bps", [1e9, 10e9, 25e9])
@pytest.mark.parametrize("frame_bytes", [64, 100, 1518])
def test_line_time_formula(frame_bytes, bandwidth_bps):
    sim = Simulator()
    link, _, _ = _wire(sim, bandwidth_bps=bandwidth_bps)
    expected = max(1, round((frame_bytes + 20) * 8 / bandwidth_bps * 1e9))
    assert link.serialization_ns(frame_bytes) == expected
    assert link.serialization_ns(frame_bytes) == expected  # memoised


def test_line_time_follows_a_link_rate_fault_window():
    """The line-time memo is cleared when chaos degrades the link and
    again when it restores it."""
    from repro.chaos.inject import ChaosController
    from repro.chaos.spec import FaultSpec

    sim = Simulator()
    link, a, b = _wire(sim)
    ChaosController(sim, None, (FaultSpec("link_rate", "l", 1_000, 10_000, 0.1),))
    serialized = []
    for at in (0, 2_000, 20_000):
        sim.schedule_at(at, lambda: link.send(_packet(wire=1000), a))
        sim.schedule_at(at + 1, lambda: serialized.append(link.stats_from(a).busy_ns))
    sim.run()
    full_rate = link.serialization_ns(1000)
    assert full_rate == 816
    assert serialized == [full_rate, full_rate * 11, full_rate * 12]
    assert link.bandwidth_bps == 10e9
