"""Tests for the packet model."""

import pytest

from repro.net.addressing import EndpointAddress, MulticastGroup, is_multicast
from repro.net.packet import MAX_FRAME_BYTES, MIN_FRAME_BYTES, Packet


def _packet(wire=100, payload=54):
    return Packet(
        src=EndpointAddress("a"),
        dst=EndpointAddress("b"),
        wire_bytes=wire,
        payload_bytes=payload,
    )


def test_runt_frames_padded_to_minimum():
    packet = _packet(wire=20, payload=10)
    assert packet.wire_bytes == MIN_FRAME_BYTES


def test_oversize_frame_rejected():
    with pytest.raises(ValueError):
        _packet(wire=MAX_FRAME_BYTES + 1, payload=10)


def test_payload_must_fit_in_frame():
    with pytest.raises(ValueError):
        _packet(wire=100, payload=200)
    with pytest.raises(ValueError):
        _packet(wire=100, payload=-1)


def test_header_accounting():
    packet = _packet(wire=100, payload=54)
    assert packet.header_bytes == 46
    assert packet.header_fraction == pytest.approx(0.46)


def test_header_fraction_in_paper_band_for_typical_pitch_frame():
    # A typical mid-day PITCH frame: 54 B overhead + ~40 B of messages.
    packet = _packet(wire=92, payload=38)
    assert 0.25 <= packet.header_fraction <= 0.60


def test_packet_ids_unique():
    assert _packet().packet_id != _packet().packet_id


def test_stamp_and_trail_queries():
    packet = _packet()
    packet.stamp("nic.tx.a", 10)
    packet.stamp("switch.s1", 20)
    packet.stamp("switch.s2", 30)
    packet.stamp("nic.rx.b", 40)
    assert packet.first_stamp("switch") == 20
    assert packet.last_stamp("switch") == 30
    assert packet.first_stamp("nic") == 10
    assert packet.first_stamp("tap") is None
    assert packet.last_stamp("tap") is None


def test_clone_copies_trail_with_fresh_identity():
    packet = _packet()
    packet.stamp("x", 1)
    copy = packet.clone()
    assert copy.packet_id != packet.packet_id
    assert copy.trail == packet.trail
    copy.stamp("y", 2)
    assert len(packet.trail) == 1  # trails are independent after cloning


def test_multicast_destination_flag():
    group = MulticastGroup("feed", 3)
    packet = Packet(
        src=EndpointAddress("a"), dst=group, wire_bytes=100, payload_bytes=50
    )
    assert is_multicast(packet.dst)
    assert not is_multicast(packet.src)


def test_addresses_are_value_types():
    assert EndpointAddress("h", "eth0") == EndpointAddress("h", "eth0")
    assert MulticastGroup("f", 1) == MulticastGroup("f", 1)
    assert MulticastGroup("f", 1) != MulticastGroup("f", 2)
    assert str(MulticastGroup("f", 1)) == "mcast:f/1"
    assert str(EndpointAddress("h", "md")) == "h:md"


def test_negative_partition_rejected():
    with pytest.raises(ValueError):
        MulticastGroup("f", -1)


def test_clone_contract():
    """clone() skips the constructor; the copy must still be a faithful
    Packet: fresh rising id, equal fields, own trail, forked trace."""
    from dataclasses import fields

    from repro.telemetry.context import TraceContext

    packet = Packet(
        src=EndpointAddress("a"), dst=MulticastGroup("feed", 2),
        wire_bytes=300, payload_bytes=200, message=("itf", 7), seqno=41,
        created_at=1234,
    )
    packet.stamp("nic.tx.a", 1300)
    packet.trace = TraceContext(begin_ns=1234)
    packet.trace.record("nic.a", "nic", 1300)
    first, second = packet.clone(), packet.clone()
    assert packet.packet_id < first.packet_id < second.packet_id
    for f in fields(Packet):
        if f.name not in ("packet_id", "trail", "trace"):
            assert getattr(first, f.name) == getattr(packet, f.name), f.name
    assert first.trail == packet.trail and first.trail is not packet.trail
    assert first.trace is not packet.trace
    assert first.trace.parent_id == packet.trace.trace_id
    assert first.trace.begin_ns == packet.trace.begin_ns
    assert first.trace.events == packet.trace.events
    first.trace.record("switch.s", "switch", 1800)
    assert len(packet.trace.events) == 1 and len(second.trace.events) == 1

    plain = _packet(wire=20, payload=10)  # a runt, padded at construction
    copy = plain.clone()
    assert copy.trace is None
    assert copy.wire_bytes == MIN_FRAME_BYTES
    assert copy.header_bytes == plain.header_bytes
