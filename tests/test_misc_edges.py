"""Edge-path coverage: the branches that only misbehaving inputs reach."""

import pytest

from repro.exchange.publisher import FeedPublisher, alphabetical_scheme
from repro.firm.feedhandler import FeedHandler
from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.protocols.pitch import DeleteOrder, PitchFrameCodec
from repro.sim.kernel import Simulator, format_ns


class Sink:
    def __init__(self, name="sink"):
        self.name = name
        self.received = []

    def handle_packet(self, packet, ingress):
        self.received.append(packet)


def _handler_rig():
    sim = Simulator(seed=1)
    nic = Nic(sim, "nic", EndpointAddress("h", "md"))
    got = []
    handler = FeedHandler(sim, "fh", nic, sink=lambda g, m: got.append(m))
    return sim, nic, handler, got


class TestFeedHandlerEdges:
    def test_corrupt_payload_counted_not_fatal(self):
        sim, nic, handler, got = _handler_rig()
        group = MulticastGroup("f", 0)
        handler.subscribe(group)
        handler._on_packet(
            Packet(src=EndpointAddress("x"), dst=group,
                   wire_bytes=100, payload_bytes=20, message=b"\xff" * 20)
        )
        assert handler.stats.decode_errors == 1
        assert got == []

    def test_non_bytes_payload_ignored(self):
        sim, nic, handler, got = _handler_rig()
        group = MulticastGroup("f", 0)
        handler.subscribe(group)
        handler._on_packet(
            Packet(src=EndpointAddress("x"), dst=group,
                   wire_bytes=100, payload_bytes=20, message=("not", "bytes"))
        )
        assert handler.stats.payloads == 0

    def test_unicast_packets_ignored(self):
        sim, nic, handler, got = _handler_rig()
        handler._on_packet(
            Packet(src=EndpointAddress("x"), dst=EndpointAddress("h", "md"),
                   wire_bytes=100, payload_bytes=20, message=b"anything")
        )
        assert handler.stats.payloads == 0


class TestStrategyEdges:
    def test_non_itf_market_data_ignored(self):
        from repro.core import build_system

        system = build_system(design="design1", seed=1)
        strategy = system.strategies[0]
        before = strategy.stats.updates_in
        strategy._on_md_packet(
            Packet(src=EndpointAddress("x"), dst=strategy.md_nic.address,
                   wire_bytes=100, payload_bytes=20, message=b"garbage")
        )
        assert strategy.stats.updates_in == before


class TestOrderEntryEdges:
    def test_non_bytes_order_packet_ignored(self):
        from repro.core import build_system

        system = build_system(design="design1", seed=1)
        port = system.exchange.order_entry
        before = port.stats.requests
        port._on_packet(
            Packet(src=EndpointAddress("x"), dst=port.nic.address,
                   wire_bytes=100, payload_bytes=20, message={"not": "boe"})
        )
        assert port.stats.requests == before


class TestSwitchEdges:
    def test_egress_queue_overflow_counted_at_switch(self):
        from repro.net.switch import CommoditySwitch, CURRENT_GENERATION

        sim = Simulator(seed=1)
        switch = CommoditySwitch(sim, "sw", CURRENT_GENERATION)
        src, dst = Sink("src"), Sink("dst")
        l_in = Link(sim, "in", src, switch, propagation_delay_ns=0)
        # A thin, tiny-queue egress: frames pile up and overflow.
        l_out = Link(sim, "out", switch, dst, bandwidth_bps=1e6,
                     propagation_delay_ns=0, queue_limit_bytes=2_000)
        switch.attach_link(l_in)
        switch.attach_link(l_out)
        switch.install_route(EndpointAddress("dst"), l_out)
        for _ in range(50):
            l_in.send(
                Packet(src=EndpointAddress("src"), dst=EndpointAddress("dst"),
                       wire_bytes=1_000, payload_bytes=900),
                src,
            )
        sim.run_until_idle()
        assert switch.stats.egress_send_failures > 0
        assert len(dst.received) + switch.stats.egress_send_failures == 50


class TestPublisherEdges:
    def test_unit_payload_message_cap(self):
        codec = PitchFrameCodec(unit=1, max_payload=65_000)
        messages = [DeleteOrder(0, i) for i in range(300)]
        with pytest.raises(ValueError):
            codec._finish([m.encode() for m in messages], 8 + 300 * 14)

    def test_publish_empty_is_noop(self):
        sim = Simulator(seed=1)
        nic = Nic(sim, "nic", EndpointAddress("x", "feed"))
        nic.attach(Link(sim, "l", nic, Sink()))
        publisher = FeedPublisher(
            sim, "pub", "F", alphabetical_scheme(1), nic
        )
        publisher.publish("AAPL", [])
        sim.run_until_idle()
        assert publisher.stats.frames == 0


class TestKernelFormatting:
    def test_format_ns_boundaries(self):
        assert format_ns(0) == "0ns"
        assert format_ns(999) == "999ns"
        assert format_ns(1_000) == "1.000us"
        assert format_ns(999_999_999) == "1000.000ms"


class TestItfEdges:
    def test_symbol_table_capacity(self):
        from repro.protocols.itf import ItfCodec

        codec = ItfCodec("compact")
        codec._symbol_to_id = {f"S{i}": i for i in range(65_536)}
        with pytest.raises(ValueError):
            codec.intern("OVERFLOW", 100)

    def test_decode_unknown_compact_symbol(self):
        from repro.protocols.itf import ItfCodec, ItfDecodeError, NormalizedUpdate

        sender = ItfCodec("compact")
        sender.intern("AAPL", 10_000)
        buf = sender.encode(NormalizedUpdate("AAPL", 1, "Q", 9_900, 1, 10_100, 1, 0))
        receiver = ItfCodec("compact")  # never interned anything
        with pytest.raises(ItfDecodeError):
            receiver.decode(buf)


class TestColdImports:
    """Guard against package-level import cycles (they only bite on a
    cold interpreter with a specific entry order, so tests that import
    everything up front can miss them)."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro.sim", "repro.net", "repro.protocols", "repro.exchange",
            "repro.firm", "repro.workload", "repro.timing", "repro.mgmt",
            "repro.core", "repro.analysis", "repro.mgmt.capacity",
        ],
    )
    def test_cold_import(self, module):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
