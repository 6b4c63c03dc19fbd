"""Tests for the commodity switch: forwarding, mroute tables, fallback."""

import pytest

from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import (
    CommoditySwitch,
    CURRENT_GENERATION,
    DECADE_AGO_GENERATION,
    MrouteOverflow,
    SWITCH_GENERATIONS,
    SwitchProfile,
)
from repro.sim.kernel import Simulator


class Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def handle_packet(self, packet, ingress):
        self.received.append((packet, ingress))


def _fabric(sim, profile=CURRENT_GENERATION, n_hosts=3):
    switch = CommoditySwitch(sim, "sw", profile)
    hosts, links = [], []
    for i in range(n_hosts):
        host = Sink(f"h{i}")
        link = Link(sim, f"l{i}", host, switch, propagation_delay_ns=10)
        switch.attach_link(link)
        hosts.append(host)
        links.append(link)
    return switch, hosts, links


def _packet(dst, src="h0"):
    return Packet(src=EndpointAddress(src), dst=dst, wire_bytes=100, payload_bytes=50)


def test_unicast_follows_fib():
    sim = Simulator()
    switch, hosts, links = _fabric(sim)
    switch.install_route(EndpointAddress("h2"), links[2])
    links[0].send(_packet(EndpointAddress("h2")), hosts[0])
    sim.run()
    assert len(hosts[2].received) == 1
    assert hosts[1].received == []
    assert switch.stats.unicast_forwarded == 1


def test_unicast_without_route_counted_unroutable():
    sim = Simulator()
    switch, hosts, links = _fabric(sim)
    links[0].send(_packet(EndpointAddress("unknown")), hosts[0])
    sim.run()
    assert switch.stats.unroutable == 1


def test_unicast_hairpin_to_ingress_dropped():
    sim = Simulator()
    switch, hosts, links = _fabric(sim)
    switch.install_route(EndpointAddress("h0"), links[0])
    links[0].send(_packet(EndpointAddress("h0")), hosts[0])
    sim.run()
    assert switch.stats.unroutable == 1


def test_forwarding_adds_hop_latency():
    sim = Simulator()
    switch, hosts, links = _fabric(sim)
    switch.install_route(EndpointAddress("h2"), links[2])
    t0_arrivals = []
    hosts[2].handle_packet = lambda p, i: t0_arrivals.append(sim.now)
    links[0].send(_packet(EndpointAddress("h2")), hosts[0])
    sim.run()
    # serialization + prop + hop latency + serialization + prop
    ser = links[0].serialization_ns(100)
    expected = ser + 10 + CURRENT_GENERATION.hop_latency_ns + ser + 10
    assert t0_arrivals == [expected]


def test_store_and_forward_pays_frame_buffering():
    sim = Simulator()
    ct_profile = CURRENT_GENERATION
    sf_profile = SwitchProfile(
        "sf", 2024, ct_profile.port_bandwidth_bps, ct_profile.hop_latency_ns,
        100, 1000, store_and_forward=True,
    )
    ct, ct_hosts, ct_links = _fabric(sim, ct_profile)
    sf, sf_hosts, sf_links = _fabric(sim, sf_profile)
    ct.install_route(EndpointAddress("h1"), ct_links[1])
    sf.install_route(EndpointAddress("h1"), sf_links[1])
    ct_t, sf_t = [], []
    ct_hosts[1].handle_packet = lambda p, i: ct_t.append(sim.now)
    sf_hosts[1].handle_packet = lambda p, i: sf_t.append(sim.now)
    big = _packet(EndpointAddress("h1"))
    big.wire_bytes = 1500
    ct_links[0].send(big, ct_hosts[0])
    sf_links[0].send(big.clone(), sf_hosts[0])
    sim.run()
    assert sf_t[0] > ct_t[0]  # store-and-forward is strictly slower


def test_multicast_copies_to_all_egress_except_ingress():
    sim = Simulator()
    switch, hosts, links = _fabric(sim, n_hosts=4)
    group = MulticastGroup("feed", 0)
    switch.install_mroute(group, {links[1], links[2], links[0]})
    links[0].send(_packet(group), hosts[0])
    sim.run()
    assert len(hosts[1].received) == 1
    assert len(hosts[2].received) == 1
    assert hosts[0].received == []  # no loop back to the ingress
    assert hosts[3].received == []


def test_mroute_overflow_spills_to_software():
    sim = Simulator()
    profile = SwitchProfile("tiny", 2024, 10e9, 500, mroute_capacity=2, fib_capacity=10)
    switch, hosts, links = _fabric(sim, profile)
    for partition in range(4):
        landed_hw = switch.install_mroute(
            MulticastGroup("f", partition), {links[1]}
        )
        assert landed_hw == (partition < 2)
    assert switch.mroute_hw_entries == 2
    assert switch.mroute_sw_entries == 2


def test_mroute_strict_overflow_raises():
    sim = Simulator()
    profile = SwitchProfile("tiny", 2024, 10e9, 500, mroute_capacity=1, fib_capacity=10)
    switch, _, links = _fabric(sim, profile)
    switch.install_mroute(MulticastGroup("f", 0), {links[1]}, strict=True)
    with pytest.raises(MrouteOverflow):
        switch.install_mroute(MulticastGroup("f", 1), {links[1]}, strict=True)


def test_software_forwarding_is_slow_and_lossy_under_load():
    """The §3 failure mode: overflowed groups crawl and drop."""
    sim = Simulator()
    profile = SwitchProfile(
        "tiny", 2024, 10e9, 500, mroute_capacity=0, fib_capacity=10,
        software_latency_ns=20_000, software_queue_packets=8,
    )
    switch, hosts, links = _fabric(sim, profile)
    group = MulticastGroup("f", 0)
    switch.install_mroute(group, {links[1]})  # lands in software
    assert switch.mroute_sw_entries == 1
    arrivals = []
    hosts[1].handle_packet = lambda p, i: arrivals.append(sim.now)
    # Blast 50 frames back-to-back: the 8-deep software queue overflows.
    for _ in range(50):
        links[0].send(_packet(group), hosts[0])
    sim.run()
    assert switch.stats.software_dropped > 0
    assert switch.stats.software_forwarded + switch.stats.software_dropped == 50
    # And what does arrive is far slower than a hardware hop.
    assert arrivals[0] > profile.software_latency_ns


def test_hardware_vs_software_group_on_same_switch():
    sim = Simulator()
    profile = SwitchProfile("tiny", 2024, 10e9, 500, mroute_capacity=1, fib_capacity=10)
    switch, hosts, links = _fabric(sim, profile)
    fast_group = MulticastGroup("fast", 0)
    slow_group = MulticastGroup("slow", 0)
    switch.install_mroute(fast_group, {links[1]})
    switch.install_mroute(slow_group, {links[2]})
    fast_t, slow_t = [], []
    hosts[1].handle_packet = lambda p, i: fast_t.append(sim.now)
    hosts[2].handle_packet = lambda p, i: slow_t.append(sim.now)
    links[0].send(_packet(fast_group), hosts[0])
    links[0].send(_packet(slow_group), hosts[0])
    sim.run()
    assert slow_t[0] - fast_t[0] >= profile.software_latency_ns - profile.hop_latency_ns


def test_mroute_removal():
    sim = Simulator()
    switch, hosts, links = _fabric(sim)
    group = MulticastGroup("f", 0)
    switch.install_mroute(group, {links[1]})
    switch.remove_mroute(group)
    assert switch.mroute_egress(group) is None
    links[0].send(_packet(group), hosts[0])
    sim.run()
    assert switch.stats.unroutable == 1


def test_fib_capacity_enforced():
    sim = Simulator()
    profile = SwitchProfile("tiny", 2024, 10e9, 500, 100, fib_capacity=2)
    switch, _, links = _fabric(sim, profile)
    switch.install_route(EndpointAddress("a"), links[0])
    switch.install_route(EndpointAddress("b"), links[1])
    with pytest.raises(MrouteOverflow):
        switch.install_route(EndpointAddress("c"), links[2])


def test_generation_trends_match_paper():
    """§3: latency ~20% up over a decade; groups only ~80% up; bandwidth
    doubling every generation."""
    latency_ratio = (
        CURRENT_GENERATION.hop_latency_ns / DECADE_AGO_GENERATION.hop_latency_ns
    )
    group_ratio = (
        CURRENT_GENERATION.mroute_capacity / DECADE_AGO_GENERATION.mroute_capacity
    )
    assert 1.15 <= latency_ratio <= 1.25
    assert 1.7 <= group_ratio <= 1.9
    assert CURRENT_GENERATION.hop_latency_ns == 500  # the paper's figure
    for older, newer in zip(SWITCH_GENERATIONS, SWITCH_GENERATIONS[1:]):
        assert newer.port_bandwidth_bps > older.port_bandwidth_bps
        assert newer.hop_latency_ns >= older.hop_latency_ns


def _copies_by_host(sim, links, hosts, group):
    """Send one frame into ``switch`` on links[0]; who got a copy."""
    for host in hosts:
        host.received.clear()
    links[0].send(_packet(group), hosts[0])
    sim.run()
    return {host.name for host in hosts if host.received}


def test_mroute_ports_follow_reinstall_and_removal():
    sim = Simulator()
    switch, hosts, links = _fabric(sim, n_hosts=4)
    group = MulticastGroup("feed", 0)
    switch.install_mroute(group, {links[1]})
    assert _copies_by_host(sim, links, hosts, group) == {"h1"}
    switch.install_mroute(group, {links[2], links[3]})
    assert switch.mroute_egress(group) == {links[2], links[3]}
    assert _copies_by_host(sim, links, hosts, group) == {"h2", "h3"}
    switch.remove_mroute(group)
    assert _copies_by_host(sim, links, hosts, group) == set()
    assert switch.stats.unroutable == 1


def test_unicast_route_reinstall_moves_the_port():
    sim = Simulator()
    switch, hosts, links = _fabric(sim)
    dst = EndpointAddress("h1")
    switch.install_route(dst, links[1])
    switch.install_route(dst, links[2])
    links[0].send(_packet(dst), hosts[0])
    sim.run()
    assert [len(h.received) for h in hosts] == [0, 0, 1]


def test_install_on_a_link_the_switch_is_not_on_names_the_link():
    sim = Simulator()
    switch, hosts, _ = _fabric(sim)
    stray = Link(sim, "stray", hosts[0], hosts[1])
    with pytest.raises(ValueError, match="stray"):
        switch.install_mroute(MulticastGroup("feed", 0), {stray})
    with pytest.raises(ValueError, match="stray"):
        switch.install_route(EndpointAddress("h1"), stray)


def test_copies_follow_the_new_tree_after_a_spine_fails():
    """switch_fail on the tree's spine, then PIM reconvergence
    (reinstall_all): copies leave through the surviving spine."""
    from repro.net.multicast import MulticastFabric
    from repro.net.topology import build_leaf_spine

    sim = Simulator(seed=1)
    topo = build_leaf_spine(sim, 3, 2)
    fabric = MulticastFabric(topo)
    group = MulticastGroup("feed", 0)
    source = topo.hosts["rack0-s0"].nic()
    fabric.announce_server_source(group, source)
    got = []
    for host in ("rack1-s0", "rack2-s1"):
        nic = topo.hosts[host].nic()
        nic.bind(lambda p, host=host: got.append(host))
        fabric.join(group, nic)

    def blast():
        got.clear()
        source.send(Packet(src=source.address, dst=group, wire_bytes=100,
                           payload_bytes=50))
        sim.run()
        return sorted(got)

    assert blast() == ["rack1-s0", "rack2-s1"]
    (old,) = [s for s in topo.spines if s.mroute_egress(group)]
    old.failed = True  # what a switch_fail fault window does
    fabric.reinstall_all()
    (new,) = [s for s in topo.spines if s.mroute_egress(group)]
    assert new is not old and old.mroute_egress(group) is None
    forwarded = new.stats.multicast_forwarded
    assert blast() == ["rack1-s0", "rack2-s1"]
    assert new.stats.multicast_forwarded == forwarded + 1
    assert old.stats.blackholed == 0
