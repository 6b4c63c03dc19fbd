"""Fully-simulated end-to-end trading systems on the §4 designs.

Every design runs the same loop — exchange → normalizers → strategies →
gateway → exchange — with ambient order flow driving the exchange; the
designs differ only in the network between those hops. :func:`assemble`
builds the loop once, over a :class:`Fabric` that makes the endpoint
NICs, wires the network between them, and joins NICs to multicast
groups. Each design is then a short fabric definition: leaf-spine
(Design 1, here), the equalized cloud (Design 2,
:mod:`repro.core.cloud`), layer-1 switches (Design 3), FPGA-enhanced
layer-1 switches (Design 4) and the cross-colo metro WAN
(:mod:`repro.core.wan_testbed`). The round trip the paper analyzes is
*measured* (via client timestamps echoed to the exchange edge) rather
than modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.api import register_builder
from repro.exchange.exchange import Exchange
from repro.exchange.publisher import alphabetical_scheme, hashed_scheme
from repro.firm.gateway import OrderGateway
from repro.firm.normalizer import Normalizer
from repro.firm.strategy import MomentumStrategy, Strategy
from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.fpga_l1s import FilteringL1Switch
from repro.net.l1switch import Layer1Switch, MergeUnit
from repro.net.link import Link, PacketSink
from repro.net.multicast import MulticastFabric
from repro.net.nic import HostStack, Nic
from repro.net.routing import compute_unicast_routes
from repro.net.topology import LeafSpineTopology, build_leaf_spine
from repro.sim.kernel import MICROSECOND, MILLISECOND, Simulator
from repro.timing.latency import LatencyRecorder, LatencyStats, summarize
from repro.workload.orderflow import OrderFlowGenerator
from repro.workload.symbols import SymbolUniverse, make_universe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cloud import CloudFabric
    from repro.core.config import SystemSpec
    from repro.exchange.colo import MetroRegion
    from repro.net.reliable import ReliableChannel

EXCHANGE_ID = 1
EXCHANGE_KEY = f"exch{EXCHANGE_ID}"  # how strategies address the venue


@dataclass
class TradingSystem:
    """Handles to every component of a built system.

    The network handles are filled by the design's fabric: ``topology``
    and ``fabric`` on Design 1, ``cloud`` on Design 2, ``l1_switches``
    and ``merge_units`` on Designs 3 and 4, ``fpga_switches`` on
    Design 4, and the metro, its two feed legs and the order channel's
    ends on the cross-colo WAN build.
    """

    sim: Simulator
    exchange: Exchange
    normalizers: list[Normalizer]
    strategies: list[Strategy]
    gateway: OrderGateway
    flow: OrderFlowGenerator
    recorder: LatencyRecorder
    universe: SymbolUniverse
    topology: LeafSpineTopology | None = None
    fabric: MulticastFabric | None = None
    cloud: CloudFabric | None = None
    l1_switches: list[Layer1Switch] = field(default_factory=list)
    merge_units: list[MergeUnit] = field(default_factory=list)
    fpga_switches: list[FilteringL1Switch] = field(default_factory=list)
    metro: MetroRegion | None = None
    microwave: Link | None = None
    fiber: Link | None = None
    order_channel_firm: ReliableChannel | None = None
    order_channel_exchange: ReliableChannel | None = None

    def run(self, duration_ns: int = 50 * MILLISECOND) -> None:
        """Start the flow and run the simulation for ``duration_ns``."""
        self.flow.start()
        self.sim.run(until=self.sim.now + duration_ns)

    def roundtrip_samples(self) -> list[int]:
        """Exchange-edge round-trip samples (event time → order arrival)."""
        return list(self.exchange.order_entry.roundtrip_samples)

    def roundtrip_stats(self) -> LatencyStats:
        return summarize(self.roundtrip_samples())


@dataclass
class FirmNics:
    """The endpoint NICs of the loop, as :func:`assemble` made them."""

    exchange_feed: Nic
    exchange_orders: Nic
    norm_md: list[Nic]
    norm_pub: list[Nic]
    strat_md: list[Nic]
    strat_orders: list[Nic]
    gw_strat: Nic
    gw_exch: Nic


class Fabric:
    """The network between the loop's hops; one subclass per design.

    A fabric has three jobs: make the endpoint NIC for a host and role
    (:meth:`nic`), wire the network once every NIC exists
    (:meth:`wire`), and join a NIC to a multicast group (:meth:`join`,
    which :meth:`FeedHandler.subscribe
    <repro.firm.feedhandler.FeedHandler.subscribe>` and
    :meth:`Strategy.subscribe <repro.firm.strategy.Strategy.subscribe>`
    call). The defaults suit point-to-point networks: standalone NICs,
    nothing to wire, and membership as a NIC filter only. ``handles``
    collects the :class:`TradingSystem` fields the fabric fills.

    The class flags are the per-design rules :func:`assemble` applies.
    """

    #: Run one normalizer whatever ``spec.n_normalizers`` says.
    one_normalizer = False
    #: The fabric carries the firm's own multicast. Without it the
    #: normalizer sends one unicast copy per strategy and strategies
    #: subscribe to nothing.
    tenant_multicast = True
    #: Honour ``spec.subscriptions_per_strategy``.
    limits_subscriptions = False

    def __init__(self, sim: Simulator, spec: SystemSpec):
        self.sim = sim
        self.spec = spec
        self.handles: dict[str, object] = {}

    def nic(self, host: str, role: str) -> Nic:
        return Nic(self.sim, f"nic.{host}:{role}", EndpointAddress(host, role))

    def wire(self, nics: FirmNics, exchange: Exchange) -> None:
        """Build the network between ``nics``; called once all exist."""

    def join(self, group: MulticastGroup, nic: Nic) -> None:
        nic.join_group(group)

    def link(self, name: str, end_a: PacketSink, end_b: PacketSink) -> Link:
        """A default cross-connect, attached to whichever ends are NICs."""
        link = Link(self.sim, name, end_a, end_b)
        for end in (end_a, end_b):
            if isinstance(end, Nic):
                end.attach(link)
        return link


def assemble(spec: SystemSpec, fabric_type: type[Fabric]) -> TradingSystem:
    """Build ``spec``'s firm stack over a ``fabric_type`` network.

    Construction order is part of the result: multicast membership order
    sets fan-out order, and fan-out order sets the kernel's tie-breaks.
    """
    sim = Simulator(seed=spec.seed, telemetry=spec.telemetry)
    universe = make_universe(spec.n_symbols, seed=spec.seed)
    fabric = fabric_type(sim, spec)
    n_normalizers = 1 if fabric.one_normalizer else spec.n_normalizers

    nic = fabric.nic
    exchange_feed, exchange_orders = nic("exchange", "feed"), nic("exchange", "orders")
    norms = [(nic(f"norm{i}", "md"), nic(f"norm{i}", "pub")) for i in range(n_normalizers)]
    strats = [
        (nic(f"strat{i}", "md"), nic(f"strat{i}", "orders"))
        for i in range(spec.n_strategies)
    ]
    nics = FirmNics(
        exchange_feed, exchange_orders,
        norm_md=[md for md, _ in norms], norm_pub=[pub for _, pub in norms],
        strat_md=[md for md, _ in strats], strat_orders=[orders for _, orders in strats],
        gw_strat=nic("gw0", "strat"), gw_exch=nic("gw0", "exch"),
    )

    exchange = Exchange(
        sim,
        EXCHANGE_KEY,
        list(universe.names),
        alphabetical_scheme(spec.exchange_partitions),
        feed_nic_a=exchange_feed,
        orders_nic=exchange_orders,
        matching_latency_ns=spec.matching_latency_ns,
        coalesce_window_ns=MICROSECOND,
    )
    fabric.wire(nics, exchange)

    if fabric.tenant_multicast:
        firm_scheme, recipients = hashed_scheme(spec.firm_partitions), None
    else:
        # Partitioning buys nothing without multicast (§4.2).
        firm_scheme = hashed_scheme(1)
        recipients = [md.address for md in nics.strat_md]
    normalizers = []
    for i, (rx, tx) in enumerate(norms):
        normalizer = Normalizer(
            sim, f"norm{i}", EXCHANGE_ID, rx, tx, "norm", firm_scheme,
            function_latency_ns=spec.function_latency_ns,
            unicast_recipients=recipients,
        )
        # Normalizers split the exchange feed: each owns a subset of the
        # exchange's partitions (the partitioned-workload model of §3).
        for group in exchange.publisher.groups:
            if group.partition % n_normalizers == i:
                normalizer.feed.subscribe(group, fabric)
        normalizers.append(normalizer)

    gateway = OrderGateway(
        sim, "gw0", nics.gw_strat, nics.gw_exch,
        function_latency_ns=spec.function_latency_ns,
    )
    gateway.connect_exchange(EXCHANGE_KEY, exchange_orders.address)

    # One momentum strategy per server, each on a hot symbol.
    recorder = LatencyRecorder()
    hot = universe.most_active(spec.n_strategies)
    strategies: list[Strategy] = [
        MomentumStrategy(
            sim, f"strat{i}", md, orders, nics.gw_strat.address,
            decision_latency_ns=spec.function_latency_ns, recorder=recorder,
            symbol=hot[i % len(hot)].name, trigger_ticks=1,
        )
        for i, (md, orders) in enumerate(zip(nics.strat_md, nics.strat_orders))
    ]
    if fabric.tenant_multicast:
        wanted = spec.firm_partitions
        if fabric.limits_subscriptions and spec.subscriptions_per_strategy is not None:
            wanted = min(spec.subscriptions_per_strategy, wanted)
        for strategy in strategies:
            for partition in range(wanted):
                strategy.subscribe(MulticastGroup("norm", partition), fabric)

    flow = OrderFlowGenerator(sim, "flow", exchange, universe, spec.flow_rate_per_s)
    return TradingSystem(
        sim=sim, exchange=exchange, normalizers=normalizers,
        strategies=strategies, gateway=gateway, flow=flow, recorder=recorder,
        universe=universe, **fabric.handles,
    )


class LeafSpine(Fabric):
    """Design 1: a leaf-spine fabric of commodity switches.

    Racks follow the §4.1 grouped-by-function layout: normalizers on one
    leaf, strategies on another, gateways on a third, with the exchange
    on its dedicated ToR — so every leg crosses 3 switch hops.
    """

    def __init__(self, sim: Simulator, spec: SystemSpec):
        super().__init__(sim, spec)
        self.topology = build_leaf_spine(sim, n_racks=3, servers_per_rack=0, n_spines=2)
        self.multicast = MulticastFabric(self.topology)
        self.handles.update(topology=self.topology, fabric=self.multicast)
        leaves = self.topology.leaves
        self.racks = {
            "exchange": leaves[0], "norm": leaves[1], "strat": leaves[2], "gw": leaves[3],
        }

    def nic(self, host: str, role: str) -> Nic:
        stack = self.topology.hosts.get(host) or HostStack(host)
        function = host.rstrip("0123456789")  # "strat2" racks with "strat"
        return self.topology.attach_server(stack, self.racks[function], role)

    def wire(self, nics: FirmNics, exchange: Exchange) -> None:
        compute_unicast_routes(self.topology)
        for group in exchange.publisher.groups:
            self.multicast.announce_server_source(group, nics.exchange_feed)
        for pub in nics.norm_pub:
            for partition in range(self.spec.firm_partitions):
                self.multicast.announce_server_source(MulticastGroup("norm", partition), pub)

    def join(self, group: MulticastGroup, nic: Nic) -> None:
        self.multicast.join(group, nic)


class L1S(Fabric):
    """Design 3: four layer-1 switch networks.

    * net A: exchange feed → every normalizer (pure fan-out);
    * net B: normalizer feeds → every strategy (fan-out; with more than
      one normalizer, a per-strategy merge unit combines them onto the
      strategy's single market-data NIC — §4.3's interface problem);
    * net C: strategies → gateway (merge), fills fan back out;
    * net D: gateway ↔ exchange order port (1:1 cross-connect).

    Membership is physical wiring: every NIC on a fan-out sees every
    frame, and the NIC filter keeps the groups it joined.
    """

    def __init__(self, sim: Simulator, spec: SystemSpec):
        super().__init__(sim, spec)
        self.l1_switches: list[Layer1Switch] = []
        self.merge_units: list[MergeUnit] = []
        self.handles.update(l1_switches=self.l1_switches, merge_units=self.merge_units)

    def wire(self, nics: FirmNics, exchange: Exchange) -> None:
        self.wire_market_data(nics)
        self.wire_orders(nics)

    def layer1(self, name: str) -> Layer1Switch:
        switch = Layer1Switch(self.sim, name)
        self.l1_switches.append(switch)
        return switch

    def merge(self, name: str) -> MergeUnit:
        unit = MergeUnit(self.sim, name)
        self.merge_units.append(unit)
        return unit

    def wire_market_data(self, nics: FirmNics) -> None:
        """Nets A and B."""
        l1s_a = self.layer1("l1s-a")
        feed_in = self.link("a.exchange", nics.exchange_feed, l1s_a)
        norm_legs = [self.link(f"a.norm{i}", l1s_a, rx) for i, rx in enumerate(nics.norm_md)]
        l1s_a.set_fanout(feed_in, norm_legs)

        l1s_b = self.layer1("l1s-b")
        pub_ins = [self.link(f"b.norm{n}", tx, l1s_b) for n, tx in enumerate(nics.norm_pub)]
        if len(pub_ins) == 1:
            strat_legs = [
                self.link(f"b.strat{s}", l1s_b, md) for s, md in enumerate(nics.strat_md)
            ]
            l1s_b.set_fanout(pub_ins[0], strat_legs)
            return
        per_strategy_legs = []
        for s, md in enumerate(nics.strat_md):
            merge = self.merge(f"merge-b.strat{s}")
            merge.set_output(self.link(f"b.merge{s}.out", merge, md))
            legs = [self.link(f"b.n{n}.s{s}", l1s_b, merge) for n in range(len(pub_ins))]
            for leg in legs:
                merge.add_input(leg)
            per_strategy_legs.append(legs)
        for n, pub_in in enumerate(pub_ins):
            l1s_b.set_fanout(pub_in, [legs[n] for legs in per_strategy_legs])

    def wire_orders(self, nics: FirmNics) -> None:
        """Nets C (strategies → gateway merge) and D (gateway ↔ exchange)."""
        merge_c = self.merge("merge-c")
        merge_c.set_output(self.link("c.gw", merge_c, nics.gw_strat))
        for i, orders in enumerate(nics.strat_orders):
            merge_c.add_input(self.link(f"c.strat{i}", orders, merge_c))

        l1s_d = self.layer1("l1s-d")
        d_gw = self.link("d.gw", nics.gw_exch, l1s_d)
        d_exch = self.link("d.exchange", l1s_d, nics.exchange_orders)
        l1s_d.set_fanout(d_gw, [d_exch])
        l1s_d.set_fanout(d_exch, [d_gw])


class FpgaL1S(L1S):
    """Design 4: §5's FPGA-enhanced L1S fabric.

    Market data forwards *by multicast group* at 100 ns through
    :class:`FilteringL1Switch` devices, so — unlike the pure L1S of
    Design 3 — each strategy's link carries only the partitions that
    strategy subscribed to (in-fabric filtering), and membership changes
    are table updates rather than re-cabling. Orders ride Design 3's
    nets C and D (the FPGA pipeline here models multicast forwarding
    only).
    """

    one_normalizer = True
    limits_subscriptions = True

    def wire_market_data(self, nics: FirmNics) -> None:
        fpga_a = FilteringL1Switch(self.sim, "fpga-a")
        fpga_b = FilteringL1Switch(self.sim, "fpga-b")
        self.handles["fpga_switches"] = [fpga_a, fpga_b]
        self.link("a.exchange", nics.exchange_feed, fpga_a)
        rx, tx = nics.norm_md[0], nics.norm_pub[0]
        # Each receiving NIC's (switch, egress leg): a join is a table entry.
        self.egress = {rx: (fpga_a, self.link("a.norm0", fpga_a, rx))}
        fpga_b.attach_link(self.link("b.norm0", tx, fpga_b))
        for i, md in enumerate(nics.strat_md):
            self.egress[md] = (fpga_b, self.link(f"b.strat{i}", fpga_b, md))

    def join(self, group: MulticastGroup, nic: Nic) -> None:
        switch, leg = self.egress[nic]
        switch.add_egress(group, leg)
        nic.join_group(group)


@register_builder("design1")
def _design1(spec: SystemSpec) -> TradingSystem:
    return assemble(spec, LeafSpine)


@register_builder("design3")
def _design3(spec: SystemSpec) -> TradingSystem:
    return assemble(spec, L1S)


@register_builder("design4")
def _design4(spec: SystemSpec) -> TradingSystem:
    return assemble(spec, FpgaL1S)
