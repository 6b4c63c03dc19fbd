"""A multi-venue trading system: the §4.2 aggregation workload, wired.

Two exchanges share the colo (as Secaucus venues do); one normalizer per
venue republishes into a common internal feed; an arbitrage strategy
watches both venues through that feed and sends IOC pairs through a
gateway holding sessions to both venues — optionally behind the firm's
NBBO-aware risk gate; a compliance tap rebuilds the NBBO and counts
locked/crossed markets. This is the "broad internal communication"
§4.2 says pure-cloud designs cannot yet serve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.api import register_builder
from repro.exchange.exchange import Exchange
from repro.exchange.publisher import alphabetical_scheme, hashed_scheme
from repro.firm.gateway import OrderGateway
from repro.firm.nbbo import NbboBuilder
from repro.firm.normalizer import Normalizer
from repro.firm.risk import PositionTracker, RiskChecker
from repro.firm.strategy import ArbitrageStrategy
from repro.net.addressing import MulticastGroup
from repro.net.multicast import MulticastFabric
from repro.net.nic import HostStack
from repro.net.routing import compute_unicast_routes
from repro.net.topology import LeafSpineTopology, build_leaf_spine
from repro.protocols.itf import ItfCodec
from repro.sim.kernel import MICROSECOND, MILLISECOND, Simulator
from repro.timing.latency import LatencyRecorder
from repro.workload.orderflow import OrderFlowGenerator
from repro.workload.symbols import SymbolUniverse, make_universe

FIRM_FEED = "norm"


@dataclass
class MultiVenueSystem:
    """Handles for the two-venue deployment."""

    sim: Simulator
    topology: LeafSpineTopology
    fabric: MulticastFabric
    exchanges: list[Exchange]
    normalizers: list[Normalizer]
    arbitrage: ArbitrageStrategy
    gateway: OrderGateway
    nbbo: NbboBuilder
    risk: RiskChecker | None
    flows: list[OrderFlowGenerator]
    recorder: LatencyRecorder
    universe: SymbolUniverse

    def run(self, duration_ns: int = 50 * MILLISECOND) -> None:
        for flow in self.flows:
            flow.start()
        self.sim.run(until=self.sim.now + duration_ns)

    def fills(self) -> int:
        return self.arbitrage.stats.fills


def build_multi_venue_system(
    seed: int = 42,
    n_symbols: int = 10,
    firm_partitions: int = 8,
    flow_rate_per_s: float = 25_000.0,
    min_edge_ticks: int = 100,
    with_risk_gate: bool = False,
    telemetry: bool = False,
) -> MultiVenueSystem:
    """Two venues, one arb, one gateway, one compliance view."""
    sim = Simulator(seed=seed, telemetry=telemetry)
    universe = make_universe(n_symbols, seed=seed)
    topo = build_leaf_spine(sim, n_racks=3, servers_per_rack=0, n_spines=2)
    norm_leaf, strat_leaf, gw_leaf = topo.leaves[1], topo.leaves[2], topo.leaves[3]

    exchanges = []
    for venue_id in (1, 2):
        host = HostStack(f"venue{venue_id}")
        feed = topo.attach_server(host, topo.exchange_leaf, "feed")
        orders = topo.attach_server(host, topo.exchange_leaf, "orders")
        exchanges.append(
            Exchange(
                sim, f"exch{venue_id}", list(universe.names),
                alphabetical_scheme(4), feed_nic_a=feed, orders_nic=orders,
                coalesce_window_ns=MICROSECOND,
            )
        )

    norm_specs = []
    for venue_id, exchange in zip((1, 2), exchanges):
        host = HostStack(f"norm{venue_id}")
        rx = topo.attach_server(host, norm_leaf, "md")
        tx = topo.attach_server(host, norm_leaf, "pub")
        norm_specs.append((venue_id, exchange, rx, tx))

    strat_host = HostStack("arb0")
    strat_md = topo.attach_server(strat_host, strat_leaf, "md")
    strat_orders = topo.attach_server(strat_host, strat_leaf, "orders")
    compliance_nic = topo.attach_server(
        HostStack("compliance"), strat_leaf, "md"
    )
    gw_host = HostStack("gw0")
    gw_strat = topo.attach_server(gw_host, gw_leaf, "strat")
    gw_exch = topo.attach_server(gw_host, gw_leaf, "exch")

    compute_unicast_routes(topo)
    fabric = MulticastFabric(topo)

    firm_scheme = hashed_scheme(firm_partitions)
    normalizers = []
    for venue_id, exchange, rx, tx in norm_specs:
        for group in exchange.publisher.groups:
            fabric.announce_server_source(group, exchange.publisher.nic_a)
        normalizer = Normalizer(
            sim, f"norm{venue_id}", venue_id, rx, tx, FIRM_FEED, firm_scheme
        )
        for group in exchange.publisher.groups:
            normalizer.feed.subscribe(group, fabric)
        for partition in range(firm_partitions):
            fabric.announce_server_source(MulticastGroup(FIRM_FEED, partition), tx)
        normalizers.append(normalizer)

    nbbo = NbboBuilder()
    risk = None
    gateway = OrderGateway(sim, "gw0", gw_strat, gw_exch)
    if with_risk_gate:
        risk = RiskChecker(PositionTracker(), nbbo)
        gateway.risk_checker = risk
    for venue_id, exchange in zip((1, 2), exchanges):
        gateway.connect_exchange(
            f"exch{venue_id}", exchange.order_entry.nic.address
        )

    recorder = LatencyRecorder()
    arbitrage = ArbitrageStrategy(
        sim, "arb0", strat_md, strat_orders, gw_strat.address,
        recorder=recorder, min_edge_ticks=min_edge_ticks,
    )
    for partition in range(firm_partitions):
        arbitrage.subscribe(MulticastGroup(FIRM_FEED, partition), fabric)

    # Passive compliance: the NBBO builder consumes the same internal feed.
    codec = ItfCodec("standard")

    def compliance_sink(packet):
        message = packet.message
        if not (isinstance(message, tuple) and message and message[0] == "itf"):
            return
        _tag, _mode, data, exchange_id = message
        for update in codec.decode_batch(data, exchange_id, sim.now):
            nbbo.on_update(update)

    compliance_nic.bind(compliance_sink)
    for partition in range(firm_partitions):
        fabric.join(MulticastGroup(FIRM_FEED, partition), compliance_nic)

    flows = [
        OrderFlowGenerator(sim, f"flow{i}", exchange, universe, flow_rate_per_s)
        for i, exchange in enumerate(exchanges)
    ]
    return MultiVenueSystem(
        sim=sim, topology=topo, fabric=fabric, exchanges=exchanges,
        normalizers=normalizers, arbitrage=arbitrage, gateway=gateway,
        nbbo=nbbo, risk=risk, flows=flows, recorder=recorder, universe=universe,
    )


@register_builder("multivenue")
def _multivenue_from_spec(spec) -> MultiVenueSystem:
    return build_multi_venue_system(
        seed=spec.seed,
        n_symbols=spec.n_symbols,
        firm_partitions=spec.firm_partitions,
        flow_rate_per_s=spec.flow_rate_per_s,
        min_edge_ticks=spec.min_edge_ticks,
        with_risk_gate=spec.with_risk_gate,
        telemetry=spec.telemetry,
    )
