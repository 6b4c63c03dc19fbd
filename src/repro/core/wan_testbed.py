"""Cross-colo trading: the §2 metro-WAN story, end to end.

"Strategies often analyze market data from different exchanges, many of
which are in remote colos. To transport data between colos, trading
firms operate private WANs ... Some firms employ microwave or laser
links to reduce latency further."

The ``wan`` design places the exchange in Carteret and the firm's stack
in Mahwah. It is one more :class:`~repro.core.testbed.Fabric` under
:func:`~repro.core.testbed.assemble`. Market data crosses the metro
twice-redundantly — a fast, lossy microwave leg and a slow, lossless
fiber leg, arbitrated at the Mahwah normalizer — and orders return over
the microwave path on a reliable (TCP-model) channel. The measured
remote round trip is dominated by two metro traversals, and its
composition is checkable against the colo geometry.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.api import register_builder
from repro.core.testbed import Fabric, FirmNics, TradingSystem, assemble
from repro.exchange.colo import default_nj_metro
from repro.exchange.exchange import Exchange
from repro.net.addressing import EndpointAddress
from repro.net.headers import frame_bytes_tcp
from repro.net.l1switch import Layer1Switch, MergeUnit
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.reliable import ReliableChannel
from repro.sim.kernel import Simulator

# assemble's host names -> the site-qualified hosts of the deployment;
# strategy hosts are "mahwah-" plus their own name.
_SITE_HOSTS = {"exchange": "carteret-exch", "norm0": "mahwah-norm", "gw0": "mahwah-gw"}


class _WanOrderBridge:
    """Tunnels BOE bytes through a reliable cross-metro channel.

    One bridge sits at each end of the order path. Whatever BOE frame
    reaches it locally is shipped over ``channel``; :meth:`reemit` puts
    what the channel delivers back on ``link``, addressed to ``local`` as
    if ``remote`` had sent it from next door.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        channel: ReliableChannel,
        remote: EndpointAddress,
        local: EndpointAddress,
    ):
        self.sim = sim
        self.name = name
        self.channel = channel
        self.remote = remote
        self.local = local
        self.link: Link | None = None  # set once the local leg is cabled
        channel.on_message = self.reemit

    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        if isinstance(packet.message, (bytes, bytearray)):
            self.channel.send(bytes(packet.message), payload_bytes=packet.payload_bytes)

    def reemit(self, payload: bytes) -> None:
        self.link.send(
            Packet(
                src=self.remote,
                dst=self.local,
                wire_bytes=frame_bytes_tcp(len(payload)),
                payload_bytes=len(payload),
                message=payload,
                created_at=self.sim.now,
            ),
            self,
        )


class CrossColo(Fabric):
    """The exchange in Carteret; normalizer, strategies and gateway in Mahwah.

    * market data: a Carteret L1S taps the feed onto a microwave and a
      fiber leg, both into one promiscuous normalizer NIC that
      arbitrates them in software;
    * in Mahwah, an L1S fans the normalizer's feed out to the
      strategies, and a merge unit combines their orders for the
      gateway;
    * orders: a bridge at each end tunnels BOE over a reliable channel
      on a microwave circuit.
    """

    one_normalizer = True

    def __init__(self, sim: Simulator, spec):
        super().__init__(sim, spec)
        self.metro = default_nj_metro()
        self.handles["metro"] = self.metro

    def nic(self, host: str, role: str) -> Nic:
        return super().nic(_SITE_HOSTS.get(host, f"mahwah-{host}"), role)

    def wire(self, nics: FirmNics, exchange: Exchange) -> None:
        # Market data: Carteret tap -> microwave + fiber -> Mahwah.
        metro, rx = self.metro, nics.norm_md[0]
        rx.promiscuous = True  # the WAN legs carry everything
        tap = Layer1Switch(self.sim, "carteret-tap")
        feed_in = self.link("feed-in", nics.exchange_feed, tap)
        microwave = metro.wan_link(
            self.sim, "carteret", "mahwah", tap, rx,
            medium="microwave", loss_prob=self.spec.microwave_loss,
        )
        fiber = metro.wan_link(self.sim, "carteret", "mahwah", tap, rx)
        tap.set_fanout(feed_in, [microwave, fiber])
        self.handles.update(microwave=microwave, fiber=fiber)

        # Inside Mahwah: normalizer -> strategies, strategies -> gateway.
        local_l1s = Layer1Switch(self.sim, "mahwah-l1s")
        pub_in = self.link("pub-in", nics.norm_pub[0], local_l1s)
        local_l1s.set_fanout(
            pub_in, [self.link(f"md{i}", local_l1s, md) for i, md in enumerate(nics.strat_md)]
        )
        merge = MergeUnit(self.sim, "mahwah-merge")
        merge.set_output(self.link("gw-in", merge, nics.gw_strat))
        for i, orders in enumerate(nics.strat_orders):
            merge.add_input(self.link(f"ord{i}", orders, merge))

        # Orders: gateway <-> exchange through the bridges and the channel.
        firm_end = Nic(self.sim, "wan.firm", EndpointAddress("mahwah-wan", "mw"))
        exch_end = Nic(self.sim, "wan.exch", EndpointAddress("carteret-wan", "mw"))
        circuit = metro.wan_link(
            self.sim, "mahwah", "carteret", firm_end, exch_end,
            medium="microwave", loss_prob=self.spec.microwave_loss,
        )
        firm_end.attach(circuit)
        exch_end.attach(circuit)
        rto_ns = 3 * metro.microwave_latency_ns("mahwah", "carteret")  # 1.5x RTT
        channel_firm = ReliableChannel(
            self.sim, "rel.firm", firm_end, exch_end.address, rto_ns=rto_ns,
        )
        channel_exch = ReliableChannel(
            self.sim, "rel.exch", exch_end, firm_end.address, rto_ns=rto_ns,
        )
        self.handles.update(
            order_channel_firm=channel_firm, order_channel_exchange=channel_exch,
        )
        gw, exch = nics.gw_exch, nics.exchange_orders
        firm_bridge = _WanOrderBridge(
            self.sim, "bridge.mahwah", channel_firm, exch.address, gw.address,
        )
        exch_bridge = _WanOrderBridge(
            self.sim, "bridge.carteret", channel_exch, gw.address, exch.address,
        )
        firm_bridge.link = self.link("gw-wan", gw, firm_bridge)
        exch_bridge.link = self.link("exch-wan", exch, exch_bridge)


@register_builder("wan")
def _wan(spec) -> TradingSystem:
    return assemble(replace(spec, exchange_partitions=2), CrossColo)
