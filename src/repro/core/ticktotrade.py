"""Tick-to-trade at the physical limit (§1/§2's fastest firms).

"Some firms build trading systems that operate at the physical limits
for communication — e.g., deploying algorithms on specialized hardware
directly connected to exchanges. These systems are limited mostly by the
speed of light, and can execute trades in 10s to 100s of nanoseconds."

This testbed is that system: no normalizer, no gateway — an FPGA-class
strategy parses the raw PITCH feed itself and speaks BOE directly to the
exchange, over two L1S hops, with hardware-path NIC latencies and zero
feed coalescing. The measured event-to-order-arrival time lands in the
hundreds of nanoseconds, serialization-dominated.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.exchange.exchange import Exchange
from repro.exchange.publisher import alphabetical_scheme
from repro.firm.feedhandler import FeedHandler
from repro.net.addressing import EndpointAddress
from repro.net.l1switch import Layer1Switch
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.core.api import register_builder
from repro.protocols.boe import BoeSession, NewOrderRequest
from repro.net.headers import frame_bytes_tcp
from repro.protocols.pitch import AddOrder
from repro.sim.kernel import MICROSECOND, MILLISECOND, Simulator
from repro.sim.process import Component

FPGA_NIC_LATENCY_NS = 20  # MAC-to-pipeline, hardware path
FPGA_COMPUTE_NS = 50  # parse + decide + build, all in gates


class HardwareStrategy(Component):
    """A tick-to-trade pipeline: raw PITCH in, BOE out, no software.

    Fires an IOC buy whenever the watched symbol's best bid improves —
    the minimal momentum trigger, evaluated in ``FPGA_COMPUTE_NS``.
    """

    def __init__(self, sim, name, md_nic, order_nic, exchange_address, symbol):
        super().__init__(sim, name)
        self.order_nic = order_nic
        self.exchange_address = exchange_address
        self.symbol = symbol
        self.session = BoeSession()
        self._last_bid = 0
        self._ids = 0
        self.orders_sent = 0
        self.feed = FeedHandler(sim, f"{name}.fh", md_nic, self._on_message)

    def _on_message(self, group, message):
        if not isinstance(message, AddOrder) or message.symbol != self.symbol:
            return
        if message.side == "B" and message.price > self._last_bid:
            previous, self._last_bid = self._last_bid, message.price
            if previous:
                self.sim.schedule_after(FPGA_COMPUTE_NS, self._fire, (message,))

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _fire(self, trigger: AddOrder) -> None:
        self._ids += 1
        self.orders_sent += 1
        data = self.session.encode_new_order(
            NewOrderRequest(
                self._ids, "B", 100, self.symbol, trigger.price,
                time_in_force="I",
                client_timestamp_ns=trigger.time_offset_ns,
            )
        )
        self.order_nic.send(
            Packet(
                src=self.order_nic.address, dst=self.exchange_address,
                wire_bytes=frame_bytes_tcp(len(data)), payload_bytes=len(data),
                message=data, created_at=self.now,
            )
        )


def _hardware_nic(sim: Simulator, host: str, name: str) -> Nic:
    return Nic(
        sim, f"nic.{host}:{name}", EndpointAddress(host, name),
        rx_latency_ns=FPGA_NIC_LATENCY_NS, tx_latency_ns=FPGA_NIC_LATENCY_NS,
    )


class TickToTradeSystem(NamedTuple):
    """Handles for the hardware pipeline.

    A named tuple so existing ``sim, exchange, strategy = ...`` callers
    keep working, with the ``run``/``roundtrip_samples`` methods the
    :func:`~repro.core.api.build_system` facade expects.
    """

    sim: Simulator
    exchange: Exchange
    strategy: HardwareStrategy

    def run(self, duration_ns: int = 5 * MILLISECOND) -> None:
        self.sim.run(until=self.sim.now + duration_ns)

    def roundtrip_samples(self) -> list[int]:
        return list(self.exchange.order_entry.roundtrip_samples)


def build_tick_to_trade_system(
    seed: int = 77,
    run_ns: int | None = 5 * MILLISECOND,
    telemetry: bool = False,
) -> TickToTradeSystem:
    """Wire the hardware pipeline, drive it, and return the handles.

    The ambient workload walks the best bid upward in 1-cent steps (the
    far-away resting ask never crosses, so every step prints a real
    AddOrder for the strategy to react to). Round-trip samples accumulate
    in ``exchange.order_entry.roundtrip_samples``. Pass ``run_ns=None``
    to get the wired-but-unrun system (what the facade's spec adapter
    does; drive it with :meth:`TickToTradeSystem.run`).
    """
    sim = Simulator(seed=seed, telemetry=telemetry)
    exchange_feed = _hardware_nic(sim, "exchange", "feed")
    exchange_orders = _hardware_nic(sim, "exchange", "orders")
    strat_md = _hardware_nic(sim, "hft", "md")
    strat_orders = _hardware_nic(sim, "hft", "orders")

    exchange = Exchange(
        sim, "exch1", ["AA"], alphabetical_scheme(1),
        feed_nic_a=exchange_feed, orders_nic=exchange_orders,
        coalesce_window_ns=0,  # HFT venue ports do not batch
    )

    # Feed: exchange -> L1S -> strategy. Orders: strategy -> L1S -> exchange.
    l1s_feed = Layer1Switch(sim, "l1s-feed")
    feed_in = Link(sim, "f.in", exchange_feed, l1s_feed, propagation_delay_ns=5)
    exchange_feed.attach(feed_in)
    feed_out = Link(sim, "f.out", l1s_feed, strat_md, propagation_delay_ns=5)
    strat_md.attach(feed_out)
    l1s_feed.set_fanout(feed_in, [feed_out])

    l1s_orders = Layer1Switch(sim, "l1s-orders")
    order_in = Link(sim, "o.in", strat_orders, l1s_orders, propagation_delay_ns=5)
    strat_orders.attach(order_in)
    order_out = Link(
        sim, "o.out", l1s_orders, exchange_orders, propagation_delay_ns=5
    )
    exchange_orders.attach(order_out)
    l1s_orders.set_fanout(order_in, [order_out])
    l1s_orders.set_fanout(order_out, [order_in])  # responses flow back

    strategy = HardwareStrategy(
        sim, "hft0", strat_md, strat_orders, exchange_orders.address, "AA"
    )
    for group in exchange.publisher.groups:
        strategy.feed.subscribe(group)

    rng = sim.rng.stream("ambient")
    price = [10_000]
    exchange.inject_order("AA", "S", 100_000, 10_000)

    def improve_bid():
        price[0] += 100
        exchange.inject_order("AA", "B", price[0], 100)
        sim.schedule_after(int(rng.integers(30_000, 80_000)), improve_bid)

    sim.schedule_after(MICROSECOND, improve_bid)
    system = TickToTradeSystem(sim, exchange, strategy)
    if run_ns is not None:
        system.run(run_ns)
    return system


@register_builder("ticktotrade")
def _ticktotrade_from_spec(spec) -> TickToTradeSystem:
    # The hardware pipeline fixes its own topology and workload; only
    # the seed and telemetry map. Returned unrun, like every facade builder.
    return build_tick_to_trade_system(
        seed=spec.seed, run_ns=None, telemetry=spec.telemetry
    )
