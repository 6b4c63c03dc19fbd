"""Ambient order-flow injection for end-to-end simulations.

An :class:`OrderFlowGenerator` stands in for every *other* market
participant: it drives a simulated exchange with adds, cancels, modifies,
and aggressive orders at a configurable (possibly time-varying and
bursty) rate, so the exchange's PITCH feed carries realistic traffic for
the firm-side components to consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exchange.exchange import Exchange
from repro.sim.kernel import MILLISECOND, Simulator
from repro.sim.process import Component
from repro.workload.symbols import SymbolUniverse


@dataclass
class FlowStats:
    adds: int = 0
    cancels: int = 0
    modifies: int = 0
    aggressions: int = 0

    @property
    def total(self) -> int:
        return self.adds + self.cancels + self.modifies + self.aggressions


class OrderFlowGenerator(Component):
    """Drives one exchange with ambient order flow.

    ``rate_per_s`` may be a number or a callable ``(now_ns) -> rate``,
    letting callers plug in the intraday profile or burst trains. Events
    are drawn in 1 ms batches (Poisson counts, uniform offsets within the
    batch) — fine-grained enough for all latency measurements made at the
    strategy tier, while keeping simulator overhead linear in events.
    """

    ACTION_MIX = (("add", 0.42), ("cancel", 0.30), ("modify", 0.20), ("aggress", 0.08))

    def __init__(
        self,
        sim: Simulator,
        name: str,
        exchange: Exchange,
        universe: SymbolUniverse,
        rate_per_s: float | Callable[[int], float],
        batch_ns: int = MILLISECOND,
        price_band_cents: int = 50,  # cents around the base price
    ):
        super().__init__(sim, name)
        self.exchange = exchange
        self.universe = universe
        self.rate_per_s = rate_per_s
        self.batch_ns = int(batch_ns)
        self.price_band_cents = price_band_cents
        self.stats = FlowStats()
        self._open_orders: list[int] = []  # ambient exchange order ids
        self._running = False
        self._rng = sim.rng.stream(f"orderflow.{name}")
        for symbol in universe.names:
            exchange.engine.list_symbol(symbol)

    # -- control ---------------------------------------------------------------

    def start(self) -> None:
        super().start()
        if not self._running:
            self._running = True
            self.call_after(self.batch_ns, self._batch)

    def stop(self) -> None:
        self._running = False

    def _current_rate(self) -> float:
        if callable(self.rate_per_s):
            return float(self.rate_per_s(self.now))
        return float(self.rate_per_s)

    # -- generation ---------------------------------------------------------------

    def _batch(self) -> None:
        if not self._running:
            return
        rate = self._current_rate()
        expected = rate * self.batch_ns / 1e9
        count = int(self._rng.poisson(expected))
        if count:
            offsets = np.sort(self._rng.integers(0, self.batch_ns, size=count))
            schedule_after = self.sim.schedule_after
            event = self._event
            for offset in offsets:
                schedule_after(int(offset), event)
        self.sim.schedule_after(self.batch_ns, self._batch)

    def _event(self) -> None:
        roll = self._rng.random()
        cumulative = 0.0
        action = "add"
        for name, prob in self.ACTION_MIX:
            cumulative += prob
            if roll < cumulative:
                action = name
                break
        if action == "cancel" and self._open_orders:
            self._cancel()
        elif action == "modify" and self._open_orders:
            self._modify()
        elif action == "aggress":
            self._aggress()
        else:
            self._add()

    def _pick_symbol(self):
        return self.universe.sample(self._rng, 1)[0]

    def _passive_price(self, symbol, side: str) -> int:
        offset = int(self._rng.integers(1, self.price_band_cents + 1)) * 100
        return symbol.base_price - offset if side == "B" else symbol.base_price + offset

    def _add(self) -> None:
        symbol = self._pick_symbol()
        side = "B" if self._rng.random() < 0.5 else "S"
        price = self._passive_price(symbol, side)
        quantity = int(self._rng.integers(1, 10)) * 100
        update = self.exchange.inject_order(symbol.name, side, price, quantity)
        self.stats.adds += 1
        if update.accepted and update.resting_quantity > 0:
            self._open_orders.append(update.exchange_order_id)
            if len(self._open_orders) > 50_000:
                self._open_orders = self._open_orders[-25_000:]

    def _cancel(self) -> None:
        index = int(self._rng.integers(len(self._open_orders)))
        order_id = self._open_orders.pop(index)
        self.exchange.inject_cancel(order_id)
        self.stats.cancels += 1

    def _modify(self) -> None:
        index = int(self._rng.integers(len(self._open_orders)))
        order_id = self._open_orders[index]
        symbol = self._pick_symbol()
        price = self._passive_price(symbol, "B" if self._rng.random() < 0.5 else "S")
        quantity = int(self._rng.integers(1, 10)) * 100
        self.exchange.inject_modify(order_id, quantity, price)
        self.stats.modifies += 1

    def _aggress(self) -> None:
        """Cross the spread: a marketable order that should trade."""
        symbol = self._pick_symbol()
        side = "B" if self._rng.random() < 0.5 else "S"
        band = self.price_band_cents * 100
        price = (
            symbol.base_price + band if side == "B" else symbol.base_price - band
        )
        quantity = int(self._rng.integers(1, 5)) * 100
        self.exchange.inject_order(
            symbol.name, side, price, quantity, immediate_or_cancel=True
        )
        self.stats.aggressions += 1
