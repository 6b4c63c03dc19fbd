"""Opening auctions.

Sessions open with a single-price cross: orders accumulate while the
market is pre-open, then one clearing price — the price that maximizes
executable volume — trades all crossing interest at once. The burst this
releases at 9:30:00.000 is a structural part of the open-heavy intraday
profile in Figure 2(b), and the imbalance/indicative data it generates is
some of the most latency-sensitive market data of the day.

:func:`compute_clearing_price` is the standard algorithm: for each
candidate price, executable volume = min(buy demand at-or-above,
sell supply at-or-below); maximize volume, break ties by minimizing
imbalance, then by price closest to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exchange.matching import BookUpdate, MatchingEngine
from repro.protocols.pitch import OrderExecuted, TradingStatus


@dataclass(frozen=True)
class AuctionResult:
    """Outcome of one symbol's opening cross."""

    symbol: str
    clearing_price: int | None  # None: nothing crossed
    matched_volume: int
    imbalance: int  # signed residual (buy minus sell) at the price
    trades: int

    @property
    def crossed(self) -> bool:
        return self.clearing_price is not None and self.matched_volume > 0


# lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
def _cumulative_demand(orders, price: int) -> int:
    """Buy quantity willing to pay ``price`` or more."""
    return sum(o.quantity for o in orders if o.side == "B" and o.price >= price)


# lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
def _cumulative_supply(orders, price: int) -> int:
    """Sell quantity willing to accept ``price`` or less."""
    return sum(o.quantity for o in orders if o.side == "S" and o.price <= price)


# lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
def compute_clearing_price(
    orders, reference_price: int | None = None
) -> tuple[int | None, int, int]:
    """(clearing price, executable volume, signed imbalance) for ``orders``.

    ``orders`` is any iterable with ``side``/``price``/``quantity``.
    Returns ``(None, 0, 0)`` when no price crosses.
    """
    orders = list(orders)
    prices = sorted({o.price for o in orders})
    best: tuple[int, int, int] | None = None  # (volume, -|imbalance|, price)
    chosen_imbalance = 0
    for price in prices:
        demand = _cumulative_demand(orders, price)
        supply = _cumulative_supply(orders, price)
        volume = min(demand, supply)
        if volume == 0:
            continue
        imbalance = demand - supply
        ref_distance = abs(price - reference_price) if reference_price else 0
        key = (volume, -abs(imbalance), -ref_distance, -price)
        if best is None or key > (best[0], best[1], best[2], -best[3]):
            best = (volume, -abs(imbalance), -ref_distance, price)
            chosen_imbalance = imbalance
    if best is None:
        return None, 0, 0
    return best[3], best[0], chosen_imbalance


class OpeningAuction:
    """Runs the pre-open accumulation and the 9:30 cross for an engine.

    While armed (pre-open), the engine's symbols are halted so continuous
    matching cannot occur; auction orders are collected here. At
    :meth:`open_market`, each symbol crosses at its clearing price,
    executions publish as PITCH messages, the residual resting interest
    seeds the continuous book, and trading status flips to 'T'.
    """

    def __init__(self, engine: MatchingEngine):
        self.engine = engine
        self._armed = False
        self._orders: dict[str, list] = {}
        self._order_ids: dict[int, tuple[str, str]] = {}
        self.results: dict[str, AuctionResult] = {}

    @dataclass(slots=True)
    class _AuctionOrder:
        order_id: int
        owner: str
        side: str
        price: int
        quantity: int

    def arm(self) -> None:
        """Enter pre-open: halt continuous trading on every symbol."""
        if self._armed:
            raise RuntimeError("auction already armed")
        self._armed = True
        for symbol in self.engine.symbols:
            self.engine.set_halted(symbol, True)

    @property
    def armed(self) -> bool:
        return self._armed

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def submit(
        self, owner: str, symbol: str, side: str, price: int, quantity: int
    ) -> int:
        """Queue an auction order; returns its auction order id."""
        if not self._armed:
            raise RuntimeError("auction not armed; use continuous trading")
        if symbol not in self.engine:
            raise KeyError(f"unknown symbol {symbol}")
        if side not in ("B", "S") or price <= 0 or quantity <= 0:
            raise ValueError("invalid auction order")
        order_id = len(self._order_ids) + 1
        order = self._AuctionOrder(order_id, owner, side, price, quantity)
        self._orders.setdefault(symbol, []).append(order)
        self._order_ids[order_id] = (symbol, owner)
        return order_id

    def indicative(self, symbol: str, reference_price: int | None = None):
        """The would-be (price, volume, imbalance) if the cross ran now —
        the indicative/imbalance feed disseminated during pre-open."""
        return compute_clearing_price(
            self._orders.get(symbol, []), reference_price
        )

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def open_market(self, now_ns: int = 0) -> dict[str, BookUpdate]:
        """Run every symbol's cross and resume continuous trading."""
        if not self._armed:
            raise RuntimeError("auction not armed")
        updates: dict[str, BookUpdate] = {}
        for symbol in self.engine.symbols:
            updates[symbol] = self._cross_symbol(symbol, now_ns)
            self.engine.set_halted(symbol, False)
        self._armed = False
        return updates

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _cross_symbol(self, symbol: str, now_ns: int) -> BookUpdate:
        orders = self._orders.get(symbol, [])
        price, volume, imbalance = compute_clearing_price(orders)
        update = BookUpdate(symbol, True)
        trades = 0
        if price is not None and volume > 0:
            remaining = {"B": volume, "S": volume}
            for order in orders:
                if remaining[order.side] <= 0:
                    continue
                eligible = (
                    order.side == "B" and order.price >= price
                ) or (order.side == "S" and order.price <= price)
                if not eligible:
                    continue
                fill_quantity = min(order.quantity, remaining[order.side])
                remaining[order.side] -= fill_quantity
                order.quantity -= fill_quantity
                trades += 1
                update.pitch_messages.append(
                    OrderExecuted(now_ns, order.order_id, fill_quantity,
                                  order.order_id * 7 + 1)
                )
        # Residual interest seeds the continuous book at its limit price.
        self.engine.set_halted(symbol, False)
        for order in orders:
            if order.quantity > 0:
                seeded = self.engine.submit(
                    order.owner, symbol, order.side, order.price,
                    order.quantity, now_ns=now_ns,
                )
                update.pitch_messages.extend(seeded.pitch_messages)
        self.engine.set_halted(symbol, True)  # re-halt until open_market flips
        update.pitch_messages.append(TradingStatus(now_ns, symbol, "T"))
        self.results[symbol] = AuctionResult(
            symbol, price, volume, imbalance, trades
        )
        return update
