"""Tests for the multi-symbol matching engine and its feed messages."""

import pytest

from repro.exchange.matching import MatchingEngine
from repro.protocols.pitch import (
    AddOrder,
    DeleteOrder,
    ModifyOrder,
    OrderExecuted,
    ReduceSize,
    TradingStatus,
)


def _engine(symbols=("AAPL", "MSFT")):
    return MatchingEngine("X", list(symbols))


def test_submit_resting_emits_add_order():
    engine = _engine()
    update = engine.submit("a", "AAPL", "B", 10_000, 100, now_ns=5)
    assert update.accepted
    assert update.exchange_order_id == 1
    [message] = update.pitch_messages
    assert isinstance(message, AddOrder)
    assert (message.symbol, message.price, message.quantity) == ("AAPL", 10_000, 100)
    assert message.time_offset_ns == 5


def test_submit_crossing_emits_executions_then_add():
    engine = _engine()
    engine.submit("maker", "AAPL", "S", 10_000, 60)
    update = engine.submit("taker", "AAPL", "B", 10_000, 100)
    kinds = [type(m) for m in update.pitch_messages]
    assert kinds == [OrderExecuted, AddOrder]
    assert update.executed_quantity == 60
    assert update.resting_quantity == 40
    assert engine.stats.trades == 1
    assert engine.stats.volume == 60


def test_unknown_symbol_rejected():
    engine = _engine()
    update = engine.submit("a", "TSLA", "B", 10_000, 100)
    assert not update.accepted
    assert update.reason == MatchingEngine.REJECT_UNKNOWN_SYMBOL
    assert engine.stats.orders_rejected == 1


def test_halt_blocks_orders_and_publishes_status():
    engine = _engine()
    update = engine.set_halted("AAPL", True, now_ns=3)
    [status] = update.pitch_messages
    assert isinstance(status, TradingStatus)
    assert status.status == "H"
    rejected = engine.submit("a", "AAPL", "B", 10_000, 100)
    assert rejected.reason == MatchingEngine.REJECT_HALTED
    engine.set_halted("AAPL", False)
    assert engine.submit("a", "AAPL", "B", 10_000, 100).accepted


def test_bad_order_rejected():
    engine = _engine()
    assert engine.submit("a", "AAPL", "B", 0, 100).reason == "R"
    assert engine.submit("a", "AAPL", "B", 100, -5).reason == "R"
    assert engine.submit("a", "AAPL", "Q", 100, 100).reason == "R"


def test_cancel_emits_delete():
    engine = _engine()
    update = engine.submit("a", "AAPL", "B", 10_000, 100)
    cancel = engine.cancel("a", update.exchange_order_id)
    assert cancel.accepted
    [message] = cancel.pitch_messages
    assert isinstance(message, DeleteOrder)
    assert engine.stats.cancels == 1


def test_cancel_too_late_after_fill():
    """The §2 race at the engine: the order filled before the cancel."""
    engine = _engine()
    update = engine.submit("a", "AAPL", "S", 10_000, 100)
    engine.submit("b", "AAPL", "B", 10_000, 100)  # fills it
    cancel = engine.cancel("a", update.exchange_order_id)
    assert not cancel.accepted
    assert cancel.reason == MatchingEngine.CANCEL_TOO_LATE
    assert engine.stats.cancel_rejects == 1


def test_cancel_wrong_owner_rejected():
    engine = _engine()
    update = engine.submit("a", "AAPL", "B", 10_000, 100)
    cancel = engine.cancel("intruder", update.exchange_order_id)
    assert not cancel.accepted


def test_modify_size_reduction_keeps_id_emits_reduce():
    engine = _engine()
    update = engine.submit("a", "AAPL", "B", 10_000, 100)
    modified = engine.modify("a", update.exchange_order_id, 60, 10_000)
    assert modified.accepted
    [message] = modified.pitch_messages
    assert isinstance(message, ReduceSize)
    assert message.canceled_quantity == 40


def test_modify_reprice_emits_modify_message():
    engine = _engine()
    update = engine.submit("a", "AAPL", "B", 9_900, 100)
    modified = engine.modify("a", update.exchange_order_id, 100, 9_800)
    assert modified.accepted
    [message] = modified.pitch_messages
    assert isinstance(message, ModifyOrder)
    assert message.price == 9_800


def test_modify_reprice_through_contra_trades():
    engine = _engine()
    order = engine.submit("a", "AAPL", "B", 9_900, 100)
    engine.submit("b", "AAPL", "S", 10_000, 100)
    modified = engine.modify("a", order.exchange_order_id, 100, 10_000)
    assert modified.executed_quantity == 100
    assert any(isinstance(m, OrderExecuted) for m in modified.pitch_messages)


def test_bbo_tracks_engine_book():
    engine = _engine()
    engine.submit("a", "AAPL", "B", 9_900, 100)
    engine.submit("a", "AAPL", "S", 10_100, 50)
    bid, ask = engine.bbo("AAPL")
    assert bid == (9_900, 100)
    assert ask == (10_100, 50)


def test_symbols_are_isolated():
    engine = _engine()
    engine.submit("a", "AAPL", "B", 10_000, 100)
    engine.submit("a", "MSFT", "S", 10_000, 100)  # would cross AAPL's bid
    bid, ask = engine.bbo("AAPL")
    assert bid is not None and ask is None
    assert engine.stats.trades == 0


def test_exchange_order_ids_unique_across_symbols():
    engine = _engine()
    first = engine.submit("a", "AAPL", "B", 10_000, 100)
    second = engine.submit("a", "MSFT", "B", 10_000, 100)
    assert first.exchange_order_id != second.exchange_order_id


def test_list_symbol_dynamic():
    engine = _engine(())
    assert engine.symbols == []
    engine.list_symbol("NEW")
    assert engine.submit("a", "NEW", "B", 100, 1).accepted


def test_membership_tracks_listing():
    engine = _engine(())
    assert "NEW" not in engine
    engine.list_symbol("NEW")
    engine.list_symbol("NEW")
    assert "NEW" in engine
    assert engine.symbols == ["NEW"]
