"""Feed handling: subscription, arbitration, and decoding.

A :class:`FeedHandler` owns one market-data NIC. It joins multicast
groups (through the fabric's membership manager), runs one A/B arbiter
per group so redundant legs and loss are handled uniformly, and hands
decoded PITCH messages to its sink in sequence order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.addressing import MulticastGroup
from repro.net.multicast import GroupJoiner, MulticastFabric
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.protocols.pitch import PitchMessage
from repro.protocols.seqfeed import FeedArbiter
from repro.sim.kernel import Simulator
from repro.sim.process import Component


@dataclass
class FeedHandlerStats:
    payloads: int = 0
    messages: int = 0
    decode_errors: int = 0


def arbiter_key(group: MulticastGroup) -> tuple[str, int]:
    """Collapse redundant feed legs onto one arbitration stream.

    Exchanges publish each partition on two groups — conventionally the
    feed name carries a ``.A`` / ``.B`` suffix. Both legs carry the same
    sequence space, so they must share an arbiter: key by the feed name
    with any leg suffix stripped, plus the partition.
    """
    feed = group.feed
    if feed.endswith((".A", ".B")):
        feed = feed[:-2]
    return feed, group.partition


class FeedHandler(Component):
    """Subscribes a NIC to market-data groups and decodes what arrives.

    ``sink`` is called as ``sink(group, message)`` for every message, in
    per-group sequence order. Subscribing to both the ``.A`` and ``.B``
    legs of a feed arbitrates them into a single stream (duplicates
    suppressed, either leg fills the other's loss). Gaps that persist are
    the caller's policy decision: poll :meth:`gaps` and call
    :meth:`declare_loss`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        nic: Nic,
        sink: Callable[[MulticastGroup, PitchMessage], None],
    ):
        super().__init__(sim, name)
        self.nic = nic
        self.sink = sink
        self.stats = FeedHandlerStats()
        # Telemetry context of the packet currently being decoded, so the
        # sink can continue the trace across the packet → message
        # boundary. Messages the arbiter buffered earlier (gap fills)
        # are attributed to the packet that released them.
        self.current_trace = None
        self._arbiters: dict[tuple[str, int], FeedArbiter] = {}
        self._subscriptions: set[MulticastGroup] = set()
        # Precomputed instrument names for the telemetry-on fast path.
        # arbiter_backlog is the total of messages buffered out-of-order
        # across arbiters — the gap-fill queue depth.
        self._payloads_series = f"feed.{name}.payloads"
        self._backlog_series = f"feed.{name}.arbiter_backlog"
        # Optional lifecycle machine (repro.firm.lifecycle), wired by the
        # chaos tier: observes every packet's gap state so WARMING/READY/
        # DEGRADED transitions happen on the packet that caused them.
        self.lifecycle = None
        nic.bind(self._on_packet)

    def subscribe(
        self, group: MulticastGroup, fabric: GroupJoiner | None = None
    ) -> None:
        """Join ``group``; via ``fabric`` when a network manages
        membership (a routed multicast fabric, a testbed fabric), or
        directly (NIC filter only) where membership is physical wiring."""
        if fabric is not None:
            fabric.join(group, self.nic)
        else:
            self.nic.join_group(group)
        self._subscriptions.add(group)
        self._arbiters.setdefault(arbiter_key(group), self._make_arbiter(group))

    def unsubscribe(
        self, group: MulticastGroup, fabric: MulticastFabric | None = None
    ) -> None:
        if fabric is not None:
            fabric.leave(group, self.nic)
        else:
            self.nic.leave_group(group)
        self._subscriptions.discard(group)
        key = arbiter_key(group)
        if not any(arbiter_key(g) == key for g in self._subscriptions):
            self._arbiters.pop(key, None)

    @property
    def subscriptions(self) -> list[MulticastGroup]:
        return sorted(self._subscriptions, key=str)

    def _make_arbiter(self, group: MulticastGroup) -> FeedArbiter:
        unit = (group.partition % 255) + 1

        def deliver(message: PitchMessage, group=group) -> None:
            self.stats.messages += 1
            self.sink(group, message)

        return FeedArbiter(unit=unit, sink=deliver)

    def _on_packet(self, packet: Packet) -> None:
        group = packet.dst
        if not isinstance(group, MulticastGroup):
            return
        arbiter = self._arbiters.get(arbiter_key(group))
        if arbiter is None:
            return  # stale traffic for a group we just left
        payload = packet.message
        if not isinstance(payload, (bytes, bytearray)):
            return
        self.stats.payloads += 1
        self.current_trace = packet.trace
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.count(self._payloads_series, self.now)
        try:
            arbiter.on_payload(bytes(payload))
        except ValueError:
            self.stats.decode_errors += 1
        finally:
            self.current_trace = None
        if telemetry is not None:
            telemetry.gauge_set(self._backlog_series, self.now, arbiter.buffered)
        lifecycle = self.lifecycle
        if lifecycle is not None:
            lifecycle.on_feed(self.now, arbiter.gap is not None)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def gaps(self) -> dict[MulticastGroup, tuple[int, int]]:
        """Open sequence gaps per group."""
        out = {}
        for group in self._subscriptions:
            arbiter = self._arbiters.get(arbiter_key(group))
            if arbiter is not None and arbiter.gap is not None:
                out[group] = arbiter.gap
        return out

    def declare_loss(self, group: MulticastGroup) -> int:
        """Give up on ``group``'s open gap (returns seqnos written off)."""
        arbiter = self._arbiters.get(arbiter_key(group))
        return arbiter.declare_loss() if arbiter else 0
