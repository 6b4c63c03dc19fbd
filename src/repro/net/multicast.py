"""Multicast group management and distribution-tree installation.

Exchanges deliver market data over IP multicast, and firms re-publish
normalized feeds the same way (§2). The fabric must hold one mroute entry
per group on every switch the group's tree touches; ASIC table capacity is
the scarce resource §3 highlights (data volume +500% over five years vs.
group capacity +80%).

:class:`MulticastFabric` plays the role of IGMP snooping + PIM: sources
announce groups, receivers join and leave, and the fabric keeps each
switch's mroute table in sync with the resulting distribution trees. When
a switch's hardware table fills, additional groups spill to its software
path (see :mod:`repro.net.switch`) — exactly the overflow failure mode the
paper describes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Protocol

from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.switch import CommoditySwitch
from repro.net.topology import LeafSpineTopology


class GroupJoiner(Protocol):
    """Whatever joins a receiver NIC to a group: a
    :class:`MulticastFabric`, or any testbed network with a membership
    step (``FeedHandler.subscribe`` and ``Strategy.subscribe`` take one)."""

    def join(self, group: MulticastGroup, receiver: Nic) -> None: ...


@dataclass
class _GroupState:
    source_attach: tuple[CommoditySwitch, Link] | None = None
    receivers: dict[EndpointAddress, Nic] = field(default_factory=dict)


@dataclass
class MulticastPressure:
    """How loaded the fabric's multicast tables are."""

    groups: int
    max_hw_entries: int
    max_sw_entries: int
    switches_overflowed: int


class MulticastFabric:
    """Group membership manager for a :class:`LeafSpineTopology`.

    Trees are source-rooted: source leaf → one deterministic spine → each
    receiver leaf → receiver access links. Receivers on the source's own
    leaf are reached without touching the spine layer.
    """

    def __init__(self, topo: LeafSpineTopology):
        self.topo = topo
        self._groups: dict[MulticastGroup, _GroupState] = {}

    # -- membership ----------------------------------------------------------

    def announce_source(
        self, group: MulticastGroup, attach: tuple[CommoditySwitch, Link]
    ) -> None:
        """Declare the switch+link where ``group``'s source enters the fabric.

        For a server source, this is its (leaf, access link); for an
        exchange feed, the (exchange leaf, cross-connect link).
        """
        state = self._groups.setdefault(group, _GroupState())
        state.source_attach = attach
        self._reinstall(group)

    def announce_server_source(self, group: MulticastGroup, source: Nic) -> None:
        """Convenience: announce a source attached as a topology server."""
        leaf = self.topo.leaf_of(source.address)
        link = self.topo.access_link_of(source.address)
        self.announce_source(group, (leaf, link))

    def join(self, group: MulticastGroup, receiver: Nic) -> None:
        """Subscribe ``receiver`` to ``group`` and extend its tree."""
        state = self._groups.setdefault(group, _GroupState())
        state.receivers[receiver.address] = receiver
        receiver.join_group(group)
        self._reinstall(group)

    def leave(self, group: MulticastGroup, receiver: Nic) -> None:
        state = self._groups.get(group)
        if state is None:
            return
        state.receivers.pop(receiver.address, None)
        receiver.leave_group(group)
        self._reinstall(group)

    def receivers_of(self, group: MulticastGroup) -> list[Nic]:
        state = self._groups.get(group)
        return list(state.receivers.values()) if state else []

    @property
    def groups(self) -> list[MulticastGroup]:
        return list(self._groups)

    # -- tree computation ------------------------------------------------------

    def _spine_for(self, group: MulticastGroup) -> CommoditySwitch:
        alive = [s for s in self.topo.spines if not s.failed]
        if not alive:
            raise RuntimeError("no alive spines: multicast is partitioned")
        index = zlib.crc32(str(group).encode()) % len(alive)
        return alive[index]

    def _reinstall(self, group: MulticastGroup) -> None:
        """Recompute and install the egress sets for ``group`` everywhere."""
        state = self._groups[group]
        if state.source_attach is None:
            return  # tree forms once the source is known
        source_switch, _source_link = state.source_attach
        spine = self._spine_for(group)

        egress: dict[str, set[Link]] = {}

        def add(switch: CommoditySwitch, link: Link) -> None:
            egress.setdefault(switch.name, set()).add(link)

        remote_leaves: set[str] = set()
        for address in state.receivers:
            leaf = self.topo.leaf_of(address)
            access = self.topo.access_link_of(address)
            add(leaf, access)
            if leaf is not source_switch:
                remote_leaves.add(leaf.name)
                add(spine, self.topo.fabric_link(leaf, spine))

        if remote_leaves:
            add(source_switch, self.topo.fabric_link(source_switch, spine))

        switches = {s.name: s for s in self.topo.switches}
        for name, switch in switches.items():
            links = egress.get(name)
            if links:
                switch.install_mroute(group, links)
            else:
                switch.remove_mroute(group)

        # Table pressure is the §3 scarce resource; gauge it on every
        # membership change (control plane, so no hot-path concern).
        telemetry = self.topo.sim.telemetry
        if telemetry is not None:
            now = self.topo.sim.now
            load = self.pressure()
            telemetry.gauge_set("multicast.fabric.groups", now, load.groups)
            telemetry.gauge_set("multicast.fabric.hw_entries", now, load.max_hw_entries)
            telemetry.gauge_set("multicast.fabric.sw_entries", now, load.max_sw_entries)

    def reinstall_all(self) -> None:
        """Recompute every group's tree — the PIM reconvergence step
        after a topology change (e.g. a spine failure)."""
        for group in list(self._groups):
            self._reinstall(group)

    # -- capacity analysis ------------------------------------------------------

    def pressure(self) -> MulticastPressure:
        """Summarize table load across the fabric."""
        max_hw = max_sw = overflowed = 0
        for switch in self.topo.switches:
            max_hw = max(max_hw, switch.mroute_hw_entries)
            max_sw = max(max_sw, switch.mroute_sw_entries)
            if switch.mroute_sw_entries:
                overflowed += 1
        return MulticastPressure(
            groups=len(self._groups),
            max_hw_entries=max_hw,
            max_sw_entries=max_sw,
            switches_overflowed=overflowed,
        )
