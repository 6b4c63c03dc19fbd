"""Fault-target lookup over a simulator's device registry.

Every :class:`~repro.sim.process.Component` and
:class:`~repro.net.link.Link` records itself on ``sim.registry`` when it
is constructed, so the fault-targetable devices of a built system are a
type filter over that list: the same for every design, with nothing to
add per builder. The registry is in construction order, so the result
is deterministic too (the controller sorts matched names anyway).
"""

from __future__ import annotations

from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.switch import CommoditySwitch


def devices_of(sim, kind: type) -> dict[str, object]:
    """Every device of ``kind`` built on ``sim``, keyed by name."""
    return {device.name: device for device in sim.registry if isinstance(device, kind)}


def targets_on(sim) -> dict[str, dict[str, object]]:
    """``{"link": {name: Link}, "switch": {...}, "nic": {...}}`` on ``sim``.

    ``"switch"`` means :class:`CommoditySwitch` only: L1S, merge and
    FPGA devices have no ``failed`` flag for ``switch_fail`` to set.
    """
    return {
        "link": devices_of(sim, Link),
        "switch": devices_of(sim, CommoditySwitch),
        "nic": devices_of(sim, Nic),
    }


def collect_targets(system) -> dict[str, dict[str, object]]:
    """Every named fault-targetable device of a built ``system``."""
    return targets_on(system.sim)
