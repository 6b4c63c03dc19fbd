"""The public construction facade: one entry point for every testbed.

Seven fully-wired systems live in this package — Design 1 (leaf-spine),
Design 2 (equalized cloud), Design 3 (L1S), Design 4 (FPGA-enhanced
L1S), the cross-colo WAN deployment, and two auxiliary testbeds (the
multi-venue aggregation build and the hardware tick-to-trade pipeline).
Historically each had its own
``build_*`` function with a slightly different signature; downstream
code had to know which module to import and which knobs each builder
accepts. :func:`build_system` replaces that: every system is described
by a :class:`~repro.core.config.SystemSpec` and built the same way::

    from repro.core import build_system
    from repro.core.config import SystemSpec

    system = build_system(SystemSpec(design="design3", seed=7))
    # or, equivalently:
    system = build_system(design="design3", seed=7)

Builder modules register themselves against a design name with
:func:`register_builder`; the registry is populated lazily on the first
:func:`build_system` call so importing this module stays cheap and free
of circular imports.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.core.config import ALL_DESIGNS, SystemSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.testbed import TradingSystem

# design name -> spec adapter. Builder modules append to this via
# register_builder at import time; build_system imports them on first use.
_BUILDERS: dict[str, Callable[[SystemSpec], "TradingSystem"]] = {}

_BUILDER_MODULES = (
    "repro.core.testbed",
    "repro.core.cloud",
    "repro.core.wan_testbed",
    "repro.core.multivenue",
    "repro.core.ticktotrade",
)


def register_builder(design: str):
    """Register the decorated ``spec -> system`` adapter as ``design``'s builder.

    Used by the testbed modules themselves; the adapter receives a
    validated :class:`SystemSpec` and returns the built system.
    """
    if design not in ALL_DESIGNS:
        raise ValueError(
            f"unknown design {design!r}; expected one of {ALL_DESIGNS}"
        )

    def decorate(adapter: Callable[[SystemSpec], "TradingSystem"]):
        _BUILDERS[design] = adapter
        return adapter

    return decorate


_builders_loaded = False


def _load_builders() -> None:
    # A partially-populated registry is normal (importing repro.core pulls
    # in several builder modules, each self-registering), so completeness
    # is tracked with a flag rather than inferred from len(_BUILDERS).
    global _builders_loaded
    if _builders_loaded:
        return
    import importlib

    for module in _BUILDER_MODULES:
        importlib.import_module(module)
    _builders_loaded = True


def available_designs() -> tuple[str, ...]:
    """The design names :func:`build_system` accepts."""
    return ALL_DESIGNS


def build_system(spec: SystemSpec | None = None, **overrides):
    """Build any of the seven testbeds from one spec.

    ``spec`` may be omitted and the system described entirely by keyword
    overrides (``build_system(design="design4", seed=3)``); when both
    are given, overrides are applied on top of the spec with
    :func:`dataclasses.replace`, re-running validation.

    Returns the built (not yet run) system: a
    :class:`~repro.core.testbed.TradingSystem` for the four colo
    designs and ``design="wan"`` (each assembled by
    :func:`~repro.core.testbed.assemble` over its fabric), a
    :class:`~repro.core.multivenue.MultiVenueSystem`
    for ``design="multivenue"``, and a
    :class:`~repro.core.ticktotrade.TickToTradeSystem` for
    ``design="ticktotrade"``.
    """
    if spec is None:
        spec = SystemSpec(**overrides)
    elif overrides:
        spec = replace(spec, **overrides)
    _load_builders()
    try:
        adapter = _BUILDERS[spec.design]
    except KeyError:
        raise ValueError(
            f"no builder registered for design {spec.design!r}; "
            f"known: {sorted(_BUILDERS)}"
        ) from None
    return adapter(spec)
