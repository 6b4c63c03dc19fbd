"""Config-driven system construction.

A downstream user shouldn't need to know the wiring internals to stand
up an experiment: :class:`SystemSpec` captures every knob the testbed
builders expose, validates it, round-trips through JSON, and builds the
system through the :mod:`repro.core.api` facade. This is also what the
CLI's ``run`` and ``trace`` commands consume.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.sim.kernel import MILLISECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.testbed import TradingSystem

# The paper's §4 designs plus the cross-colo WAN deployment: the specs
# the CLI sweeps and the comparison tables cover.
DESIGNS = ("design1", "design2", "design3", "design4", "wan")
# Auxiliary testbeds: fully spec-buildable, but not part of the design
# comparison (different handle types / workloads).
AUX_DESIGNS = ("multivenue", "ticktotrade")
ALL_DESIGNS = DESIGNS + AUX_DESIGNS

# Descriptive aliases accepted anywhere a design name is (CLI flags,
# spec files): the paper's §4 vocabulary mapped onto registry names.
DESIGN_ALIASES = {
    "leaf_spine": "design1",
    "cloud": "design2",
    "l1s": "design3",
    "fpga_l1s": "design4",
}


def resolve_design(name: str) -> str:
    """Canonical design name for ``name`` (alias, bare number, or canonical)."""
    if name.isdigit():
        return f"design{name}"
    return DESIGN_ALIASES.get(name, name)


def unknown_field_error(unknown, valid, kind: str) -> ValueError:
    """A ``ValueError`` naming each unknown field and its closest valid one.

    Shared by every ``from_dict`` in the tree (:class:`SystemSpec`,
    :class:`~repro.core.run.RunResult`,
    :class:`~repro.sweep.matrix.MatrixSpec`), so a typo'd spec file
    fails the same way everywhere: the offending key, a difflib
    suggestion when one is close enough, and the full valid set.
    """
    valid = sorted(valid)
    parts = []
    for key in sorted(unknown):
        close = difflib.get_close_matches(key, valid, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        parts.append(f"{key!r}{hint}")
    return ValueError(
        f"unknown {kind} field(s): {', '.join(parts)}; valid fields: {valid}"
    )


@dataclass(frozen=True)
class SystemSpec:
    """Everything needed to build and run one simulated trading system.

    Not every design consumes every knob. All five designs share one
    assembler (:func:`~repro.core.testbed.assemble`), and each design's
    fabric says which firm-stack knobs apply: ``n_normalizers`` applies
    to designs 1 and 3 only (the design 2, 4 and ``wan`` fabrics run one
    normalizer), ``firm_partitions`` to every design but 2 (no tenant
    multicast), ``equalized_delivery_ns`` to design 2 and
    ``subscriptions_per_strategy`` to design 4. ``wan`` pins two
    exchange partitions and honours ``microwave_loss`` and, like every
    design, ``matching_latency_ns``. The two auxiliary testbeds wire
    themselves and honour fewer fields (besides ``run_ns``): ``multivenue``
    takes ``seed``, ``n_symbols``, ``firm_partitions``,
    ``flow_rate_per_s``, ``min_edge_ticks``, ``with_risk_gate`` and
    ``telemetry``; ``ticktotrade`` takes ``seed`` and ``telemetry``.
    Unused knobs are ignored, never rejected, so one spec can sweep
    across designs.
    """

    design: str = "design1"
    seed: int = 1
    n_symbols: int = 12
    n_strategies: int = 3
    n_normalizers: int = 1
    flow_rate_per_s: float = 40_000.0
    exchange_partitions: int = 4
    firm_partitions: int = 8
    function_latency_ns: int = 2_000
    matching_latency_ns: int = 10_000
    run_ns: int = 40 * MILLISECOND
    # Telemetry (repro.telemetry): False keeps the zero-overhead path.
    telemetry: bool = False
    # design4: limit each strategy to its first N firm partitions.
    subscriptions_per_strategy: int | None = None
    # design2: the cloud fabric's equalized delivery guarantee.
    equalized_delivery_ns: int = 50_000
    # wan: loss probability on the microwave legs.
    microwave_loss: float = 0.02
    # multivenue: arbitrage edge threshold and optional NBBO risk gate.
    min_edge_ticks: int = 100
    with_risk_gate: bool = False
    # Chaos tier (repro.chaos): deterministic fault windows (plain dicts
    # matching chaos.FaultSpec) and the firm lifecycle state machine.
    # Both default off, and to_dict omits them when off, so a chaos-free
    # spec serializes exactly as it did before the tier existed.
    faults: tuple = ()
    lifecycle: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "design", resolve_design(self.design))
        if self.design not in ALL_DESIGNS:
            raise ValueError(
                f"design must be one of {ALL_DESIGNS}, got {self.design!r}"
            )
        if self.n_symbols < 1 or self.n_strategies < 1 or self.n_normalizers < 1:
            raise ValueError("system needs at least one of each component")
        if self.flow_rate_per_s < 0 or self.run_ns <= 0:
            raise ValueError("rates and durations must be positive")
        if self.exchange_partitions < 1 or self.firm_partitions < 1:
            raise ValueError("partition counts must be >= 1")
        if self.function_latency_ns < 0 or self.matching_latency_ns < 0:
            raise ValueError("latencies must be >= 0")
        if self.subscriptions_per_strategy is not None and (
            self.subscriptions_per_strategy < 1
        ):
            raise ValueError("subscriptions_per_strategy must be >= 1 or None")
        if self.equalized_delivery_ns < 0:
            raise ValueError("equalized_delivery_ns must be >= 0")
        if not 0.0 <= self.microwave_loss < 1.0:
            raise ValueError("microwave_loss must be in [0, 1)")
        if self.min_edge_ticks < 0:
            raise ValueError("min_edge_ticks must be >= 0")
        if self.faults:
            object.__setattr__(
                self, "faults", tuple(dict(fault) for fault in self.faults)
            )
            # Validation lives with the fault vocabulary; the lazy import
            # is the sanctioned upward reference (chaos sits above core).
            from repro.chaos.spec import parse_faults

            parse_faults(self.faults)

    # -- (de)serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out = asdict(self)
        out["faults"] = [dict(fault) for fault in self.faults]
        if not out["faults"]:
            del out["faults"]
        if not out["lifecycle"]:
            del out["lifecycle"]
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "SystemSpec":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise unknown_field_error(
                unknown, cls.__dataclass_fields__, "SystemSpec"
            )
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "SystemSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- building ------------------------------------------------------------

    def build(self) -> "TradingSystem":
        from repro.core.api import build_system

        return build_system(self)

    def build_and_run(self) -> "TradingSystem":
        from repro.core.run import execute_spec

        return execute_spec(self).system
