"""The paper's core contribution: the trading-network design space.

* :mod:`repro.core.latency` — latency-budget composition (the arithmetic
  behind "half of the overall time through the system is spent in the
  network");
* :mod:`repro.core.designs` — the three §4 designs as analyzable
  objects: Design 1 (leaf-spine commodity switches), Design 2
  (latency-equalized cloud), Design 3 (layer-1 switches);
* :mod:`repro.core.merge` — the L1S merge-bottleneck analysis of §4.3
  and the filtering/compression mitigations of §5;
* :mod:`repro.core.testbed` — fully-simulated end-to-end builds of
  the §4 designs and the cross-colo WAN deployment (exchange →
  normalizer → strategy → gateway → exchange): one
  :func:`~repro.core.testbed.assemble` over a pluggable
  :class:`~repro.core.testbed.Fabric` per design, used by the
  round-trip experiments;
* :mod:`repro.core.api` — the :func:`build_system` facade: every
  testbed (Designs 1–4, the cross-colo WAN build and the two auxiliary
  testbeds) constructed from one :class:`SystemSpec`;
* :mod:`repro.core.run` — the one execution path: :func:`run_spec`
  turns a :class:`SystemSpec` into a plain-data, JSON-round-trippable
  :class:`RunResult` (what the CLI, bench, and ``repro sweep`` all run
  through);
* :mod:`repro.core.compare` — the cross-design comparison table.
"""

from repro.core.api import available_designs, build_system, register_builder
from repro.core.latency import BudgetItem, Category, PathBudget
from repro.core.designs import (
    Design1LeafSpine,
    Design2Cloud,
    Design3L1S,
    Design4EnhancedL1S,
    NicPlanVerdict,
)
from repro.core.merge import MergeAnalysis, analyze_merge, safe_merge_count
from repro.core.compare import DesignComparison, compare_designs
from repro.core.testbed import TradingSystem
from repro.core.cloud import CloudFabric
from repro.core.config import SystemSpec, resolve_design
from repro.core.run import (
    ExecutedRun,
    RunResult,
    execute_spec,
    run_spec,
    summarize_run,
)
from repro.core.multivenue import MultiVenueSystem, build_multi_venue_system
from repro.core.ticktotrade import HardwareStrategy, build_tick_to_trade_system

__all__ = [
    "BudgetItem",
    "Category",
    "available_designs",
    "build_system",
    "register_builder",
    "CloudFabric",
    "MultiVenueSystem",
    "build_multi_venue_system",
    "ExecutedRun",
    "RunResult",
    "SystemSpec",
    "execute_spec",
    "resolve_design",
    "run_spec",
    "summarize_run",
    "Design1LeafSpine",
    "Design2Cloud",
    "Design3L1S",
    "Design4EnhancedL1S",
    "HardwareStrategy",
    "build_tick_to_trade_system",
    "DesignComparison",
    "MergeAnalysis",
    "NicPlanVerdict",
    "PathBudget",
    "TradingSystem",
    "analyze_merge",
    "compare_designs",
    "safe_merge_count",
]
