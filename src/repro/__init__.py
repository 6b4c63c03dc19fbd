"""repro — a simulation and analysis framework for low-latency trading
networks.

This library reproduces, at laptop scale, the systems and analyses of
*Network Design Considerations for Trading Systems* (Myers, Nigito,
Foster — HotNets '24): the trading-system architecture of §2 (exchanges,
normalizers, strategies, gateways over multicast and order-entry
sessions), the workload and hardware trends of §3 (Table 1, Figure 2,
switch latency and multicast-capacity trends), and the three network
designs of §4 (leaf-spine commodity switching, latency-equalized cloud,
layer-1 switch fabrics).

Quick start::

    from repro.core import build_system
    system = build_system(design="design1", seed=1)
    system.run(30_000_000)  # 30 simulated milliseconds
    print(system.roundtrip_stats())

Subpackages
-----------
``repro.sim``        discrete-event kernel (integer-ns virtual time)
``repro.net``        links, NICs, commodity + layer-1 switches, multicast
``repro.protocols``  PITCH-style market data, BOE-style order entry, ITF
``repro.exchange``   matching engine, feed publisher, order-entry port
``repro.firm``       normalizers, strategies, gateways, NBBO, risk
``repro.workload``   calibrated workload generators (Table 1, Figure 2)
``repro.timing``     latency accounting
``repro.mgmt``       placement, partition & capacity planning, migration
``repro.core``       the three designs, budgets, merge analysis, testbeds
``repro.telemetry``  opt-in tracing + metrics (per-hop round-trip spans)
``repro.analysis``   window statistics, tables, experiment records
``repro.lint``       AST static analysis: determinism + unit-safety gates
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "exchange",
    "firm",
    "lint",
    "mgmt",
    "net",
    "protocols",
    "sim",
    "telemetry",
    "timing",
    "workload",
]
