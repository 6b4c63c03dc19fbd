"""The benchmark's workloads: one ``SystemSpec`` each, seeded by the caller.

All three run the default firm stack (1 normalizer, 3 strategies, 1
gateway) under open-loop Poisson order flow at 200k orders/s of
simulated time: the spec's 40k/s base times Fig 2(a)'s 5.0 growth
multiplier, i.e. the sweep's year-4 cell. One batch simulates
``RUN_NS`` of that flow, so each batch is a fixed amount of work and
throughput is work completed per wall second at that input size.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Years along Fig 2(a)'s growth trend; year 4 carries the full 5.0x.
GROWTH_YEAR = 4

#: Simulated time per batch: 20 ms at 200k orders/s is ~4k orders,
#: about one wall second of simulation on a 2-core box.
RUN_NS = 20_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec_fields: dict
    #: Run through ``build_tail_report``, as ``repro report --tail`` does.
    tail_report: bool = False

    def spec(self, seed: int, run_ns: int = RUN_NS):
        from repro.core.config import SystemSpec
        from repro.workload.growth import growth_multiplier

        rate = SystemSpec().flow_rate_per_s * growth_multiplier(GROWTH_YEAR)
        return SystemSpec(
            seed=seed, flow_rate_per_s=rate, run_ns=run_ns, **self.spec_fields
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "leafspine-burst",
            "design1 leaf-spine, 12 symbols, telemetry off: multicast "
            "replication over 12 switch hops makes net and sim the busiest "
            "layers",
            {"design": "design1", "n_symbols": 12},
        ),
        Workload(
            "leafspine-observed",
            "leafspine-burst with telemetry on, run through the tail report: "
            "the gap to leafspine-burst is the cost of observability",
            {"design": "design1", "n_symbols": 12, "telemetry": True},
            tail_report=True,
        ),
        Workload(
            "options-chain",
            "design3 L1S, 8192 Zipf symbols, 64 exchange and 1024 firm "
            "partitions: symbol sampling, 8192 books and a quadratic set-up",
            {
                "design": "design3",
                "n_symbols": 8192,
                "exchange_partitions": 64,
                "firm_partitions": 1024,
            },
        ),
    )
}
