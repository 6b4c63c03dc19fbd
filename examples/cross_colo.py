#!/usr/bin/env python3
"""Trading a remote venue: the metro-WAN story of §2.

Places an exchange in Carteret and the firm in Mahwah, connected by a
lossy-but-fast microwave leg and a lossless-but-slow fiber leg (market
data, A/B-arbitrated) plus a reliable order channel over microwave.
Prints where every microsecond of the remote round trip goes, and why
firms put servers in all three buildings instead.

Run:  python examples/cross_colo.py
"""

import numpy as np

from repro.core import build_system
from repro.sim.kernel import MILLISECOND, format_ns


def main() -> None:
    print("Building: exchange in Carteret, firm stack in Mahwah...")
    system = build_system(
        design="wan", seed=8, microwave_loss=0.03, n_strategies=2,
        flow_rate_per_s=30_000.0, firm_partitions=4,
    )
    metro = system.metro
    mw = metro.microwave_latency_ns("carteret", "mahwah")
    fiber = metro.fiber_latency_ns("carteret", "mahwah")
    print(f"metro geometry : {metro.distance_m('carteret','mahwah')/1609.34:.0f} miles")
    print(f"  microwave one-way {format_ns(mw)}, fiber one-way {format_ns(fiber)} "
          f"(microwave saves {format_ns(fiber-mw)} per crossing)")

    print("\nRunning 50 simulated ms...")
    system.run(50 * MILLISECOND)

    mw_stats = system.microwave.stats_from(system.microwave.end_a)
    print(f"\nmarket data  : {system.normalizers[0].stats.messages_in:,} messages "
          f"arbitrated from two legs "
          f"({mw_stats.packets_lost} frames lost to microwave fade, "
          f"zero messages missing)")

    stats = system.roundtrip_stats()
    print(f"orders       : {stats.count} round trips, median "
          f"{format_ns(int(stats.median))}, p99 {format_ns(int(stats.p99))}")
    retransmits = (system.order_channel_firm.stats.retransmits
                   + system.order_channel_exchange.stats.retransmits)
    print(f"               ({retransmits} WAN retransmissions; "
          f"0 orders lost)")

    print("\nwhere the median goes:")
    local_processing = stats.median - 2 * mw
    print(f"  2 metro crossings        : {format_ns(2*mw)}")
    print(f"  everything else          : {format_ns(int(local_processing))} "
          f"(normalize, decide, translate, match)")

    local = build_system(design="design1", seed=8)
    local.run(50 * MILLISECOND)
    local_median = local.roundtrip_stats().median
    print(f"\nthe same loop with servers *in* Carteret: "
          f"{format_ns(int(local_median))}")
    print(f"remote/local ratio: {stats.median/local_median:.0f}x — this is why")
    print('"trading on all U.S. equities markets requires placing servers in')
    print(' three different co-location facilities" (§2)')


if __name__ == "__main__":
    main()
