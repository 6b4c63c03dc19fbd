"""Tests for placement, partition planning, and capacity."""

import numpy as np
import pytest

from repro.mgmt.capacity import first_overflow_year, project_capacity
from repro.mgmt.partitions import (
    FeedDemand,
    partitions_for_rate,
    plan_partitions,
)
from repro.mgmt.placement import (
    Flow,
    Placement,
    evaluate_placement,
    group_by_function_placement,
    optimize_placement,
    random_placement,
)
from repro.workload.growth import GrowthModel


def _workload(n_strategies=12, n_normalizers=2, n_gateways=2):
    components = {}
    flows = []
    for i in range(n_normalizers):
        components[f"norm{i}"] = "normalizer"
        flows.append(Flow("@exchange", f"norm{i}", weight=10.0))
    for i in range(n_gateways):
        components[f"gw{i}"] = "gateway"
        flows.append(Flow(f"gw{i}", "@exchange", weight=5.0))
    for i in range(n_strategies):
        name = f"strat{i}"
        components[name] = "strategy"
        flows.append(Flow(f"norm{i % n_normalizers}", name, weight=3.0))
        flows.append(Flow(name, f"gw{i % n_gateways}", weight=1.0))
    return components, flows


class TestPlacement:
    def test_grouped_placement_is_all_cross_rack(self):
        components, flows = _workload()
        placement = group_by_function_placement(components, n_racks=4, rack_capacity=8)
        internal = [f for f in flows if "@exchange" not in (f.src, f.dst)]
        assert all(placement.hops(f.src, f.dst) == 3 for f in internal)

    def test_optimizer_beats_grouped_and_random(self):
        components, flows = _workload()
        rng = np.random.default_rng(1)
        grouped = group_by_function_placement(components, 4, 8)
        randomized = random_placement(components, 4, 8, rng)
        optimized = optimize_placement(components, flows, 4, 8, rng)
        grouped_cost = evaluate_placement(grouped, flows)
        optimized_cost = evaluate_placement(optimized, flows)
        assert optimized_cost <= grouped_cost
        assert optimized_cost <= evaluate_placement(randomized, flows)

    def test_papers_caveat_exchange_legs_cannot_be_optimized(self):
        """§4.1: placement can only co-locate internal flows; legs to the
        dedicated exchange ToR stay at 3 hops for everyone."""
        components, flows = _workload()
        rng = np.random.default_rng(2)
        optimized = optimize_placement(components, flows, 4, 8, rng)
        exchange_flows = [f for f in flows if "@exchange" in (f.src, f.dst)]
        assert all(optimized.hops(f.src, f.dst) == 3 for f in exchange_flows)
        # So the optimized mean can never drop below the exchange floor.
        floor = sum(f.weight * 3 for f in exchange_flows) / sum(
            f.weight for f in flows
        )
        assert evaluate_placement(optimized, flows) >= floor

    def test_rack_capacity_respected(self):
        components, flows = _workload()
        rng = np.random.default_rng(3)
        for placement in (
            group_by_function_placement(components, 4, 6),
            random_placement(components, 4, 6, rng),
            optimize_placement(components, flows, 4, 6, rng),
        ):
            for rack in range(4):
                assert placement.rack_load(rack) <= 6

    def test_insufficient_racks_raises(self):
        components, _ = _workload()
        with pytest.raises(ValueError):
            group_by_function_placement(components, n_racks=1, rack_capacity=2)

    def test_placement_assign_validation(self):
        placement = Placement(n_racks=2, rack_capacity=1)
        placement.assign("a", 0)
        with pytest.raises(ValueError):
            placement.assign("b", 0)  # rack full
        with pytest.raises(ValueError):
            placement.assign("b", 5)  # out of range

    def test_evaluate_requires_flows(self):
        with pytest.raises(ValueError):
            evaluate_placement(Placement(1, 1), [])


class TestPartitionPlanning:
    def test_fits_within_budget(self):
        demands = [
            FeedDemand("equities", 4_000_000, 1_000_000),
            FeedDemand("options", 8_000_000, 1_000_000),
        ]
        plan = plan_partitions(demands, group_budget=100)
        assert plan.fits
        assert plan.allocations == plan.desired
        assert plan.coarsening_factor("options") == 1.0

    def test_over_budget_coarsens_proportionally(self):
        demands = [
            FeedDemand("equities", 10_000_000, 1_000_000),  # wants 20
            FeedDemand("options", 30_000_000, 1_000_000),  # wants 60
        ]
        plan = plan_partitions(demands, group_budget=40)
        assert not plan.fits
        assert plan.total_groups <= 40
        assert plan.shortfall == 40
        # Both feeds are coarsened, the bigger one more in absolute terms.
        assert plan.coarsening_factor("equities") > 1.0
        assert plan.coarsening_factor("options") > 1.0
        assert plan.allocations["options"] > plan.allocations["equities"]

    def test_leftover_budget_distributed(self):
        demands = [FeedDemand(f"f{i}", 3_000_000, 1_000_000) for i in range(3)]
        plan = plan_partitions(demands, group_budget=10)
        assert plan.total_groups == 10

    def test_budget_too_small_raises(self):
        with pytest.raises(ValueError):
            plan_partitions([FeedDemand("a", 1, 1)], group_budget=0)

    def test_partitions_for_rate_single_feed_view(self):
        """The sweep engine's partition axis: within budget the feed gets
        what it wants; past it, the budget caps the grant."""
        allocated, desired = partitions_for_rate(
            4_000_000, 1_000_000, group_budget=100
        )
        assert allocated == desired
        allocated, desired = partitions_for_rate(
            40_000_000, 1_000_000, group_budget=16
        )
        assert desired > 16
        assert allocated == 16


class TestCapacity:
    def test_projection_shape(self):
        projections = project_capacity()
        assert [p.year for p in projections] == [2020, 2021, 2022, 2023, 2024]
        assert all(p.partitions_needed > 0 for p in projections)
        # Demand grows monotonically with the volume trend.
        needs = [p.partitions_needed for p in projections]
        assert needs == sorted(needs)

    def test_demand_outgrows_tables(self):
        """§3's punchline: volume growth (500%/5y) swamps table growth
        (80%/decade). With tight enough per-partition capacity, the
        fabric runs out of groups inside the window."""
        projections = project_capacity(
            per_partition_capacity_events_per_s=1.0e4,
        )
        year = first_overflow_year(projections)
        assert year is not None and 2020 <= year <= 2024
        # ...and it fit at the start of the window: growth, not sizing.
        assert projections[0].fits

    def test_no_overflow_with_roomy_partitions(self):
        projections = project_capacity(
            per_partition_capacity_events_per_s=5.0e7,
        )
        assert first_overflow_year(projections) is None

    def test_switch_model_advances_with_years(self):
        projections = project_capacity(model=GrowthModel(2014, 2024))
        models = [p.switch_model for p in projections]
        assert models[0] != models[-1]
