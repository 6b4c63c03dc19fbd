"""Cluster management: placement, partition planning, capacity, migration.

§5 asks for cloud-style automation of "provisioning, placement, and
scaling" that optimizes latency above other criteria. This package is
that layer for the simulated firm:

* :mod:`repro.mgmt.placement` — latency-first placement of normalizers,
  strategies, and gateways onto racks;
* :mod:`repro.mgmt.partitions` — feed → multicast-group planning under
  switch table budgets;
* :mod:`repro.mgmt.capacity` — what-if projections of workload growth
  against hardware generations;
* :mod:`repro.mgmt.feedmap` — interest-clustered symbol → group mapping;
* :mod:`repro.mgmt.migration` — bare-metal migration planning.
"""

from repro.mgmt.placement import (
    Flow,
    Placement,
    evaluate_placement,
    group_by_function_placement,
    optimize_placement,
    random_placement,
)
from repro.mgmt.partitions import PartitionPlan, plan_partitions
from repro.mgmt.capacity import CapacityProjection, project_capacity
from repro.mgmt.feedmap import (
    evaluate_mapping,
    interest_clustered_mapping,
    scheme_from_mapping,
)
from repro.mgmt.migration import MigrationParams, MigrationPlan, plan_migration

__all__ = [
    "MigrationParams",
    "MigrationPlan",
    "evaluate_mapping",
    "interest_clustered_mapping",
    "plan_migration",
    "scheme_from_mapping",
    "CapacityProjection",
    "Flow",
    "PartitionPlan",
    "Placement",
    "evaluate_placement",
    "group_by_function_placement",
    "optimize_placement",
    "plan_partitions",
    "project_capacity",
    "random_placement",
]
