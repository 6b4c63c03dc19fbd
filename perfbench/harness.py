"""One batch of a workload: build, run, and read back what happened.

A batch builds the workload's system with ``build_system``, runs it
through the same entry point a user would (``execute_spec``, or
``build_tail_report`` for the observed workload), and then, off the
clock, summarizes it: the ``RunResult`` fingerprint, the simulated
outputs and the per-layer counts read from the components' public
``*Stats`` objects. A traced batch does the same with the boundary
wrappers of ``layers.py`` in place and returns the tracer's ledgers.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

from layers import LAYERS, all_boundaries
from tracer import Ledger, Tracer
from workloads import RUN_NS

clock = time.perf_counter_ns


@dataclass
class Batch:
    """What one batch measured and produced."""

    traced: bool
    setup_ns: int = 0
    #: The run window: everything the entry point did after the build.
    wall_ns: int = 0
    fingerprint: str = ""
    sim_out: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    setup_ledger: Ledger | None = None
    run_ledger: Ledger | None = None
    chrome_trace: dict | None = None


class BuildTimer:
    """Times the ``build_system`` call made inside the block.

    ``execute_spec`` imports ``build_system`` from ``repro.core.api`` on
    every call, so replacing that attribute for the block's duration
    sees the build without changing the code that makes it. With a
    tracer, the tracer's ledger is split at the build's edges, giving
    the set-up phase its own ledger.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.setup_ns = 0
        self.system = None
        self.before_setup: Ledger | None = None
        self.setup_ledger: Ledger | None = None

    def __enter__(self) -> "BuildTimer":
        from repro.core import api

        self._api = api
        self._original = build = api.build_system
        tracer = self.tracer

        def timed_build(spec=None, **overrides):
            if tracer is not None:
                self.before_setup = tracer.take()
            start = clock()
            system = build(spec, **overrides)
            self.setup_ns = clock() - start
            if tracer is not None:
                self.setup_ledger = tracer.take()
            self.system = system
            return system

        api.build_system = timed_build
        return self

    def __exit__(self, *exc) -> None:
        self._api.build_system = self._original


def fingerprint(result) -> str:
    """sha256 of the run's deterministic summary."""
    text = result.to_json(deterministic=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def layer_counts(system) -> dict:
    """Work counts per layer, read from the components' ``*Stats``."""
    from repro.chaos.targets import collect_targets

    devices = collect_targets(system)
    links = list(devices["link"].values())
    switches = list(devices["switch"].values())
    l1_devices = list(system.l1_switches) + list(system.merge_units)

    def both_ways(link):
        return link.stats_from(link.end_a), link.stats_from(link.end_b)

    link_stats = [stats for link in links for stats in both_ways(link)]
    switch_egress = [
        link.stats_from(switch) for switch in switches for link in switch.links
    ]
    publisher = system.exchange.publisher.stats
    normalizers = system.normalizers
    strategies = system.strategies
    telemetry = system.sim.telemetry
    traces = traces_dropped = 0
    if telemetry is not None:
        traces = len(telemetry.traces)
        dropped = telemetry.metrics.counters.get("telemetry.traces_dropped")
        traces_dropped = dropped.value if dropped is not None else 0
    return {
        "market_events": publisher.messages,
        "kernel_events": system.sim.events_executed,
        "link_packets": sum(s.packets_sent for s in link_stats),
        "switch_copies": (
            sum(s.packets_sent + s.packets_dropped_queue for s in switch_egress)
            + sum(device.stats.copies_out for device in l1_devices)
        ),
        "drops": (
            sum(s.packets_dropped_queue + s.packets_lost for s in link_stats)
            + sum(sw.stats.blackholed + sw.stats.software_dropped for sw in switches)
        ),
        "frames": publisher.frames,
        "messages_per_frame": publisher.messages_per_frame,
        "decode_errors": sum(n.feed.stats.decode_errors for n in normalizers),
        "orders_accepted": system.exchange.engine.stats.orders_accepted,
        "normalizer_messages_in": sum(n.stats.messages_in for n in normalizers),
        "strategy_updates_in": sum(s.stats.updates_in for s in strategies),
        "seq_gaps": (
            sum(s.stats.seq_gaps for s in strategies)
            + sum(len(n.feed.gaps()) for n in normalizers)
        ),
        "orders": system.flow.stats.total,
        "traces": traces,
        "traces_dropped": traces_dropped,
    }


def output_problems(batch: Batch) -> list[str]:
    """Why this batch's outputs are wrong, on a fault-free workload."""
    problems = []
    if not batch.sim_out.get("roundtrips"):
        problems.append("no round trips completed")
    for name in ("drops", "decode_errors", "seq_gaps"):
        if batch.counts.get(name):
            problems.append(f"{name} = {batch.counts[name]}, expected 0")
    return problems


def run_batch(
    workload, seed: int, *, traced: bool = False, run_ns: int = RUN_NS
) -> Batch:
    """Run one batch of ``workload``; failures land in ``problems``."""
    batch = Batch(traced=traced)
    try:
        _run(batch, workload.spec(seed, run_ns), workload.tail_report)
    except Exception as error:  # a failed batch is counted, not fatal
        batch.problems.append(f"raised {type(error).__name__}: {error}")
    return batch


def _run(batch: Batch, spec, tail_report: bool) -> None:
    from repro.telemetry.chrometrace import validate_chrome_trace

    report = importlib.import_module("repro.analysis.report")
    run = importlib.import_module("repro.core.run")

    tracer = None
    if batch.traced:
        tracer = Tracer(LAYERS)
        tracer.install(all_boundaries())
    timer = BuildTimer(tracer)
    gc.collect()
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        stack.enter_context(timer)
        start = tracer.open_root() if tracer else clock()
        try:
            # Looked up at call time, so a traced batch calls the wrappers.
            if tail_report:
                report.build_tail_report(spec)
            else:
                run.execute_spec(spec)
        finally:
            end = tracer.close_root() if tracer else clock()
    batch.setup_ns = timer.setup_ns
    batch.wall_ns = end - start - timer.setup_ns

    system = timer.system
    result = run.summarize_run(
        run.ExecutedRun(spec=spec, system=system, profiler=None, wall_ns=0)
    )
    roundtrip = result.roundtrip or {}
    batch.fingerprint = fingerprint(result)
    batch.counts = layer_counts(system)
    batch.sim_out = {
        "roundtrips": roundtrip.get("count", 0),
        "rtt_p50_ns": roundtrip.get("median_ns", 0),
        "rtt_p99_ns": roundtrip.get("p99_ns", 0),
        "kernel_events": result.events_executed,
        "fingerprint": batch.fingerprint,
    }
    batch.problems.extend(output_problems(batch))

    if tracer is not None:
        batch.setup_ledger = timer.setup_ledger
        batch.run_ledger = timer.before_setup.add(tracer.take())
        tracer.check_tiling([batch.setup_ledger, batch.run_ledger], end - start)
        batch.counts["telemetry_calls"] = batch.run_ledger.spans["telemetry"]
        if not spec.telemetry and batch.counts["telemetry_calls"]:
            batch.problems.append("telemetry called with telemetry off")
        batch.chrome_trace = tracer.chrome_trace(origin_ns=start)
        batch.problems.extend(validate_chrome_trace(batch.chrome_trace))
        batch.problems.extend(tracer.problems)


def tiny(workload):
    """``workload`` on a small system: same design and telemetry, few symbols.

    Builds in milliseconds, so it serves for warming up and for tests.
    """
    small = {
        "n_symbols": min(workload.spec_fields.get("n_symbols", 12), 64),
        "exchange_partitions": 4,
        "firm_partitions": 8,
    }
    return replace(workload, spec_fields={**workload.spec_fields, **small})


def warm_up(workload, seed: int) -> None:
    """Import and exercise every code path once, on a tiny system.

    Keeps first-call costs (module imports, builder registration) out
    of the timed batches.
    """
    run_batch(tiny(workload), seed, run_ns=1_000_000)
