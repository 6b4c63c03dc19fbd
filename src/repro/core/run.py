"""The one way to execute a run: ``run_spec(spec) -> RunResult``.

Every run-shaped entry point in the tree — the CLI's ``run``/``trace``/
``report``/``scenario`` commands, the ``repro sweep`` matrix engine and
``perfbench``'s workloads — executes through this module, so "build the system,
run it, summarize what happened" has exactly one implementation.

Two layers:

* :func:`execute_spec` builds a system from a
  :class:`~repro.core.config.SystemSpec`, runs it for ``spec.run_ns``,
  and returns an :class:`ExecutedRun` holding the *live* handles plus
  the wall time of the run window (construction excluded). Callers that
  need live objects — the trace CLI decomposing ``telemetry.traces``,
  the report CLI reading the windowed recorder — consume this directly.
* :func:`run_spec` wraps :func:`execute_spec` and boils the live system
  down to a :class:`RunResult`: a plain-data, JSON-round-trippable
  summary (round-trip stats, telemetry counters, gauge high-watermarks,
  workload totals). Because both the input (``SystemSpec``) and the
  output (``RunResult``) serialize, a run can be shipped to a child
  process, reconstructed there, executed, and the summary shipped back —
  which is exactly what :mod:`repro.sweep` does.

Determinism contract: everything in a :class:`RunResult` except
``wall_ns`` is a pure function of the spec. ``to_dict(deterministic=
True)`` drops ``wall_ns`` so two runs of the same spec — in different
processes, on different days — produce byte-identical serializations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.config import SystemSpec, unknown_field_error
from repro.sim.kernel import SECOND
from repro.telemetry.hdr import LogLinearHistogram
from repro.telemetry.profile import KernelProfiler
from repro.timing.latency import summarize

# The kernel profiler owns the tree's one sanctioned wall-clock source
# (repro.lint's no-wall-clock rule); the run window is timed with the
# same clock the profiler attributes handler time with.
_clock = KernelProfiler.clock


@dataclass
class ExecutedRun:
    """A just-finished run, live handles still attached."""

    spec: SystemSpec
    system: Any
    profiler: KernelProfiler | None
    wall_ns: int


def execute_spec(
    spec: SystemSpec,
    *,
    profile: bool = False,
    profiler: KernelProfiler | None = None,
) -> ExecutedRun:
    """Build ``spec``'s system, run it for ``spec.run_ns``, return the handles.

    ``wall_ns`` times the run window only — construction is excluded,
    so throughput is events per wall second of simulation. With
    ``profile=True`` the kernel profiler is attached before the run
    (the report CLI's mode); pass a preconfigured ``profiler`` instead
    to control its options (e.g. a timeline for the Chrome export).
    """
    from repro.core.api import build_system

    system = build_system(spec)
    if spec.faults or spec.lifecycle:
        # The chaos tier sits above core; the lazy import is the
        # sanctioned upward reference, paid only on faulted runs.
        from repro.chaos.inject import install_chaos

        install_chaos(system, spec)
    if profiler is not None:
        system.sim.attach_profiler(profiler)
    elif profile:
        profiler = system.sim.attach_profiler()
    begin = _clock()
    system.run(spec.run_ns)
    wall_ns = _clock() - begin
    return ExecutedRun(spec=spec, system=system, profiler=profiler, wall_ns=wall_ns)


def roundtrip_summary(system: Any) -> dict | None:
    """Round-trip stats as a plain dict, or ``None`` if there are none.

    Works on any system exposing ``roundtrip_samples()`` (the four colo
    designs, the WAN build, and the tick-to-trade pipeline).
    """
    if not hasattr(system, "roundtrip_samples"):
        return None
    samples = system.roundtrip_samples()
    if not samples:
        return None
    stats = summarize(samples)
    return {
        "count": stats.count,
        "mean_ns": stats.mean,
        "median_ns": stats.median,
        "p99_ns": stats.p99,
        "p999_ns": stats.p999,
        "min_ns": stats.minimum,
        "max_ns": stats.maximum,
    }


def _workload_summary(system: Any) -> dict:
    """Feed/order/fill totals readable off any testbed's handles."""
    totals: dict[str, int] = {}
    exchange = getattr(system, "exchange", None)
    exchanges = [exchange] if exchange is not None else list(
        getattr(system, "exchanges", ()) or ()
    )
    if exchanges:
        totals["feed_frames"] = sum(
            ex.publisher.stats.frames for ex in exchanges
        )
    gateway = getattr(system, "gateway", None)
    if gateway is not None:
        totals["orders_in"] = gateway.stats.orders_in
    strategies = getattr(system, "strategies", None)
    if strategies:
        fills = sum(
            s.stats.fills for s in strategies if hasattr(s, "stats")
        )
        totals["fills"] = fills
    arbitrage = getattr(system, "arbitrage", None)
    if arbitrage is not None:
        totals["fills"] = arbitrage.stats.fills
    return totals


@dataclass(frozen=True)
class RunResult:
    """One run's summary as plain data: what happened, not live handles.

    JSON-round-trips like :class:`SystemSpec` (``to_dict``/``from_dict``,
    ``to_json``/``from_json``/``from_file``), so results can cross
    process boundaries and be merged into comparative artifacts.
    ``wall_ns`` is the only nondeterministic field; deterministic views
    omit it (see :meth:`to_dict`).
    """

    spec: SystemSpec
    events_executed: int
    roundtrip: dict | None
    counters: dict
    gauge_high_watermarks: dict
    workload: dict
    # Serialized LogLinearHistogram dicts by instrument name; always
    # carries "roundtrip_ns" when round trips completed, plus every
    # telemetry histogram when telemetry was on. This is what lets
    # sweep compute true cross-cell percentiles by merging.
    histograms: dict = field(default_factory=dict)
    trace_count: int = 0
    notes: tuple[str, ...] = ()
    # Chaos facts (fault windows applied, lifecycle transitions and
    # recovery) — empty, and omitted from to_dict, on chaos-free runs so
    # their serializations are unchanged by the tier's existence.
    chaos: dict = field(default_factory=dict)
    wall_ns: int = 0

    @property
    def events_per_sim_sec(self) -> float:
        """Simulated events per *simulated* second — deterministic load."""
        return self.events_executed * SECOND / self.spec.run_ns

    @property
    def drop_counters(self) -> dict:
        """The telemetry counters that record dropped/lost work."""
        return {
            name: value
            for name, value in self.counters.items()
            if "drop" in name and value
        }

    @property
    def recovery_ns(self) -> int | None:
        """Time-to-READY after degradation: the chaos tier's headline.

        Total simulated time the firm stack spent DEGRADED before
        recovering; ``None`` when the run had no lifecycle machinery.
        """
        lifecycle = self.chaos.get("lifecycle")
        if lifecycle is None:
            return None
        return lifecycle.get("recovery_ns")

    @property
    def backlog_high_watermarks(self) -> dict:
        """The gauge high-watermarks that record backlog/queue depth."""
        return {
            name: value
            for name, value in self.gauge_high_watermarks.items()
            if value
        }

    def to_dict(self, *, deterministic: bool = False) -> dict:
        """Plain-data form; ``deterministic=True`` drops ``wall_ns``."""
        out = {
            "spec": self.spec.to_dict(),
            "events_executed": self.events_executed,
            "roundtrip": dict(self.roundtrip) if self.roundtrip else None,
            "counters": dict(sorted(self.counters.items())),
            "gauge_high_watermarks": dict(
                sorted(self.gauge_high_watermarks.items())
            ),
            "workload": dict(sorted(self.workload.items())),
            "histograms": {
                name: dict(data) for name, data in sorted(self.histograms.items())
            },
            "trace_count": self.trace_count,
            "notes": list(self.notes),
        }
        if self.chaos:
            out["chaos"] = dict(self.chaos)
        if not deterministic:
            out["wall_ns"] = self.wall_ns
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunResult":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise unknown_field_error(unknown, known, "RunResult")
        return cls(
            spec=SystemSpec.from_dict(raw["spec"]),
            events_executed=raw["events_executed"],
            roundtrip=raw.get("roundtrip"),
            counters=dict(raw.get("counters", {})),
            gauge_high_watermarks=dict(raw.get("gauge_high_watermarks", {})),
            workload=dict(raw.get("workload", {})),
            histograms=dict(raw.get("histograms", {})),
            trace_count=raw.get("trace_count", 0),
            notes=tuple(raw.get("notes", ())),
            chaos=dict(raw.get("chaos", {})),
            wall_ns=raw.get("wall_ns", 0),
        )

    def to_json(self, *, deterministic: bool = False) -> str:
        import json

        return json.dumps(
            self.to_dict(deterministic=deterministic), indent=2, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        import json

        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "RunResult":
        from pathlib import Path

        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def summarize_run(executed: ExecutedRun) -> RunResult:
    """Boil a live :class:`ExecutedRun` down to a :class:`RunResult`."""
    system = executed.system
    spec = executed.spec
    notes: list[str] = []

    roundtrip = roundtrip_summary(system)
    if roundtrip is None:
        if hasattr(system, "roundtrip_samples"):
            notes.append("no round trips completed; try a longer run_ns")
        else:
            notes.append(
                f"design {spec.design} does not expose round-trip samples"
            )

    counters: dict = {}
    gauges: dict = {}
    trace_count = 0
    histograms: dict = {}
    # The round-trip histogram is built from the raw samples, not from
    # telemetry, so sweep cells can merge true tail percentiles even
    # with telemetry off (the sweep default).
    if hasattr(system, "roundtrip_samples"):
        samples = system.roundtrip_samples()
        if samples:
            hist = LogLinearHistogram()
            hist.record_many(samples)
            histograms["roundtrip_ns"] = hist.to_dict()
    telemetry = system.sim.telemetry
    if telemetry is not None:
        metrics = telemetry.metrics.to_dict()
        counters = metrics["counters"]
        gauges = {
            name: values["high_watermark"]
            for name, values in metrics["gauges"].items()
        }
        trace_count = len(telemetry.traces)
        for name, hist in sorted(telemetry.metrics.histograms.items()):
            # Base-class serialization: the mergeable hdr form, without
            # the instrument summary fields.
            histograms[name] = LogLinearHistogram.to_dict(hist)

    controller = getattr(system.sim, "chaos", None)
    chaos = controller.summary() if controller is not None else {}

    return RunResult(
        spec=spec,
        events_executed=system.sim.events_executed,
        roundtrip=roundtrip,
        counters=counters,
        gauge_high_watermarks=gauges,
        workload=_workload_summary(system),
        histograms=histograms,
        trace_count=trace_count,
        notes=tuple(notes),
        chaos=chaos,
        wall_ns=executed.wall_ns,
    )


def run_spec(spec: SystemSpec | None = None, **overrides) -> RunResult:
    """Execute one run described by ``spec`` and return its summary.

    Mirrors :func:`~repro.core.api.build_system`'s calling convention:
    ``spec`` may be omitted and the run described entirely by keyword
    overrides, or overrides may be applied on top of a spec.
    """
    if spec is None:
        spec = SystemSpec(**overrides)
    elif overrides:
        spec = replace(spec, **overrides)
    return summarize_run(execute_spec(spec))
