"""Tests for the one-way-to-run API: execute_spec / run_spec / RunResult."""

import json

import pytest

from repro.core.config import ALL_DESIGNS, AUX_DESIGNS, SystemSpec
from repro.core.run import (
    ExecutedRun,
    RunResult,
    execute_spec,
    run_spec,
    summarize_run,
)

# Small-but-nonempty windows so every design completes quickly.
RUN_NS = 5_000_000


def small_spec(design: str, **overrides) -> SystemSpec:
    defaults = dict(
        design=design, seed=3, run_ns=RUN_NS, n_symbols=6, n_strategies=2,
        telemetry=True,
    )
    defaults.update(overrides)
    return SystemSpec(**defaults)


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_runresult_json_round_trip_all_designs(design):
    """RunResult (like SystemSpec) survives to_json/from_json for every
    one of the seven designs — the property the sweep's process
    boundary depends on."""
    result = run_spec(small_spec(design))
    restored = RunResult.from_json(result.to_json())
    assert restored == result
    assert restored.spec == result.spec
    assert restored.spec.design == design


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_systemspec_json_round_trip_all_designs(design):
    spec = small_spec(design)
    assert SystemSpec.from_json(spec.to_json()) == spec


def test_run_spec_executes_and_summarizes():
    result = run_spec(small_spec("design1"))
    assert result.events_executed > 0
    assert result.roundtrip is not None
    assert result.roundtrip["count"] > 0
    assert result.roundtrip["median_ns"] <= result.roundtrip["p99_ns"]
    assert result.workload["feed_frames"] > 0
    assert result.workload["orders_in"] > 0
    assert result.trace_count > 0
    assert result.counters  # telemetry was on
    assert result.wall_ns > 0


def test_run_spec_accepts_overrides_like_build_system():
    result = run_spec(design="design3", seed=2, run_ns=RUN_NS, n_symbols=6,
                      n_strategies=2)
    assert result.spec.design == "design3"
    assert result.spec.seed == 2
    # telemetry off -> no counters, but the run still summarizes
    assert result.counters == {}
    assert result.events_executed > 0


def test_run_spec_is_deterministic_modulo_wall_ns():
    spec = small_spec("design1")
    first = run_spec(spec)
    second = run_spec(spec)
    assert first.to_dict(deterministic=True) == second.to_dict(
        deterministic=True
    )
    assert "wall_ns" not in first.to_dict(deterministic=True)
    assert "wall_ns" in first.to_dict()


def test_deterministic_dict_round_trips_with_zero_wall():
    result = run_spec(small_spec("design3"))
    restored = RunResult.from_dict(result.to_dict(deterministic=True))
    assert restored.wall_ns == 0
    assert restored.events_executed == result.events_executed


def test_runresult_rejects_unknown_fields_with_suggestion():
    result = run_spec(small_spec("design1"))
    raw = result.to_dict()
    raw["events_executd"] = 1
    with pytest.raises(ValueError, match="events_executed"):
        RunResult.from_dict(raw)


def test_execute_spec_returns_live_handles():
    executed = execute_spec(small_spec("design1"))
    assert isinstance(executed, ExecutedRun)
    assert executed.system.sim.events_executed > 0
    assert executed.profiler is None
    assert executed.wall_ns > 0
    # summarize_run distills the same run into plain data
    result = summarize_run(executed)
    assert result.events_executed == executed.system.sim.events_executed


def test_execute_spec_profile_attaches_profiler():
    executed = execute_spec(small_spec("design1"), profile=True)
    assert executed.profiler is not None
    report = executed.profiler.report()
    assert report.total_events > 0


def test_events_per_sim_sec_is_pure_function_of_counts():
    result = run_spec(small_spec("design1"))
    expected = result.events_executed * 1_000_000_000 / RUN_NS
    assert result.events_per_sim_sec == pytest.approx(expected)


def test_multivenue_summarizes_without_roundtrips():
    result = run_spec(small_spec("multivenue", n_symbols=8))
    assert result.roundtrip is None
    assert any("round-trip" in note for note in result.notes)
    assert result.events_executed > 0


@pytest.mark.parametrize("design", AUX_DESIGNS)
def test_aux_designs_honour_telemetry(design):
    result = run_spec(small_spec(design, telemetry=True))
    assert result.counters


def test_runresult_json_is_plain_data():
    """The serialized form is pure JSON scalars/containers (no handles)."""
    result = run_spec(small_spec("design1"))
    payload = json.loads(result.to_json(deterministic=True))
    assert isinstance(payload["counters"], dict)
    assert isinstance(payload["spec"], dict)
    assert payload["spec"]["design"] == "design1"
