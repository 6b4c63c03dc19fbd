"""Tests for config-driven system construction."""

import pytest

from repro.core.config import DESIGNS, SystemSpec
from repro.core.testbed import TradingSystem


def test_defaults_are_valid():
    spec = SystemSpec()
    assert spec.design in DESIGNS
    assert spec.run_ns > 0


def test_json_round_trip():
    spec = SystemSpec(design="design3", seed=9, n_strategies=5, run_ns=25_000_000)
    restored = SystemSpec.from_json(spec.to_json())
    assert restored == spec


def test_file_round_trip(tmp_path):
    spec = SystemSpec(seed=4, flow_rate_per_s=12_345.0)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert SystemSpec.from_file(path) == spec


def test_unknown_fields_rejected():
    with pytest.raises(ValueError):
        SystemSpec.from_dict({"design": "design1", "warp_factor": 9})


def test_unknown_field_error_suggests_closest_field():
    """A typo'd key names itself and the closest valid field (difflib)."""
    with pytest.raises(ValueError) as excinfo:
        SystemSpec.from_dict({"design": "design1", "seeed": 2})
    message = str(excinfo.value)
    assert "'seeed'" in message
    assert "did you mean 'seed'?" in message
    assert "valid fields" in message


def test_unknown_field_error_without_close_match_lists_valid_fields():
    with pytest.raises(ValueError) as excinfo:
        SystemSpec.from_dict({"zzz_bogus_zzz": 1})
    message = str(excinfo.value)
    assert "did you mean" not in message
    assert "'zzz_bogus_zzz'" in message
    assert "design" in message


def test_retired_run_ms_field_is_a_hard_error():
    """The pre-1.1 millisecond field no longer converts: it fails through
    the same unknown-field path as any typo, with a did-you-mean hint."""
    with pytest.raises(ValueError) as excinfo:
        SystemSpec.from_dict({"design": "design1", "run_ms": 10})
    message = str(excinfo.value)
    assert "run_ms" in message
    assert "did you mean 'run_ns'" in message


def test_validation():
    with pytest.raises(ValueError):
        SystemSpec(design="design9")
    with pytest.raises(ValueError):
        SystemSpec(n_strategies=0)
    with pytest.raises(ValueError):
        SystemSpec(run_ns=0)
    with pytest.raises(ValueError):
        SystemSpec(function_latency_ns=-1)


def test_build_and_run_both_designs():
    for design in DESIGNS:
        spec = SystemSpec(design=design, seed=2, run_ns=15_000_000,
                          n_symbols=6, n_strategies=2)
        system = spec.build_and_run()
        assert isinstance(system, TradingSystem)
        assert system.flow.stats.total > 0
        assert len(system.roundtrip_samples()) > 0


def test_same_spec_same_results():
    spec = SystemSpec(seed=11, run_ns=15_000_000, n_symbols=6, n_strategies=2)
    a = spec.build_and_run()
    b = spec.build_and_run()
    assert a.roundtrip_samples() == b.roundtrip_samples()


def test_design4_buildable_from_spec():
    spec = SystemSpec(design="design4", seed=2, run_ns=15_000_000,
                      n_symbols=6, n_strategies=2)
    system = spec.build_and_run()
    assert len(system.roundtrip_samples()) > 0
