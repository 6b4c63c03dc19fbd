"""The verdicts of ``tools/bench_pairs.py``: claimable gains, regressions, workloads."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "wall", "better": "lower", "bound": 0.25},
]


def _verdicts(base, change):
    """metric -> [won/lost/tied, claimable, regressed]."""
    lines = bench_pairs.summarize(
        METRICS,
        [{"rate": r, "wall": w} for r, w in base],
        [{"rate": r, "wall": w} for r, w in change],
    )
    assert lines[0].split()[-3:] == ["won/lost/tied", "claimable", "regressed"]
    return {line.split()[0]: line.split()[-3:] for line in lines[1:]}


def test_clear_gain_is_claimable_in_either_direction():
    base = [(100 + i, 1.0 + i / 100) for i in range(10)]
    change = [(150 + i, 0.5 + i / 100) for i in range(10)]
    assert _verdicts(base, change) == {
        "rate": ["10/0/0", "yes", "no"], "wall": ["10/0/0", "yes", "no"],
    }


def test_eight_of_ten_or_a_gain_inside_the_spread_is_not():
    base = [(100 + 10 * i, 1.0) for i in range(10)]
    # Wins 8 pairs by a wide margin, loses 2: under nine tenths.
    change = [(300, 1.0)] * 8 + [(0, 1.0)] * 2
    assert _verdicts(base, change) == {
        "rate": ["8/2/0", "no", "no"], "wall": ["0/0/10", "no", "no"],
    }
    # Wins every pair, but by less than the base's interquartile range.
    change = [(r + 1, w) for r, w in base]
    assert _verdicts(base, change)["rate"] == ["10/0/0", "no", "no"]


def test_regressed_only_past_the_bound_in_either_direction():
    base = [(100.0, 1.0)] * 10
    # 20% worse on both: lost every pair, but inside the 0.25 bound.
    assert _verdicts(base, [(80.0, 1.2)] * 10) == {
        "rate": ["0/10/0", "no", "no"], "wall": ["0/10/0", "no", "no"],
    }
    # 30% worse on both: past the bound.
    assert _verdicts(base, [(70.0, 1.3)] * 10) == {
        "rate": ["0/10/0", "no", "yes"], "wall": ["0/10/0", "no", "yes"],
    }


def test_regressed_reads_each_metric_s_own_bound():
    tight = {"name": "rss", "better": "lower", "bound": 0.05}
    assert bench_pairs.regressed(tight, 100.0, 106.0)
    assert not bench_pairs.regressed(tight, 100.0, 104.0)
    assert not bench_pairs.regressed(tight, 100.0, 50.0)


def test_workloads_resolve_against_benchmark_json():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    every = [w["name"] for w in benchmark["workloads"]]
    assert bench_pairs.resolve_workloads(["all"], benchmark) == every
    picked = [every[-1], every[0], every[-1]]
    assert bench_pairs.resolve_workloads(picked, benchmark) == [every[-1], every[0]]
    with pytest.raises(SystemExit, match="no-such-workload"):
        bench_pairs.resolve_workloads(["no-such-workload"], benchmark)
