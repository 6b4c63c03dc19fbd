"""The pairs verdict of ``tools/bench_pairs.py``: nine tenths of pairs, beyond the IQR."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "rate", "better": "higher"}, {"name": "wall", "better": "lower"}]


def _verdicts(base, change):
    lines = bench_pairs.summarize(
        METRICS,
        [{"rate": r, "wall": w} for r, w in base],
        [{"rate": r, "wall": w} for r, w in change],
    )
    return {line.split()[0]: line.split()[-2:] for line in lines[1:]}


def test_clear_gain_is_claimable_in_either_direction():
    base = [(100 + i, 1.0 + i / 100) for i in range(10)]
    change = [(150 + i, 0.5 + i / 100) for i in range(10)]
    assert _verdicts(base, change) == {
        "rate": ["10/0/0", "yes"], "wall": ["10/0/0", "yes"],
    }


def test_eight_of_ten_or_a_gain_inside_the_spread_is_not():
    base = [(100 + 10 * i, 1.0) for i in range(10)]
    # Wins 8 pairs by a wide margin, loses 2: under nine tenths.
    change = [(300, 1.0)] * 8 + [(0, 1.0)] * 2
    assert _verdicts(base, change) == {
        "rate": ["8/2/0", "no"], "wall": ["0/0/10", "no"],
    }
    # Wins every pair, but by less than the base's interquartile range.
    change = [(r + 1, w) for r, w in base]
    assert _verdicts(base, change)["rate"] == ["10/0/0", "no"]
