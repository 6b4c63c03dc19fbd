"""Alternating parent/change pairs of the simulator benchmark.

Run from the repository root (``make bench-pairs`` wraps it)::

    PYTHONPATH=src python tools/bench_pairs.py --base HEAD~1 \\
        --workload options-chain leafspine-burst --pairs 10 --seconds 20

``--workload`` takes one or more names from ``BENCHMARK.json``, or
``all`` for every workload there. ``--base`` is checked out into a
temporary ``git worktree``. Each pair runs ``perfbench/run.py`` once in
that worktree and once in the working tree, each side on its own
``perfbench/`` and ``src/``; the side that goes first swaps every pair.
One summary table per workload gives, for every end-to-end metric in
``BENCHMARK.json``, each side's median and quartiles and the pairs the
change won, lost and tied. A gain is marked claimable when the change
won at least nine tenths of the pairs and its median beats the base
median by more than the base's interquartile range. A metric is marked
regressed when the change's median is worse than the base median by
more than the metric's relative ``bound``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.analysis.stats import describe

ROOT = Path(__file__).resolve().parents[1]


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``; metric name -> value."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench-pairs: perfbench failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"bench-pairs: {result['failed']} failed batches in {checkout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def regressed(metric: dict, base_median: float, change_median: float) -> bool:
    """The change's median is worse than the base's by more than ``bound``."""
    limit = base_median * metric["bound"]
    if metric["better"] == "higher":
        return change_median < base_median - limit
    return change_median > base_median + limit


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: quartiles, pair wins, claim and regression verdicts."""
    lines = [f"  {'metric':<20} {'base p25/p50/p75':>32} "
             f"{'change p25/p50/p75':>32}  won/lost/tied  claimable  regressed"]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        gains = [(y - x) if higher else (x - y) for x, y in zip(b, c)]
        won = sum(g > 0 for g in gains)
        lost = sum(g < 0 for g in gains)
        db, dc = describe(b), describe(c)
        gain = (dc.median - db.median) if higher else (db.median - dc.median)
        claimable = won >= 0.9 * len(gains) and gain > db.p75 - db.p25
        lines.append(
            f"  {name:<20} {db.p25:>10.4g} {db.median:>10.4g} {db.p75:>10.4g} "
            f"{dc.p25:>10.4g} {dc.median:>10.4g} {dc.p75:>10.4g}  "
            f"{won:>3}/{lost}/{len(gains) - won - lost:<6}  "
            f"{'yes' if claimable else 'no':<9}  "
            f"{'yes' if regressed(metric, db.median, dc.median) else 'no'}"
        )
    return lines


def resolve_workloads(names: list[str], benchmark: dict) -> list[str]:
    """``names`` checked against ``benchmark``'s workloads; ``all`` is every one."""
    known = [workload["name"] for workload in benchmark["workloads"]]
    if "all" in names:
        return known
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"bench-pairs: unknown workload(s) {unknown}; known: {known}")
    return list(dict.fromkeys(names))


def run_pairs(base: Path, workload: str, args, metrics: list[dict]) -> dict:
    """Alternate ``args.pairs`` runs of each side; side -> list of runs."""
    sides = {"base": (base, []), "change": (ROOT, [])}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            checkout, runs = sides[side]
            runs.append(run_side(checkout, workload, args.seed, args.seconds))
        print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first)", flush=True)
        for side in ("base", "change"):
            values = " ".join(f"{m['name']}={sides[side][1][-1][m['name']]:.6g}"
                              for m in metrics)
            print(f"  {side:<6} {values}", flush=True)
    return {side: runs for side, (_, runs) in sides.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="one or more BENCHMARK.json workloads, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    workloads = resolve_workloads(args.workload, benchmark)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        worktree = Path(tmp) / "base"
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), args.base],
            cwd=ROOT, check=False, capture_output=True, text=True,
        )
        if added.returncode != 0:
            raise SystemExit(f"bench-pairs: cannot check out {args.base}:\n{added.stderr}")
        try:
            results = {w: run_pairs(worktree, w, args, metrics) for w in workloads}
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                           cwd=ROOT, check=False, capture_output=True)
    for workload, sides in results.items():
        print(f"bench-pairs {workload} seed={args.seed}: base={args.base} vs "
              f"working tree, {args.pairs} pairs of {args.seconds:g} s")
        print("\n".join(summarize(metrics, sides["base"], sides["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
