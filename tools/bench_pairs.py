"""Alternating parent/change pairs of the simulator benchmark.

Run from the repository root (``make bench-pairs`` wraps it)::

    PYTHONPATH=src python tools/bench_pairs.py --base HEAD~1 \\
        --workload options-chain --pairs 10 --seconds 20

``--base`` is checked out into a temporary ``git worktree``. Each pair
runs ``perfbench/run.py`` once in that worktree and once in the working
tree, each side on its own ``perfbench/`` and ``src/``; the side that
goes first swaps every pair. The summary gives, for every end-to-end
metric in ``BENCHMARK.json``, each side's median and quartiles and the
pairs the change won, lost and tied. A gain is marked claimable when
the change won at least nine tenths of the pairs and its median beats
the base median by more than the base's interquartile range.
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


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: both sides' quartiles, pair wins, claim verdict."""
    lines = [f"  {'metric':<20} {'base p25/p50/p75':>32} "
             f"{'change p25/p50/p75':>32}  won/lost/tied  claimable"]
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
            f"{won:>3}/{lost}/{len(gains) - won - lost:<6}  {'yes' if claimable else 'no'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        worktree = Path(tmp) / "base"
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), args.base],
            cwd=ROOT, check=False, capture_output=True, text=True,
        )
        if added.returncode != 0:
            raise SystemExit(f"bench-pairs: cannot check out {args.base}:\n{added.stderr}")
        try:
            sides = {"base": (worktree, []), "change": (ROOT, [])}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    checkout, runs = sides[side]
                    runs.append(run_side(checkout, args.workload, args.seed, args.seconds))
                print(f"pair {i + 1}/{args.pairs} ({order[0]} first)", flush=True)
                for side in ("base", "change"):
                    values = " ".join(f"{m['name']}={sides[side][1][-1][m['name']]:.6g}"
                                      for m in metrics)
                    print(f"  {side:<6} {values}", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                           cwd=ROOT, check=False, capture_output=True)
    print(f"bench-pairs {args.workload} seed={args.seed}: base={args.base} vs "
          f"working tree, {args.pairs} pairs of {args.seconds:g} s")
    print("\n".join(summarize(metrics, sides["base"][1], sides["change"][1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
