"""The simulator benchmark: market events per wall second, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload leafspine-burst --seed 1 --seconds 20 --trace 0

Each workload (``workloads.py``) is one ``SystemSpec`` built from the
seed. The process runs batches of it back to back for ``--seconds``:
each batch builds a fresh system, runs 20 ms of simulated order flow
and checks its outputs (``harness.py``).

``--trace 0`` reports the end-to-end metrics, medians over the batches,
with no tracing installed. ``--trace 1`` alternates untraced and traced
batches; the traced ones wrap every layer boundary (``layers.py``) and
give the per-layer ledger, the untraced ones the base of
``trace.overhead_ratio``. Every batch of one run must produce the same
``sim_out.fingerprint``; a batch that does not, or that fails another
output check, counts as failed.

The last line of standard output is the result as one JSON object. The
lines above it are a table of every metric with its unit and sample
count, and the simulated outputs. The full report (provenance, samples,
simulated outputs) is written to ``perfbench/out/``, with the traced
run's spans as a Chrome Trace next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: name -> (unit, better). The end-to-end metrics, measured untraced.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "market_events_per_s": ("events/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: name -> (unit, better). The per-layer metrics, from a traced run.
PER_LAYER = {
    "sim.kernel_events": ("count", "lower"),
    "sim.kernel_events_per_s": ("events/s", "higher"),
    "sim.kernel_events_per_market_event": ("ratio", "lower"),
    "sim.self_ns_per_kernel_event": ("ns/event", "lower"),
    "sim.self_share": ("ratio", "lower"),
    "net.self_ns_per_market_event": ("ns/event", "lower"),
    "net.self_share": ("ratio", "lower"),
    "net.link_packets": ("count", "lower"),
    "net.switch_copies": ("count", "lower"),
    "net.drops": ("count", "lower"),
    "protocols.self_ns_per_market_event": ("ns/event", "lower"),
    "protocols.self_share": ("ratio", "lower"),
    "protocols.frames": ("count", "lower"),
    "protocols.messages_per_frame": ("ratio", "higher"),
    "protocols.decode_errors": ("count", "lower"),
    "exchange.self_ns_per_market_event": ("ns/event", "lower"),
    "exchange.self_share": ("ratio", "lower"),
    "exchange.orders_accepted": ("count", "higher"),
    "exchange.setup_s": ("s", "lower"),
    "firm.self_ns_per_market_event": ("ns/event", "lower"),
    "firm.self_share": ("ratio", "lower"),
    "firm.normalizer_messages_in": ("count", "higher"),
    "firm.strategy_updates_in": ("count", "higher"),
    "firm.seq_gaps": ("count", "lower"),
    "workload.self_ns_per_order": ("ns/order", "lower"),
    "workload.self_share": ("ratio", "lower"),
    "workload.orders": ("count", "higher"),
    "workload.setup_s": ("s", "lower"),
    "telemetry.self_ns_per_market_event": ("ns/event", "lower"),
    "telemetry.self_share": ("ratio", "lower"),
    "telemetry.calls": ("count", "lower"),
    "telemetry.traces": ("count", "higher"),
    "telemetry.traces_dropped": ("count", "lower"),
    "analysis.tail_report_s": ("s", "lower"),
    "core.setup_s": ("s", "lower"),
    "unattributed.self_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Fewest batches a run measures, however short ``--seconds`` is.
MIN_BATCHES = 3
MIN_PAIRS = 2


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- running -------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, traced: bool) -> list:
    """Batches until ``seconds`` have passed; untraced/traced pairs if traced."""
    from harness import clock, run_batch

    deadline = clock() + int(seconds * 1e9)
    batches = []
    while True:
        batches.append(run_batch(workload, seed))
        if traced:
            batches.append(run_batch(workload, seed, traced=True))
        enough = len(batches) >= (2 * MIN_PAIRS if traced else MIN_BATCHES)
        if enough and clock() >= deadline:
            return batches


def check_fingerprints(batches: list) -> None:
    """Every batch of one workload and seed must summarize identically."""
    reference = next((b.fingerprint for b in batches if b.fingerprint), None)
    for batch in batches:
        if batch.fingerprint and batch.fingerprint != reference:
            batch.problems.append(
                f"fingerprint {batch.fingerprint[:12]} != {reference[:12]}"
            )


# -- metrics -------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(batches: list) -> dict:
    """name -> (value, samples) over the batches that passed."""
    ok = [b for b in batches if not b.problems]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median([b.setup_ns / 1e9 for b in ok]), len(ok)),
        "wall_s": (median([b.wall_ns / 1e9 for b in ok]), len(ok)),
        "market_events_per_s": (
            median([b.counts["market_events"] / (b.wall_ns / 1e9) for b in ok]),
            len(ok),
        ),
        "peak_rss_mb": (rss_kib / 1024, 1),
    }


def per_layer(batches: list) -> dict:
    """name -> (value, samples), from the traced batches and their pairs."""
    ok_pairs = [
        (plain, traced)
        for plain, traced in zip(batches[0::2], batches[1::2])
        if not plain.problems and not traced.problems
    ]
    if not ok_pairs:
        return {name: (0.0, 0) for name in PER_LAYER}
    plain = [pair[0] for pair in ok_pairs]
    traced = [pair[1] for pair in ok_pairs]
    n = len(traced)
    counts = traced[0].counts
    run_self = {
        layer: sum(b.run_ledger.self_ns[layer] for b in traced)
        for layer in traced[0].run_ledger.self_ns
    }
    setup_self = {
        layer: sum(b.setup_ledger.self_ns[layer] for b in traced)
        for layer in traced[0].setup_ledger.self_ns
    }
    run_total = sum(run_self.values())
    market = counts["market_events"] * n
    kernel = counts["kernel_events"] * n
    plain_wall_s = median([b.wall_ns / 1e9 for b in plain])

    values = {
        "sim.kernel_events": counts["kernel_events"],
        "sim.kernel_events_per_s": counts["kernel_events"] / plain_wall_s,
        "sim.kernel_events_per_market_event": kernel / market,
        "sim.self_ns_per_kernel_event": run_self["sim"] / kernel,
        "net.link_packets": counts["link_packets"],
        "net.switch_copies": counts["switch_copies"],
        "net.drops": counts["drops"],
        "protocols.frames": counts["frames"],
        "protocols.messages_per_frame": counts["messages_per_frame"],
        "protocols.decode_errors": counts["decode_errors"],
        "exchange.orders_accepted": counts["orders_accepted"],
        "exchange.setup_s": setup_self["exchange"] / n / 1e9,
        "firm.normalizer_messages_in": counts["normalizer_messages_in"],
        "firm.strategy_updates_in": counts["strategy_updates_in"],
        "firm.seq_gaps": counts["seq_gaps"],
        "workload.self_ns_per_order": run_self["workload"] / (counts["orders"] * n),
        "workload.orders": counts["orders"],
        "workload.setup_s": setup_self["workload"] / n / 1e9,
        "telemetry.calls": counts["telemetry_calls"],
        "telemetry.traces": counts["traces"],
        "telemetry.traces_dropped": counts["traces_dropped"],
        "analysis.tail_report_s": run_self["analysis"] / n / 1e9,
        "core.setup_s": setup_self["core"] / n / 1e9,
        "trace.overhead_ratio": median([t.wall_ns / p.wall_ns for p, t in ok_pairs]),
    }
    for layer, self_ns in run_self.items():
        values[f"{layer}.self_share"] = self_ns / run_total
        values[f"{layer}.self_ns_per_market_event"] = self_ns / market
    return {name: (values[name], n) for name in PER_LAYER}


# -- reporting -----------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(workload, seed: int) -> dict:
    """Where the numbers came from. Environmental: never byte-compared."""
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "spec": workload.spec(seed).to_dict(),
    }


def render_table(metrics: dict, units: dict, failed: int, attempted: int) -> str:
    lines = [f"  {'metric':<38} {'value':>16}  {'unit':<9} samples"]
    for name, (value, samples) in metrics.items():
        lines.append(f"  {name:<38} {value:>16.6g}  {units[name][0]:<9} n={samples}")
    share = failed / attempted if attempted else 1.0
    lines.append(f"  {'failed_share':<38} {share:>16.6g}  {'ratio':<9} n={attempted}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from harness import warm_up
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    warm_up(workload, args.seed)
    batches = measure(workload, args.seed, args.seconds, traced)
    check_fingerprints(batches)

    failed = sum(1 for b in batches if b.problems)
    attempted = len(batches)
    units = PER_LAYER if traced else END_TO_END
    metrics = per_layer(batches) if traced else end_to_end(batches)
    sim_out = next((b.sim_out for b in batches if b.sim_out), {})

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    traced_batch = next((b for b in batches if b.chrome_trace), None)
    if traced_batch is not None:
        (OUT_DIR / f"{stem}.chrome.json").write_text(
            json.dumps(traced_batch.chrome_trace), encoding="utf-8"
        )
    report = {
        "workload": args.workload,
        "why": workload.why,
        "provenance": provenance(workload, args.seed),
        "sim_out": sim_out,
        "metrics": {
            name: {"value": value, "unit": units[name][0], "samples": samples}
            for name, (value, samples) in metrics.items()
        },
        "samples": {
            "setup_s": [b.setup_ns / 1e9 for b in batches],
            "wall_s": [b.wall_ns / 1e9 for b in batches],
            "traced": [b.traced for b in batches],
        },
        "problems": sorted({p for b in batches for p in b.problems}),
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    kind = "per-layer (traced)" if traced else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed}: {attempted} batches, "
          f"{failed} failed; {kind} metrics")
    print(render_table(metrics, units, failed, attempted))
    for name, value in sim_out.items():
        print(f"  sim_out.{name} = {value}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    print(f"  report: {(OUT_DIR / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, (value, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
