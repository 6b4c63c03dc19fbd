"""Tests for the benchmark harness: span arithmetic, names, checks, determinism.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from harness import run_batch, tiny
from layers import LAYERS, all_boundaries
from tracer import ROOT_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHORT_RUN_NS = 2_000_000


class FakeClock:
    """A clock that moves only when told to, or by ``tick`` per read."""

    def __init__(self, tick: int = 0):
        self.now = 0
        self.tick = tick

    def __call__(self) -> int:
        self.now += self.tick
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def nested_calls(tracer: Tracer, clock: FakeClock):
    """outer (layer a) runs 10 ns, calls inner (layer b) for 5, runs 3 more."""

    def inner():
        clock.advance(5)

    inner = tracer.wrap(inner, "inner", "b")

    def outer():
        clock.advance(10)
        inner()
        clock.advance(3)

    return tracer.wrap(outer, "outer", "a")


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(("a", "b"), clock=clock)
    outer = nested_calls(tracer, clock)
    start = tracer.open_root()
    clock.advance(2)
    outer()
    outer()
    clock.advance(7)
    end = tracer.close_root()
    ledger = tracer.take()
    assert ledger.self_ns == {"a": 26, "b": 10, ROOT_LAYER: 9}
    assert ledger.spans == {"a": 2, "b": 2, ROOT_LAYER: 1}
    assert ledger.total_ns() == end - start
    assert tracer.problems == []


def test_tracer_bookkeeping_is_charged_to_the_root_and_still_tiles():
    clock = FakeClock(tick=1)
    tracer = Tracer(("a", "b"), clock=clock)
    outer = nested_calls(tracer, clock)
    start = tracer.open_root()
    outer()
    end = tracer.close_root()
    ledger = tracer.take()
    tracer.check_tiling([ledger], end - start)
    assert tracer.problems == []
    # Of the eight clock reads the two spans make, at most the two that
    # fall inside a span's body are charged to a layer; the rest are the
    # tracer's and land in the root.
    assert 5 <= ledger.self_ns["b"] <= 5 + 1
    assert 13 <= ledger.self_ns["a"] <= 13 + 2
    assert ledger.self_ns[ROOT_LAYER] >= 4


def test_ledgers_taken_mid_window_add_up_to_the_window():
    clock = FakeClock(tick=1)
    tracer = Tracer(("a", "b"), clock=clock)
    outer = nested_calls(tracer, clock)
    start = tracer.open_root()
    outer()
    first = tracer.take()
    outer()
    end = tracer.close_root()
    second = tracer.take()
    tracer.check_tiling([first, second], end - start)
    assert tracer.problems == []
    tracer.check_tiling([first, second], end - start + 1)
    assert tracer.problems and "window is" in tracer.problems[0]


def test_recursion_into_a_wrapped_function_fails_the_check():
    tracer = Tracer(("a",))

    def countdown(n):
        if n:
            wrapped(n - 1)

    wrapped = tracer.wrap(countdown, "countdown", "a")
    tracer.open_root()
    wrapped(3)
    tracer.close_root()
    assert tracer.problems == ["countdown re-entered itself"]


def test_span_open_at_window_end_fails_the_check():
    tracer = Tracer(("a",))
    wrapped = tracer.wrap(lambda: tracer.close_root(), "closes-early", "a")
    tracer.open_root()
    wrapped()
    assert tracer.problems == ["1 span(s) still open at window end"]


def test_wrappers_are_removed_after_the_block():
    from repro.sim.kernel import Simulator
    from repro.workload import symbols

    run_before, make_universe_before = Simulator.run, symbols.make_universe
    tracer = Tracer(LAYERS)
    tracer.install(all_boundaries())
    with tracer:
        assert Simulator.run is not run_before
        assert symbols.make_universe is not make_universe_before
    assert Simulator.run is run_before
    assert symbols.make_universe is make_universe_before


def test_metric_and_workload_names_are_valid():
    names = list(bench.END_TO_END) + list(bench.PER_LAYER) + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit, better in list(bench.END_TO_END.values()) + list(
        bench.PER_LAYER.values()
    ):
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")
    for workload in WORKLOADS.values():
        assert "\n" not in workload.why and len(workload.why) <= 200


def test_benchmark_json_lists_what_the_runner_reports():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json next to this checkout")
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (
        ("end_to_end", bench.END_TO_END),
        ("per_layer", bench.PER_LAYER),
    ):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    assert max(m["bound"] for m in metrics.values()) == metrics["setup_s"]["bound"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_batch_passes_every_check(name):
    batch = run_batch(tiny(WORKLOADS[name]), 1, traced=True, run_ns=SHORT_RUN_NS)
    assert batch.problems == []
    telemetry_on = WORKLOADS[name].spec_fields.get("telemetry", False)
    assert (batch.counts["telemetry_calls"] > 0) == telemetry_on
    assert batch.run_ledger.self_ns["sim"] > 0
    assert (batch.run_ledger.self_ns["analysis"] > 0) == WORKLOADS[name].tail_report


def test_telemetry_is_never_called_on_a_telemetry_off_spec():
    batch = run_batch(
        tiny(WORKLOADS["leafspine-burst"]), 3, traced=True, run_ns=SHORT_RUN_NS
    )
    assert batch.counts["telemetry_calls"] == 0
    assert batch.run_ledger.self_ns["telemetry"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_kernel_callback_is_a_layer_boundary(name, monkeypatch):
    """Unwrapped callbacks would be charged to ``sim`` without notice."""
    from repro.sim import kernel

    unwrapped = set()

    def hook(_when, callback):
        function = getattr(callback, "__func__", callback)
        if not hasattr(function, "__perfbench_layer__"):
            unwrapped.add(getattr(function, "__qualname__", repr(function)))

    original_init = kernel.Simulator.__init__

    def init_with_hook(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.add_trace_hook(hook)

    monkeypatch.setattr(kernel.Simulator, "__init__", init_with_hook)
    batch = run_batch(tiny(WORKLOADS[name]), 1, traced=True, run_ns=SHORT_RUN_NS)
    assert batch.problems == []
    assert unwrapped == set()


def test_tracing_does_not_change_the_outputs():
    workload = tiny(WORKLOADS["leafspine-observed"])
    plain = run_batch(workload, 5, run_ns=SHORT_RUN_NS)
    traced = run_batch(workload, 5, traced=True, run_ns=SHORT_RUN_NS)
    assert plain.fingerprint == traced.fingerprint
    assert plain.counts == {k: v for k, v in traced.counts.items()
                            if k != "telemetry_calls"}


FINGERPRINT_SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from harness import run_batch, tiny
from workloads import WORKLOADS
print(run_batch(tiny(WORKLOADS["leafspine-burst"]), 7, run_ns={run_ns}).fingerprint)
"""


def test_fingerprint_is_stable_across_fresh_processes():
    script = FINGERPRINT_SCRIPT.format(
        perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"), run_ns=SHORT_RUN_NS
    )
    prints = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.strip()
        for _ in range(2)
    ]
    assert re.fullmatch(r"[0-9a-f]{64}", prints[0])
    assert prints[0] == prints[1]


def test_a_differing_fingerprint_fails_the_batch():
    workload = tiny(WORKLOADS["leafspine-burst"])
    batches = [run_batch(workload, 1, run_ns=SHORT_RUN_NS) for _ in range(2)]
    batches.append(run_batch(workload, 2, run_ns=SHORT_RUN_NS))
    bench.check_fingerprints(batches)
    assert [bool(b.problems) for b in batches] == [False, False, True]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text(encoding="utf-8"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leafspine-burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
