"""``python -m repro report``: the unified flight-recorder report.

This file is the acceptance gate for the observability PR: the JSON
report's per-window event counts must sum exactly to the corresponding
counters, the §4.3 merge companion must carry a backlog gauge
high-watermark, and the profiler section must state telemetry's own
wall-clock overhead.
"""

import json

import pytest

from repro.__main__ import main
from repro.core.config import AUX_DESIGNS


@pytest.fixture(scope="module")
def report_json():
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([
            "report", "--design", "leaf_spine", "--seed", "7", "--ms", "10",
            "--format", "json",
        ])
    assert code == 0
    return json.loads(buffer.getvalue())


def test_design_alias_resolves(report_json):
    assert report_json["spec"]["design"] == "design1"


def test_window_counts_sum_to_counters(report_json):
    """Every count series' windows sum exactly to its counter."""
    assert report_json["sum_check"]["ok"] is True
    assert report_json["sum_check"]["checked"] > 0
    assert report_json["sum_check"]["mismatches"] == []
    counters = report_json["metrics"]["counters"]
    checked = 0
    for name, series in report_json["series"]["series"].items():
        if series["kind"] != "count":
            continue
        window_sum = sum(w["value"] for w in series["windows"])
        assert window_sum == series["total"] == counters[name], name
        checked += 1
    assert checked == report_json["sum_check"]["checked"]


def test_merge_backlog_high_watermark_present(report_json):
    """The §4.3 companion run reports the merge-backlog gauge's peak."""
    hw = report_json["merge"]["backlog_high_watermark_bytes"]
    assert isinstance(hw, int) and hw > 0
    assert report_json["merge"]["n_feeds"] == 12


def test_profiler_reports_telemetry_self_overhead(report_json):
    profile = report_json["profile"]
    assert profile["total_events"] == report_json["events_executed"]
    assert profile["telemetry_events"] > 0
    assert profile["telemetry_wall_ns"] > 0
    assert 0 < profile["telemetry_share"] < 1
    assert profile["handlers"], "no handler rows attributed"


def test_queue_gauges_and_busiest_windows(report_json):
    gauges = report_json["metrics"]["gauges"]
    assert any(name.endswith(".queue_bytes") for name in gauges)
    assert all("high_watermark" in g for g in gauges.values())
    busiest = report_json["busiest_windows"]
    assert busiest, "no busiest-window callouts"
    # Sorted by events, and each callout's peak is within its total.
    events = [row["events"] for row in busiest]
    assert events == sorted(events, reverse=True)
    for row in busiest:
        assert 0 < row["events"] <= row["total"]


def test_text_report_renders_all_sections(capsys):
    code = main([
        "report", "--design", "1", "--seed", "7", "--ms", "10",
    ])
    out = capsys.readouterr().out
    assert code == 0
    for needle in (
        "run report: design1",
        "hop decomposition",
        "busiest windows",
        "queue high-watermarks:",
        "merge bottleneck",
        "telemetry self-overhead",
        "window-sum check",
        "[OK]",
    ):
        assert needle in out, f"missing {needle!r}"


@pytest.mark.parametrize("design", AUX_DESIGNS)
def test_aux_design_report_renders(design, capsys):
    """The auxiliary testbeds honour spec.telemetry, so the report has a
    telemetry session to read."""
    assert main(["report", "--design", design, "--ms", "3"]) == 0
    assert f"run report: {design}" in capsys.readouterr().out


def test_series_jsonl_export(tmp_path, capsys):
    path = tmp_path / "series.jsonl"
    code = main([
        "report", "--design", "leaf_spine", "--seed", "7", "--ms", "10",
        "--format", "json", "--series-jsonl", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines, "no series exported"
    for record in lines:
        assert {"name", "kind", "window_ns", "total", "windows"} <= set(record)


def test_unknown_design_is_usage_error(capsys):
    assert main(["report", "--design", "nope"]) == 2
    assert "unknown design" in capsys.readouterr().out
