"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import main


def test_designs_command(capsys):
    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    assert "design1-leaf-spine" in out
    assert "50.0%" in out  # the paper's network share
    assert "design3-l1s" in out


def test_table1_command(capsys):
    assert main(["table1", "--frames", "4000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Exchange A" in out and "Exchange C" in out
    assert "1514" in out  # feed A's structural max
    assert "paper:" in out


def test_figure2_command(capsys):
    assert main(["figure2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "Fig 2(a)" in out and "Fig 2(b)" in out and "Fig 2(c)" in out
    assert "1,500,000" in out  # busiest second


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_run_command_retired_config_flag_is_a_hard_error(tmp_path, capsys):
    """The old ``--config`` spelling no longer aliases ``--spec``: it
    exits through the shared unknown-field path, naming the valid flags."""
    path = tmp_path / "spec.json"
    path.write_text("{}")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--config", str(path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "'config'" in err
    assert "'spec'" in err


def test_run_command_without_spec_file(capsys):
    assert main(["run", "--design", "design1", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "design1" in out and "fills" in out


def test_run_command_with_spec_file(tmp_path, capsys):
    """--spec is the uniform (and only) spec-file spelling."""
    from repro.core.config import SystemSpec

    spec = SystemSpec(design="design1", seed=5, run_ns=10_000_000,
                      n_symbols=6, n_strategies=2)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert main(["run", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "design1" in out and "round trip" in out


def test_run_command_accepts_aliases(capsys):
    assert main(["run", "--design", "leaf_spine", "--seed", "2"]) == 0
    assert "design1" in capsys.readouterr().out


def test_run_command_rejects_unknown_design(capsys):
    assert main(["run", "--design", "design9"]) == 2
    assert "unknown design" in capsys.readouterr().out


def test_trace_command_accepts_aliases(capsys):
    """trace resolves the same alias table report does (l1s, bare 3, ...)."""
    assert main(["trace", "--design", "l1s", "--ms", "15", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "design3 round-trip decomposition" in out


def test_trace_command_multivenue_has_no_exchange_roundtrips(capsys):
    """The two-venue testbed traces its hops but records no exchange-edge
    round trips; trace says so instead of failing."""
    assert main(["trace", "--design", "multivenue", "--ms", "10"]) == 0
    out = capsys.readouterr().out
    assert "multivenue round-trip decomposition" in out
    assert "measured round trip: none" in out
    assert "[OK]" in out


def test_trace_command_ticktotrade_names_its_untraced_round_trips(capsys):
    """The hardware tick-to-trade pipeline completes round trips that
    carry no trace; trace counts them instead of claiming none completed."""
    assert main(["trace", "--design", "ticktotrade", "--ms", "10"]) == 1
    out = capsys.readouterr().out
    assert "no round trips completed" not in out
    assert re.search(r"ticktotrade completed [1-9]\d* round trips but carries "
                     r"no trace contexts", out)
    assert "repro run --design ticktotrade" in out


def test_trace_command_rejects_unknown_design(capsys):
    assert main(["trace", "--design", "nope"]) == 2
    assert "unknown design" in capsys.readouterr().out


def test_trace_command_with_spec_file(tmp_path, capsys):
    from repro.core.config import SystemSpec

    spec = SystemSpec(design="3", seed=3, run_ns=15_000_000,
                      n_symbols=6, n_strategies=2)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert main(["trace", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "design3 round-trip decomposition" in out


def test_report_command_with_spec_file(tmp_path, capsys):
    from repro.core.config import SystemSpec

    spec = SystemSpec(design="design1", seed=7, run_ns=10_000_000,
                      n_symbols=6, n_strategies=2)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert main(["report", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "run report: design1" in out


def test_sweep_command_text_output(tmp_path, capsys):
    out_path = tmp_path / "artifact.json"
    assert main([
        "sweep", "--designs", "design1", "--seeds", "1", "--ms", "2",
        "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "sweep artifact: 1 cells" in out
    assert "design1/y0/b1/p-/s1" in out
    import json

    artifact = json.loads(out_path.read_text())
    assert artifact["n_cells"] == 1


def test_sweep_command_with_base_spec_file(tmp_path, capsys):
    from repro.core.config import SystemSpec

    base = SystemSpec(run_ns=2_000_000, n_symbols=6, n_strategies=2)
    path = tmp_path / "base.json"
    path.write_text(base.to_json())
    assert main([
        "sweep", "--spec", str(path), "--designs", "design3", "--seeds", "4",
        "--format", "json",
    ]) == 0
    import json

    artifact = json.loads(capsys.readouterr().out)
    assert artifact["matrix"]["base"]["n_symbols"] == 6
    assert artifact["cells"][0]["coords"]["design"] == "design3"
