"""Command-line arguments are checked when they are parsed: a bad value
ends the command with exit 2 and one stderr line naming the flag."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def _refused(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    return captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--horizon", "inf"], "--horizon"),
        (["sweep", "--horizon", "nan"], "--horizon"),
        (["sweep", "--epoch-seconds", "nan"], "--epoch-seconds"),
        (["sweep", "--registry-scale", "nan"], "--registry-scale"),
        (["sweep", "--registry-scale=-inf"], "--registry-scale"),
        (["calibrate", "--once", "--min", "nan"], "--min"),
        (["calibrate", "--once", "--max", "inf"], "--max"),
        (["calibrate", "--once", "--perturb-scale", "nan"], "--perturb-scale"),
        (["calibrate", "--once", "--threshold", "nan"], "--threshold"),
        (["calibrate", "--watch", "--drift-at", "nan", "--drift-scale", "1.2"], "--drift-at"),
        (["calibrate", "--watch", "--drift-at", "0.02", "--drift-scale", "inf"], "--drift-scale"),
        (["calibrate", "--once", "--threshold", "tiny"], "--threshold"),
        (["obs", "tail", "metrics.jsonl", "--max-seconds", "nan"], "--max-seconds"),
    ],
)
def test_float_flags_refuse_non_finite_values(argv, flag, capsys):
    assert f"argument {flag}:" in _refused(argv, capsys)


@pytest.mark.parametrize("command", ["sweep", "stream"])
@pytest.mark.parametrize("budget", ["1", "-3", "two"])
def test_series_budget_is_zero_or_at_least_two(command, budget, capsys):
    argv = [command, "--spec", "smoke", "--metrics", "--series-budget", budget]
    assert "argument --series-budget:" in _refused(argv, capsys)


@pytest.mark.parametrize("command", ["sweep", "stream"])
@pytest.mark.parametrize("budget", [0, 2, 512])
def test_series_budget_accepts_off_and_real_budgets(command, budget):
    argv = [command, "--spec", "smoke", "--series-budget", str(budget)]
    args = build_parser().parse_args(argv)
    assert args.series_budget == budget


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--figures", "all", "--jobs", "0"], "--jobs/-j"),
        (["sweep", "--spec", "smoke", "--shards", "0"], "--shards"),
        (["stream", "--spec", "smoke", "--chunk-epochs", "0"], "--chunk-epochs"),
        (["stream", "--spec", "smoke", "--checkpoint-every", "0"], "--checkpoint-every"),
        (["stream", "--spec", "smoke", "--max-chunks", "-1"], "--max-chunks"),
        (["calibrate", "--once", "--workers", "0"], "--workers"),
        (["calibrate", "--watch", "--rounds", "0"], "--rounds"),
        (["calibrate", "--once", "--points", "1"], "--points"),
        (["calibrate", "--once", "--window", "0"], "--window"),
        (["calibrate", "--watch", "--epochs-per-round", "0"], "--epochs-per-round"),
        (["obs", "summarize", "metrics.jsonl", "--top", "-2"], "--top"),
        (["sweep", "--cores", "0"], "--cores"),
    ],
)
def test_integer_flags_are_checked_when_parsed(argv, flag, capsys):
    assert f"argument {flag}:" in _refused(argv, capsys)


def test_stream_has_no_queue_depth(capsys):
    assert "--queue-depth" in _refused(["stream", "--spec", "smoke", "--queue-depth", "4"], capsys)


@pytest.mark.parametrize("selection", [" , ", ""])
def test_run_figures_refuses_an_empty_selection(selection, tmp_path, capsys):
    """A selection naming no figure would regenerate nothing and pass ``--check``."""
    bench = tmp_path / "bench.json"
    argv = [
        "run", "--figures", selection, "--check",
        "--results-dir", str(tmp_path), "--bench-json", str(bench),
    ]
    assert "argument --figures:" in _refused(argv, capsys)
    assert not bench.exists()
