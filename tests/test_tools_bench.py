"""The bench-regression gate: matching, thresholds, exit codes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", ROOT / "tools" / "check_bench_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _trajectory(path: Path, runs) -> Path:
    path.write_text(json.dumps({"version": 1, "runs": runs}), encoding="utf-8")
    return path


def _sweep_run(seconds_vector, seconds_scalar, fleet_size=80):
    return {
        "source": "fleet-sweep",
        "figures": {
            "fleet-sweep-vector": seconds_vector,
            "fleet-sweep-scalar": seconds_scalar,
        },
        "fleet_size": fleet_size,
        "horizon_seconds": 0.5,
        "registry_scale": 0.05,
    }


def _stream_run(seconds, spec="smoke", chunk_epochs=25):
    return {
        "source": "stream-replay",
        "figures": {"stream-replay": seconds},
        "spec": spec,
        "chunk_epochs": chunk_epochs,
    }


def test_clean_run_passes(tmp_path, capsys):
    baseline = _trajectory(
        tmp_path / "base.json", [_sweep_run(0.2, 0.4), _stream_run(0.1)]
    )
    fresh = _trajectory(
        tmp_path / "fresh.json", [_sweep_run(0.22, 0.41), _stream_run(0.12)]
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    out = capsys.readouterr().out
    assert "all 3 compared entries" in out


def test_regression_fails(tmp_path, capsys):
    baseline = _trajectory(tmp_path / "base.json", [_stream_run(0.1)])
    fresh = _trajectory(tmp_path / "fresh.json", [_stream_run(0.5)])
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_baseline_is_the_minimum_over_matches(tmp_path):
    # two baseline entries: the faster one anchors the gate
    baseline = _trajectory(
        tmp_path / "base.json", [_stream_run(0.3), _stream_run(0.1)]
    )
    fresh = _trajectory(tmp_path / "fresh.json", [_stream_run(0.2)])
    assert (
        gate.main(
            ["--baseline", str(baseline), "--fresh", str(fresh), "--factor", "1.5"]
        )
        == 1
    )


def test_signature_mismatch_is_skipped_not_failed(tmp_path, capsys):
    baseline = _trajectory(tmp_path / "base.json", [_stream_run(0.1, spec="smoke")])
    fresh = _trajectory(
        tmp_path / "fresh.json",
        [_stream_run(5.0, spec="chaos-smoke"), _sweep_run(1.0, 2.0)],
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    out = capsys.readouterr().out
    assert out.count("SKIP") == 3  # chaos-smoke stream + both sweep figures


def test_differing_grids_do_not_compare(tmp_path, capsys):
    baseline = _trajectory(
        tmp_path / "base.json", [_sweep_run(0.1, 0.2, fleet_size=80)]
    )
    fresh = _trajectory(
        tmp_path / "fresh.json", [_sweep_run(9.0, 9.0, fleet_size=800)]
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    assert "SKIP" in capsys.readouterr().out


def test_ungated_sources_are_ignored(tmp_path, capsys):
    runs = [{"source": "benchmarks", "figures": {"fig11": 10.0}}]
    baseline = _trajectory(tmp_path / "base.json", runs)
    fresh = _trajectory(
        tmp_path / "fresh.json",
        [{"source": "benchmarks", "figures": {"fig11": 99.0}}],
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_calibrate_entries_gate_on_mode_and_profile(tmp_path, capsys):
    cal = {
        "source": "calibrate",
        "figures": {"calibrate": 0.1},
        "mode": "once",
        "profile": "sg2042-like",
        "parameter": "contention.memory_queueing_coefficient",
    }
    baseline = _trajectory(tmp_path / "base.json", [cal])
    slow = dict(cal, figures={"calibrate": 0.5})
    fresh = _trajectory(tmp_path / "fresh.json", [slow])
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 1


def test_bad_factor_is_a_usage_error(tmp_path, capsys):
    baseline = _trajectory(tmp_path / "base.json", [])
    fresh = _trajectory(tmp_path / "fresh.json", [])
    assert (
        gate.main(
            ["--baseline", str(baseline), "--fresh", str(fresh), "--factor", "0.9"]
        )
        == 2
    )


def test_unreadable_trajectory_exits_loudly(tmp_path):
    fresh = _trajectory(tmp_path / "fresh.json", [])
    with pytest.raises(SystemExit, match="cannot read"):
        gate.main(
            ["--baseline", str(tmp_path / "missing.json"), "--fresh", str(fresh)]
        )


def test_committed_baseline_matches_the_ci_smoke_shape():
    """The committed anchor must cover every gated CI smoke entry."""
    document = json.loads((ROOT / "BENCH_baseline.json").read_text(encoding="utf-8"))
    signatures = set()
    for run in document["runs"]:
        for signature, _ in gate._signatures(run):
            signatures.add(signature)
    assert ("fleet-sweep", "fleet-sweep-vector", 80, 0.5, 0.05) in signatures
    assert ("fleet-sweep", "fleet-sweep-scalar", 80, 0.5, 0.05) in signatures
    assert ("stream-replay", "stream-replay", "smoke", 25) in signatures
    assert (
        "calibrate",
        "calibrate",
        "once",
        "sg2042-like",
        "contention.memory_queueing_coefficient",
    ) in signatures


# --------------------------------------------------------------------- #
# The exact work-count gate (tools/check_work_counts.py)
# --------------------------------------------------------------------- #
_counts_spec = importlib.util.spec_from_file_location(
    "check_work_counts", ROOT / "tools" / "check_work_counts.py"
)
counts_gate = importlib.util.module_from_spec(_counts_spec)
_counts_spec.loader.exec_module(counts_gate)


def _perfbench_output(path: Path, metrics) -> Path:
    """A perfbench report: report lines, then the one-line JSON result."""
    result = {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "count"} for name, value in metrics.items()},
    }
    path.write_text(
        "perfbench price-light: 1 cold traced run(s)\n  contention.calls 8012 count\n"
        + json.dumps(result)
        + "\n",
        encoding="utf-8",
    )
    return path


def _counts_file(path: Path) -> Path:
    path.write_text(
        json.dumps({"price-light": {"contention.calls": 8012, "batch.ratio": 1.8744}}),
        encoding="utf-8",
    )
    return path


def _check(tmp_path, metrics, workload="price-light"):
    return counts_gate.main(
        [
            "--workload",
            workload,
            "--result",
            str(_perfbench_output(tmp_path / "run.txt", metrics)),
            "--counts",
            str(_counts_file(tmp_path / "counts.json")),
        ]
    )


def test_work_counts_match_passes(tmp_path, capsys):
    metrics = {"contention.calls": 8012.0, "batch.ratio": 1.8744, "trace.run_s": 0.5}
    assert _check(tmp_path, metrics) == 0
    assert "all 2 match" in capsys.readouterr().out


def test_work_count_mismatch_fails(tmp_path, capsys):
    assert _check(tmp_path, {"contention.calls": 8013.0, "batch.ratio": 1.8744}) == 1
    assert "contention.calls: 8013.0, expected 8012" in capsys.readouterr().out


def test_missing_work_count_fails(tmp_path, capsys):
    assert _check(tmp_path, {"contention.calls": 8012.0}) == 1
    assert "batch.ratio: missing" in capsys.readouterr().out


def test_unknown_workload_is_a_usage_error(tmp_path, capsys):
    assert _check(tmp_path, {"contention.calls": 8012.0}, workload="fleet-sweep") == 2
    assert "no work counts" in capsys.readouterr().err


def test_committed_work_counts_cover_the_gated_workloads():
    counts = json.loads((ROOT / "tools" / "work_counts.json").read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(counts) == sorted(w["name"] for w in benchmark["workloads"])
    per_layer = {metric["name"] for metric in benchmark["per_layer"]}
    for expected in counts.values():
        assert set(expected) <= per_layer
