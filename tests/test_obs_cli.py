"""End-to-end obs tooling: one run → one JSONL → summarize/tail/export.

Also pins the two non-negotiables of the observability layer: telemetry
is bit-exact-neutral (tracing on vs off changes no simulated number) and
self-accounted overhead stays under the 5% budget.
"""

from __future__ import annotations

import json
import queue

import pytest

from repro.cli import main

TINY_SWEEP = [
    "sweep",
    "--machines",
    "1",
    "--colocation",
    "2",
    "--horizon",
    "0.05",
    "--registry-scale",
    "0.05",
    "--no-bench",
]


@pytest.fixture(scope="module")
def sweep_jsonl(tmp_path_factory):
    """One tiny instrumented sweep, shared by the read-side tests."""
    path = tmp_path_factory.mktemp("obs") / "sweep.jsonl"
    code = main(TINY_SWEEP + ["--metrics-out", str(path), "--series-budget", "64"])
    assert code == 0
    assert path.exists()
    return path


class TestObsSummarize:
    def test_human_summary(self, sweep_jsonl, capsys):
        code = main(["obs", "summarize", str(sweep_jsonl)])
        out = capsys.readouterr().out
        assert code == 0
        assert "records" in out
        assert "sweep" in out  # root phase appears in the breakdown
        assert "observability overhead" in out

    def test_json_summary(self, sweep_jsonl, capsys):
        code = main(["obs", "summarize", str(sweep_jsonl), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"] >= 2  # root + inline shard span
        assert summary["series"]["points"] >= 1
        assert len(summary["trace_ids"]) == 1
        assert {"sweep", "shard"} <= set(summary["phases"])
        assert summary["epochs"] >= 1
        assert 0.0 <= summary["obs_overhead_fraction"] < 0.05

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["obs", "summarize", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_top_spans_ranked_by_duration(self, sweep_jsonl, capsys):
        code = main(["obs", "summarize", str(sweep_jsonl), "--json", "--top", "3"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        top = summary["top_spans"]
        assert 1 <= len(top) <= 3
        durations = [span["duration_seconds"] for span in top]
        assert durations == sorted(durations, reverse=True)


class TestObsTail:
    def test_no_follow_renders_every_kind(self, sweep_jsonl, capsys):
        code = main(["obs", "tail", "--no-follow", str(sweep_jsonl)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(sweep_jsonl.read_text().splitlines())
        assert any("[span]" in line for line in lines)
        assert any("[series]" in line for line in lines)
        assert any("[metrics]" in line for line in lines)  # snapshots


class TestObsExportTrace:
    def test_chrome_trace_export(self, sweep_jsonl, capsys):
        out_path = sweep_jsonl.parent / "sweep.trace.json"
        code = main(
            ["obs", "export-trace", str(sweep_jsonl), "--out", str(out_path)]
        )
        assert code == 0
        assert "perfetto" in capsys.readouterr().out
        trace = json.loads(out_path.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        counters = [e for e in events if e.get("ph") == "C"]
        assert spans and counters
        assert {"sweep"} <= {e["name"] for e in spans}
        # Spans are rebased onto the earliest start so they share a
        # timeline with the run-relative series counters.
        assert min(e["ts"] for e in spans) == 0.0
        assert all(e["dur"] >= 0 for e in spans)

    def test_default_output_path(self, tmp_path):
        src = tmp_path / "run.jsonl"
        code = main(TINY_SWEEP + ["--metrics-out", str(src)])
        assert code == 0
        assert main(["obs", "export-trace", str(src)]) == 0
        assert (tmp_path / "run.trace.json").exists()


class TestBitExactness:
    """Telemetry must be read-only: same numbers with it on or off."""

    def test_sweep_identical_with_and_without_telemetry(self):
        from repro.hardware.topology import CASCADE_LAKE_5218
        from repro.obs import Tracer
        from repro.platform.batch import FleetSweep, run_sharded
        from repro.scenarios import ScenarioSpec, expand_grid

        grid = expand_grid(
            ScenarioSpec(name="grid", machines=(1, 2), cores_per_machine=3, seed=5)
        )
        sweep = FleetSweep(
            grid,
            machine=CASCADE_LAKE_5218,
            horizon_seconds=0.2,
            epoch_seconds=1e-3,
            registry_scale=0.05,
        )

        plain = run_sharded(sweep, shards=1, backend="vector")

        q: "queue.Queue" = queue.Queue()
        tracer = Tracer(sink=q.put)
        root = tracer.start("sweep")
        traced = run_sharded(
            sweep,
            shards=1,
            backend="vector",
            metrics_queue=q,
            metrics_interval=0.0,
            trace=root.context(),
            series_budget=32,
        )
        tracer.finish(root, root=True)

        for a, b in zip(plain.result.scenarios, traced.result.scenarios):
            assert a.name == b.name
            assert a.completed == b.completed
            assert a.submitted == b.submitted
            assert a.instructions == b.instructions
            assert a.cycles == b.cycles
            assert a.stall_cycles == b.stall_cycles
            assert a.l3_misses == b.l3_misses

    def test_stream_verify_passes_with_telemetry_on(self, tmp_path, capsys):
        """--verify asserts stream == batch bit-exact; telemetry must not
        break that, and the run must stay under the overhead budget."""
        metrics = tmp_path / "stream.jsonl"
        code = main(
            [
                "stream",
                "--spec",
                "smoke",
                "--verify",
                "--no-bench",
                "--metrics-out",
                str(metrics),
                "--series-budget",
                "64",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-exact" in out
        records = [
            json.loads(line) for line in metrics.read_text().splitlines()
        ]
        spans = [r for r in records if r["kind"] == "span"]
        (root,) = [s for s in spans if not s["parent_id"]]
        assert root["name"] == "stream"
        (simulate,) = [s for s in spans if s["name"] == "simulate"]
        assert simulate["parent_id"] == root["span_id"]
        chunks = [s["name"] for s in spans if s["parent_id"] == simulate["span_id"]]
        assert chunks == [f"chunk-{index}" for index in range(8)]
        assert 0.0 <= root["tags"]["obs_overhead_fraction"] < 0.05
        series = [r for r in records if r["kind"] == "series"]
        assert series and all(p["epoch"] >= 1 for p in series)


class TestCalibrateObs:
    def test_calibrate_once_metrics_out_is_summarizable(self, tmp_path, capsys):
        metrics = tmp_path / "cal.jsonl"
        code = main(
            [
                "calibrate",
                "--once",
                "--points",
                "5",
                "--window",
                "32",
                "--no-bench",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in metrics.read_text().splitlines()
        ]
        kinds = {r["kind"] for r in records}
        assert {"calibration", "span", "series"} <= kinds
        spans = [r for r in records if r["kind"] == "span"]
        names = {s["name"] for s in spans}
        assert {"calibrate", "round-0", "measure", "search"} <= names
        # The probe's measured per-epoch stall fractions become series
        # points readable alongside every other run's series.
        series = [r for r in records if r["kind"] == "series"]
        assert all(p["shard"] == "calibrate" for p in series)

        code = main(["obs", "summarize", str(metrics), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["calibration_events"] >= 1
        assert {"calibrate", "round", "measure", "search"} <= set(
            summary["phases"]
        )
