"""One run-telemetry lifecycle for every instrumented command.

``sweep``, ``stream``, ``calibrate`` and ``run --figures`` open, write and
close their ``--metrics-out`` file through :class:`repro.obs.RunTelemetry`.
These tests pin what that buys: the root span is the file's last record
on every exit, a failing run included, and no helper process outlives
the command.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.obs import RunTelemetry, Tracer


def _records(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _roots(records):
    return [r for r in records if r["kind"] == "span" and not r["parent_id"]]


def _fail_sweep(monkeypatch):
    import repro.platform.batch as batch

    def boom(*args, **kwargs):
        raise RuntimeError("injected sweep failure")

    monkeypatch.setattr(batch, "run_sharded", boom)


def _fail_calibrate(monkeypatch):
    import repro.calibrate.service as service

    def boom(*args, **kwargs):
        raise RuntimeError("injected search failure")

    monkeypatch.setattr(service, "grid_search", boom)


def _fail_figures(monkeypatch):
    import repro.experiments.runner as runner

    real = runner._execute_job

    def fail_fig01(name, profile=False):
        if name == "fig01":
            raise RuntimeError("injected figure failure")
        return real(name, profile)

    monkeypatch.setattr(runner, "_execute_job", fail_fig01)


def _fail_stream(monkeypatch):
    from repro.serve import StreamReplay

    def boom(self, chunk):
        raise RuntimeError("injected ingest failure")

    monkeypatch.setattr(StreamReplay, "ingest", boom)


FAILING_RUNS = {
    "sweep": (["sweep", "--spec", "smoke", "--shards", "2", "--no-bench"], _fail_sweep),
    "calibrate": (["calibrate", "--once", "--no-bench"], _fail_calibrate),
    "run-figures": (["run", "--figures", "table1,fig01"], _fail_figures),
    "stream": (["stream", "--spec", "smoke", "--no-bench"], _fail_stream),
}


@pytest.mark.parametrize("root", sorted(FAILING_RUNS))
def test_failing_run_still_files_its_root_span(root, tmp_path, monkeypatch, capsys):
    argv, inject = FAILING_RUNS[root]
    if root == "run-figures":
        argv = argv + [
            "--results-dir",
            str(tmp_path / "results"),
            "--bench-json",
            str(tmp_path / "bench.json"),
        ]
    out = tmp_path / "metrics.jsonl"
    inject(monkeypatch)
    # The held traceback keeps the command's frame, and any manager it
    # leaked, alive: garbage collection cannot mask a stray child.
    with pytest.raises(RuntimeError) as failure:
        main(argv + ["--metrics-out", str(out)])
    assert "injected" in str(failure.value)
    capsys.readouterr()
    records = _records(out)
    assert [r["name"] for r in _roots(records)] == [root]
    assert records[-1]["kind"] == "span" and records[-1]["name"] == root
    assert not records[-1]["parent_id"]
    assert multiprocessing.active_children() == []


def test_run_figures_metrics_bench_and_check(tmp_path, capsys):
    results = tmp_path / "results"
    bench = tmp_path / "bench.json"
    metrics = tmp_path / "figs.jsonl"
    sweep = ["run", "--figures", "table1,fig01", "--results-dir", str(results)]
    sweep += ["--bench-json", str(bench)]

    assert main(sweep + ["--metrics-out", str(metrics)]) == 0
    assert (results / "table1.txt").is_file() and (results / "fig01.txt").is_file()
    records = _records(metrics)
    figures = [r for r in records if r["kind"] == "span" and r["tags"]["phase"] == "figure"]
    assert sorted(r["name"] for r in figures) == ["fig01", "table1"]
    root = records[-1]
    assert root["name"] == "run-figures" and not root["parent_id"]
    assert {r["parent_id"] for r in figures} == {root["span_id"]}
    (record,) = json.loads(bench.read_text(encoding="utf-8"))["runs"]
    assert 0.0 <= record["obs_overhead_fraction"] < 0.05

    assert main(sweep + ["--check"]) == 0
    assert "all regenerated figures match" in capsys.readouterr().out

    table = results / "table1.txt"
    table.write_text(table.read_text(encoding="utf-8") + "edited\n", encoding="utf-8")
    assert main(sweep + ["--check"]) == 1
    err = capsys.readouterr().err
    assert "STALE: results/table1.txt" in err
    assert "fig01" not in err


def test_close_folds_worker_overhead_and_files_the_root_last(tmp_path):
    out = tmp_path / "run.jsonl"
    with RunTelemetry("demo", tags={"phase": "demo"}, out_path=out) as telemetry:
        worker = Tracer(trace_id=telemetry.tracer.trace_id, sink=telemetry.queue.put)
        span = worker.start("shard-0", parent=telemetry.context(), tags={"phase": "shard"})
        worker.add_overhead(0.25)
        worker.finish(span, root=True)
    records = _records(out)
    assert [r["name"] for r in records] == ["shard-0", "demo"]
    root = records[-1]
    assert root["tags"]["obs_overhead_seconds"] >= 0.25
    assert telemetry.extras == {
        "obs_overhead_fraction": root["tags"]["obs_overhead_fraction"]
    }


def test_unwritable_metrics_file_fails_before_the_run(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    # Held in a local so garbage collection cannot stop a stray manager.
    telemetry = RunTelemetry("demo", tags={}, out_path=blocker / "run.jsonl", processes=True)
    with pytest.raises(OSError):
        with telemetry:
            pytest.fail("the run must not start when its metrics file cannot open")
    assert multiprocessing.active_children() == []


def test_disabled_telemetry_hands_out_nothing(tmp_path):
    out = tmp_path / "never.jsonl"
    with RunTelemetry("demo", tags={}, out_path=out, enabled=False) as telemetry:
        assert telemetry.queue is None and telemetry.tracer is None
        assert telemetry.context() is None
    assert telemetry.extras == {}
    assert not out.exists()
