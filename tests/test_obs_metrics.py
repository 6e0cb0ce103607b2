"""Observability layer: snapshots, emitter throttling, collector summaries."""

from __future__ import annotations

import json
import queue

import pytest

from repro.obs import JsonlWriter, MetricsCollector, MetricsEmitter, ProgressSnapshot


def payload(**overrides):
    base = dict(
        backend="vector",
        scenarios_total=2,
        scenarios_done=1,
        epochs_done=100,
        epochs_total=400,
        completions=17,
        submissions=20,
        fault_injections=3,
        meter_dropped=1,
        meter_duplicated=0,
        billed_gb_seconds=0.9,
        true_gb_seconds=1.0,
        done=False,
    )
    base.update(overrides)
    return base


class TestProgressSnapshot:
    def snapshot(self, **overrides):
        return ProgressSnapshot(shard="0", wall_seconds=2.0, **payload(**overrides))

    def test_derived_rates(self):
        snap = self.snapshot()
        assert snap.epochs_per_second == pytest.approx(50.0)
        assert snap.progress_fraction == pytest.approx(0.25)
        assert snap.billing_error_fraction == pytest.approx(-0.1)

    def test_zero_denominators_are_safe(self):
        snap = ProgressSnapshot(
            shard="0",
            wall_seconds=0.0,
            **payload(epochs_total=0, true_gb_seconds=0.0),
        )
        assert snap.epochs_per_second == 0.0
        assert snap.progress_fraction == 0.0
        assert snap.billing_error_fraction == 0.0

    def test_to_dict_round_trips_through_json(self):
        record = json.loads(json.dumps(self.snapshot().to_dict()))
        assert record["shard"] == "0"
        assert record["epochs_per_second"] == pytest.approx(50.0)

    def test_render_line_mentions_faults_only_when_present(self):
        assert "faults:" in self.snapshot().render_line()
        clean = self.snapshot(
            fault_injections=0, meter_dropped=0, meter_duplicated=0
        )
        assert "faults:" not in clean.render_line()
        assert "[done]" in self.snapshot(done=True).render_line()


class TestMetricsEmitter:
    def test_throttles_but_passes_done(self):
        q = queue.Queue()
        emitter = MetricsEmitter(q, min_interval_seconds=3600.0)
        emitter(payload())  # first emission always goes out
        for _ in range(5):
            emitter(payload())  # throttled away
        emitter(payload(done=True))  # done bypasses the throttle
        snapshots = []
        while not q.empty():
            snapshots.append(q.get())
        assert len(snapshots) == 2
        assert not snapshots[0].done and snapshots[1].done

    def test_unthrottled_emits_everything(self):
        q = queue.Queue()
        emitter = MetricsEmitter(q, min_interval_seconds=0.0)
        for _ in range(4):
            emitter(payload())
        assert q.qsize() == 4

    def test_shard_label_prefix(self):
        q = queue.Queue()
        MetricsEmitter(q, shard=3, label="base:")(payload())
        assert q.get().shard == "base:3"

    def test_queue_failures_are_swallowed(self):
        class Broken:
            def put(self, item):
                raise RuntimeError("gone")

        MetricsEmitter(Broken(), min_interval_seconds=0.0)(payload())  # no raise


class TestMetricsCollector:
    def drain(self, snapshots, **kwargs):
        q = queue.Queue()
        collector = MetricsCollector(q, **kwargs).start()
        for snap in snapshots:
            q.put(snap)
        collector.stop()
        return collector

    def test_summary_aggregates_final_snapshots(self):
        early = ProgressSnapshot(shard="0", wall_seconds=1.0, **payload())
        final0 = ProgressSnapshot(
            shard="0", wall_seconds=2.0, **payload(epochs_done=400, done=True)
        )
        final1 = ProgressSnapshot(
            shard="1",
            wall_seconds=2.0,
            **payload(epochs_done=300, completions=5, done=True),
        )
        collector = self.drain([early, final0, final1])
        summary = collector.summary()
        assert summary["snapshots"] == 3
        assert summary["epochs"] == 700
        assert summary["completions"] == 22
        assert summary["shards"]["0"]["done"] and summary["shards"]["1"]["done"]

    def test_unfinished_shard_falls_back_to_latest(self):
        only = ProgressSnapshot(shard="2", wall_seconds=1.0, **payload())
        summary = self.drain([only]).summary()
        assert summary["shards"]["2"]["done"] is False
        assert summary["epochs"] == 100

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "metrics.jsonl"
        snap = ProgressSnapshot(shard="0", wall_seconds=1.0, **payload(done=True))
        self.drain([snap, snap], out_path=out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["shard"] == "0"

    def test_renders_done_lines_to_stream(self, tmp_path):
        import io

        stream = io.StringIO()
        snap = ProgressSnapshot(shard="0", wall_seconds=1.0, **payload(done=True))
        self.drain([snap], stream=stream, min_render_interval_seconds=3600.0)
        assert "[done]" in stream.getvalue()


class TestJsonlWriter:
    def test_appends_sorted_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlWriter(path) as writer:
            writer.write({"b": 2, "a": 1})
            writer.write({"figure": "fig11"})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"a": 1, "b": 2}
        assert lines[0].index('"a"') < lines[0].index('"b"')
        assert json.loads(lines[1]) == {"figure": "fig11"}
