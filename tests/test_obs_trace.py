"""Span tracing, bounded series, and the versioned JSONL envelope."""

from __future__ import annotations

import json
import queue

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    ENVELOPE_VERSION,
    CalibrationEvent,
    EnvelopeWarning,
    MetricsCollector,
    ProgressSnapshot,
    SeriesBuffer,
    SeriesPoint,
    SpanContext,
    Tracer,
    TraceSpan,
    read_records,
    unwrap,
    wrap,
)
from repro.obs.envelope import decode


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_nested_spans_parent_automatically(self):
        sink: list = []
        tracer = Tracer(sink=sink.append)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert [s.name for s in sink] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == ""
        assert inner.trace_id == outer.trace_id == tracer.trace_id

    def test_cross_process_context_parents_explicitly(self):
        parent_tracer = Tracer()
        root = parent_tracer.start("sweep")
        context = root.context()
        assert context == SpanContext(
            trace_id=root.trace_id, span_id=root.span_id
        )
        # A "worker" builds its own tracer around the inherited IDs.
        worker = Tracer(trace_id=context.trace_id)
        span = worker.start("shard-0", parent=context)
        worker.finish(span)
        assert span.trace_id == root.trace_id
        assert span.parent_id == root.span_id

    def test_root_span_self_accounts_overhead(self):
        tracer = Tracer()
        span = tracer.start("root")
        tracer.add_overhead(0.25)
        tracer.finish(span, root=True, emit=False)
        assert span.tags["obs_overhead_seconds"] >= 0.25
        assert span.tags["obs_overhead_fraction"] > 0.0
        assert span.duration_seconds >= 0.0

    def test_record_posthoc_span(self):
        sink: list = []
        tracer = Tracer(sink=sink.append)
        root = tracer.start("run")
        span = tracer.record(
            "fig11",
            start_unix_seconds=123.0,
            duration_seconds=4.5,
            parent=root,
            tags={"phase": "figure"},
        )
        assert span.start_unix_seconds == 123.0
        assert span.duration_seconds == 4.5
        assert span.parent_id == root.span_id
        assert sink == [span]

    def test_sink_failure_is_swallowed(self):
        def explode(_span):
            raise RuntimeError("queue torn down")

        tracer = Tracer(sink=explode)
        tracer.finish(tracer.start("x"))  # must not raise

    def test_span_serialization_excludes_bookkeeping(self):
        tracer = Tracer()
        span = tracer.finish(tracer.start("x"), emit=False)
        record = span.to_dict()
        assert "_start_perf" not in record
        assert TraceSpan.from_payload(record) == span


# --------------------------------------------------------------------- #
# SeriesBuffer: deterministic stride decimation
# --------------------------------------------------------------------- #
def point(epoch: int, shard: str = "") -> SeriesPoint:
    return SeriesPoint(
        shard=shard,
        epoch=epoch,
        time_seconds=epoch * 1e-3,
        completions=epoch,
        shared_stall_fraction=0.2,
        fault_injections=0,
        meter_dropped=0,
        billing_error_fraction=0.0,
    )


class TestSeriesBuffer:
    def test_budget_is_never_exceeded(self):
        buffer = SeriesBuffer(budget=8)
        for epoch in range(1, 1000):
            buffer.offer(point(epoch))
        assert len(buffer) < 8

    def test_kept_epochs_divisible_by_stride(self):
        buffer = SeriesBuffer(budget=8)
        for epoch in range(1, 1000):
            buffer.offer(point(epoch))
        assert all(p.epoch % buffer.stride == 0 for p in buffer.points)

    def test_rejects_off_stride_offers(self):
        buffer = SeriesBuffer(budget=4)
        for epoch in range(1, 100):
            buffer.offer(point(epoch))
        assert buffer.stride > 1
        assert not buffer.offer(point(buffer.stride * 100 + 1))
        assert buffer.offer(point(buffer.stride * 100))

    def test_batch_applies_shard_label(self):
        buffer = SeriesBuffer(budget=4)
        buffer.offer(point(1))
        batch = buffer.batch("fault:0")
        assert batch.shard == "fault:0"
        assert all(p.shard == "fault:0" for p in batch.points)
        assert batch.stride == buffer.stride

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            SeriesBuffer(budget=1)

    @settings(max_examples=50, deadline=None)
    @given(epochs=st.integers(min_value=1, max_value=3000))
    def test_downsampling_is_pure_function_of_epoch_sequence(self, epochs):
        first = SeriesBuffer(budget=16)
        second = SeriesBuffer(budget=16)
        for epoch in range(1, epochs + 1):
            first.offer(point(epoch))
        for epoch in range(1, epochs + 1):
            second.offer(point(epoch))
        assert first.points == second.points
        assert first.stride == second.stride


# --------------------------------------------------------------------- #
# Envelope round-trips (the schema contract)
# --------------------------------------------------------------------- #
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
counts = st.integers(min_value=0, max_value=10**9)
names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)

snapshots = st.builds(
    ProgressSnapshot,
    shard=names,
    backend=st.sampled_from(["vector", "scalar", "stream"]),
    scenarios_total=counts,
    scenarios_done=counts,
    epochs_done=counts,
    epochs_total=counts,
    completions=counts,
    submissions=counts,
    fault_injections=counts,
    meter_dropped=counts,
    meter_duplicated=counts,
    billed_gb_seconds=finite,
    true_gb_seconds=finite,
    wall_seconds=finite,
    done=st.booleans(),
)

series_points = st.builds(
    SeriesPoint,
    shard=names,
    epoch=counts,
    time_seconds=finite,
    completions=counts,
    shared_stall_fraction=finite,
    fault_injections=counts,
    meter_dropped=counts,
    billing_error_fraction=finite,
)

spans = st.builds(
    TraceSpan,
    name=names,
    trace_id=names,
    span_id=names,
    parent_id=st.one_of(st.just(""), names),
    start_unix_seconds=finite,
    duration_seconds=finite,
    tags=st.dictionaries(names, st.one_of(finite, counts, names), max_size=4),
)

calibration_events = st.builds(
    CalibrationEvent,
    kind=st.sampled_from(["round", "candidate", "republish"]),
    round_index=counts,
    parameter=names,
    value=finite,
    mape=finite,
    threshold=finite,
    drift_detected=st.booleans(),
    candidate_index=counts,
    candidates_total=counts,
    fingerprint=names,
)


def roundtrip(kind, record):
    """wrap → JSON text → unwrap → decode, as the real pipeline does."""
    line = json.dumps(wrap(kind, record.to_dict()), sort_keys=True)
    unwrapped = unwrap(json.loads(line))
    assert unwrapped is not None
    got_kind, payload = unwrapped
    assert got_kind == kind
    return decode(got_kind, payload)


class TestEnvelopeRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(record=snapshots)
    def test_snapshot_roundtrip(self, record):
        assert roundtrip("snapshot", record) == record

    @settings(max_examples=50, deadline=None)
    @given(record=series_points)
    def test_series_roundtrip(self, record):
        assert roundtrip("series", record) == record

    @settings(max_examples=50, deadline=None)
    @given(record=spans)
    def test_span_roundtrip(self, record):
        assert roundtrip("span", record) == record

    @settings(max_examples=50, deadline=None)
    @given(record=calibration_events)
    def test_calibration_roundtrip(self, record):
        # The event's own ``kind`` field collides with the envelope key;
        # wrap() stores it as ``event`` and decode() maps it back.
        assert roundtrip("calibration", record) == record

    def test_wrap_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            wrap("mystery", {})


class TestEnvelopeForwardCompatibility:
    def test_unknown_kind_is_skipped_with_warning(self):
        with pytest.warns(EnvelopeWarning, match="unknown kind"):
            assert unwrap({"v": 1, "kind": "hologram"}) is None

    def test_future_version_is_skipped_with_warning(self):
        with pytest.warns(EnvelopeWarning, match="future schema"):
            assert unwrap({"v": ENVELOPE_VERSION + 1, "kind": "snapshot"}) is None

    def test_unversioned_record_is_skipped_with_warning(self):
        with pytest.warns(EnvelopeWarning, match="unversioned"):
            assert unwrap({"kind": "snapshot"}) is None

    def test_read_records_survives_garbage_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        good = wrap("series", point(4).to_dict())
        lines = [
            "not json at all",
            '"a bare string"',
            json.dumps({"v": 99, "kind": "snapshot"}),
            json.dumps({"v": 1, "kind": "wormhole"}),
            json.dumps(good),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(EnvelopeWarning):
            records = list(read_records(path))
        assert len(records) == 1
        assert records[0][0] == "series"

    def test_summarize_survives_unknown_records(self, tmp_path):
        from repro.obs.analyze import summarize

        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"v": 99, "kind": "snapshot"})
            + "\n"
            + json.dumps(wrap("series", point(8).to_dict()))
            + "\n",
            encoding="utf-8",
        )
        with pytest.warns(EnvelopeWarning):
            summary = summarize(path)
        assert summary["series"]["points"] == 1


# --------------------------------------------------------------------- #
# Collector: multi-kind dispatch and the stop() shutdown contract
# --------------------------------------------------------------------- #
def snapshot(shard="0", *, epochs=100, wall=2.0, done=False, **overrides):
    base = dict(
        backend="vector",
        scenarios_total=1,
        scenarios_done=1 if done else 0,
        epochs_done=epochs,
        epochs_total=400,
        completions=10,
        submissions=12,
        fault_injections=0,
        meter_dropped=0,
        meter_duplicated=0,
        billed_gb_seconds=1.0,
        true_gb_seconds=1.0,
        done=done,
    )
    base.update(overrides)
    return ProgressSnapshot(shard=shard, wall_seconds=wall, **base)


class TestCollectorKinds:
    def test_all_kinds_written_enveloped(self, tmp_path):
        out = tmp_path / "mixed.jsonl"
        q: "queue.Queue" = queue.Queue()
        collector = MetricsCollector(q, out_path=out).start()
        tracer = Tracer(sink=q.put)
        tracer.finish(tracer.start("shard-0", tags={"phase": "shard"}))
        q.put(snapshot(done=True))
        buffer = SeriesBuffer(budget=8)
        buffer.offer(point(2))
        q.put(buffer.batch("0"))
        q.put(CalibrationEvent(kind="round", round_index=0, parameter="p"))
        collector.stop()
        kinds = sorted(
            json.loads(line)["kind"]
            for line in out.read_text(encoding="utf-8").splitlines()
        )
        assert kinds == ["calibration", "series", "snapshot", "span"]
        summary = collector.summary()
        assert summary["spans"] == 1
        assert summary["series_points"] == 1

    def test_span_overhead_aggregation(self):
        q: "queue.Queue" = queue.Queue()
        collector = MetricsCollector(q).start()
        worker = Tracer(sink=q.put)
        span = worker.start("shard-0")
        worker.add_overhead(0.5)
        worker.finish(span, root=True)
        collector.stop()
        assert collector.span_overhead_seconds >= 0.5

    def test_summary_aggregate_throughput(self):
        q: "queue.Queue" = queue.Queue()
        collector = MetricsCollector(q).start()
        q.put(snapshot("0", epochs=100, wall=2.0, done=True))
        q.put(snapshot("1", epochs=300, wall=4.0, done=True))
        collector.stop()
        summary = collector.summary()
        # Shards run concurrently: total epochs over the longest wall.
        assert summary["epochs"] == 400
        assert summary["wall_seconds"] == pytest.approx(4.0)
        assert summary["epochs_per_second"] == pytest.approx(100.0)

    def test_summary_without_snapshots_has_zero_rate(self):
        q: "queue.Queue" = queue.Queue()
        collector = MetricsCollector(q).start()
        collector.stop()
        summary = collector.summary()
        assert summary["epochs_per_second"] == 0.0
        assert summary["wall_seconds"] == 0.0


class TestCollectorStopRace:
    def test_stop_drains_queued_records_before_close(self, tmp_path):
        out = tmp_path / "drain.jsonl"
        q: "queue.Queue" = queue.Queue()
        collector = MetricsCollector(q, out_path=out).start()
        # Force the drain thread to exit while records are still being
        # queued: stop() must then drain the stragglers inline before
        # closing the file.
        collector._stopping.set()
        collector._thread.join(timeout=5.0)
        assert not collector._thread.is_alive()
        for index in range(50):
            q.put(snapshot(str(index), done=True))
        collector.stop()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50

    def test_no_write_after_stop_returns(self, tmp_path):
        out = tmp_path / "closed.jsonl"
        q: "queue.Queue" = queue.Queue()
        collector = MetricsCollector(q, out_path=out).start()
        q.put(snapshot("0", done=True))
        collector.stop()
        before = out.read_text(encoding="utf-8")
        # A straggler record delivered after stop() must be dropped
        # silently, never raise ValueError on the closed file.
        collector._handle(snapshot("late", done=True))
        assert out.read_text(encoding="utf-8") == before

    def test_stop_is_idempotent(self, tmp_path):
        out = tmp_path / "twice.jsonl"
        q: "queue.Queue" = queue.Queue()
        collector = MetricsCollector(q, out_path=out).start()
        collector.stop()
        collector.stop()
