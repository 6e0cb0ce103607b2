"""Differential tests: streaming replay vs the batch sweep, bit for bit.

The streaming service's correctness contract (docs/streaming.md) is that
chunked, checkpointed, resumed replay is *indistinguishable* from the batch
``FleetSweep`` — same per-tenant ledgers, same per-invocation counters,
same fault accounting, down to the last float.  These tests enforce it for
the healthy ``smoke`` preset and the fault-carrying ``chaos-smoke`` preset,
across chunk sizes, and across a kill-and-resume cycle.
"""

from __future__ import annotations

import base64
import json
import pickle
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import (
    chunk_plan,
    compile_spec,
    load_spec_or_preset,
    partition_plan,
)
from repro.scenarios.trace import TraceChunk
from repro.serve import (
    CheckpointError,
    StreamPipeline,
    StreamReplay,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)

PRESETS = ("smoke", "chaos-smoke")

_COMPILED = {}
_BATCH = {}


def _compiled(preset):
    if preset not in _COMPILED:
        _COMPILED[preset] = compile_spec(load_spec_or_preset(preset))
    return _COMPILED[preset]


def _batch_reference(preset):
    """The batch vector result, metered (the streamed path always meters)."""
    if preset not in _BATCH:
        _BATCH[preset] = _compiled(preset).sweep(meter=True).run("vector")
    return _BATCH[preset]


def assert_bit_exact(stream_result, batch_result):
    """Every scenario's ledgers and counters must match exactly — no rtol."""
    assert len(stream_result.scenarios) == len(batch_result.scenarios)
    for streamed, batch in zip(stream_result.scenarios, batch_result.scenarios):
        assert streamed.name == batch.name
        assert streamed.submitted == batch.submitted
        assert streamed.completed == batch.completed
        assert streamed.instructions == batch.instructions
        assert streamed.cycles == batch.cycles
        assert streamed.stall_cycles == batch.stall_cycles
        assert streamed.l3_misses == batch.l3_misses
        assert streamed.billing == batch.billing
        assert streamed.fault_stats == batch.fault_stats


# --------------------------------------------------------------------- #
# Chunk-size invariance
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("chunk_epochs", (1, 7, 50, 250))
def test_stream_matches_batch_for_any_chunk_size(preset, chunk_epochs):
    replay = StreamReplay(_compiled(preset))
    for chunk in chunk_plan(replay.epochs_total, chunk_epochs):
        replay.ingest(chunk)
    replay.drain()
    assert replay.finished
    assert_bit_exact(replay.result(), _batch_reference(preset))


@pytest.mark.parametrize("preset", PRESETS)
def test_billing_records_sum_to_batch_ledger(preset):
    """Streamed per-chunk deltas reassemble the exact batch billing."""
    replay = StreamReplay(_compiled(preset))
    totals = {}
    for chunk in chunk_plan(replay.epochs_total, 25):
        for record in replay.ingest(chunk).records:
            true, billed = totals.get((record.scenario, record.function), (0.0, 0.0))
            totals[(record.scenario, record.function)] = (
                true + record.true_gb_seconds,
                billed + record.billed_gb_seconds,
            )
    for record in replay.drain().records:
        true, billed = totals.get((record.scenario, record.function), (0.0, 0.0))
        totals[(record.scenario, record.function)] = (
            true + record.true_gb_seconds,
            billed + record.billed_gb_seconds,
        )
    for scenario in _batch_reference(preset).scenarios:
        billed_by_function = dict(scenario.billing.billed_gb_seconds)
        for function, true_total in scenario.billing.true_gb_seconds:
            streamed_true, streamed_billed = totals[(scenario.name, function)]
            # Deltas were produced by subtracting successive cumulative
            # sums, so re-adding them reproduces the final sums exactly.
            assert streamed_true == pytest.approx(true_total, rel=0, abs=1e-12)
            assert streamed_billed == pytest.approx(
                billed_by_function.get(function, 0.0), rel=0, abs=1e-12
            )


# --------------------------------------------------------------------- #
# Checkpoint / kill-and-resume
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("preset", PRESETS)
def test_kill_and_resume_reproduces_uninterrupted_run(preset, tmp_path):
    plan = chunk_plan(StreamReplay(_compiled(preset)).epochs_total, 25)

    # "Service" run 1: ingest 3 chunks, checkpoint, die.
    first = StreamReplay(_compiled(preset))
    for chunk in plan[:3]:
        first.ingest(chunk)
    path = checkpoint_path(tmp_path, first.fingerprint)
    save_checkpoint(path, first)
    del first  # the process is gone

    # "Service" run 2: restore and finish.
    restored = load_checkpoint(path)
    assert restored.chunks_ingested == 3
    for chunk in plan[3:]:
        restored.ingest(chunk)
    restored.drain()
    assert restored.finished
    assert_bit_exact(restored.result(), _batch_reference(preset))


def test_resume_with_different_chunk_size_is_bit_exact(tmp_path):
    """Resume may re-chunk the remaining epochs arbitrarily."""
    compiled = _compiled("chaos-smoke")
    first = StreamReplay(compiled)
    total = first.epochs_total
    for chunk in chunk_plan(total, 40)[:2]:
        first.ingest(chunk)
    path = checkpoint_path(tmp_path, first.fingerprint)
    save_checkpoint(path, first)

    restored = load_checkpoint(path, expect_fingerprint=first.fingerprint)
    remaining = total - restored.epochs_done
    for chunk in chunk_plan(remaining, 13):
        restored.ingest(chunk)
    restored.drain()
    assert_bit_exact(restored.result(), _batch_reference("chaos-smoke"))


def test_checkpoint_rejects_wrong_fingerprint(tmp_path):
    replay = StreamReplay(_compiled("smoke"))
    path = checkpoint_path(tmp_path, replay.fingerprint)
    save_checkpoint(path, replay)
    with pytest.raises(CheckpointError, match="different study"):
        load_checkpoint(path, expect_fingerprint="0" * 32)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bogus.ckpt.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(path)
    path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(CheckpointError, match="not a stream checkpoint"):
        load_checkpoint(path)


def test_checkpoint_refuses_an_older_version(tmp_path):
    """A version-2 envelope stops with the one-line version error before
    its state is unpickled, rather than failing mid-run."""
    replay = StreamReplay(_compiled("smoke"))
    path = save_checkpoint(tmp_path / "c.ckpt.json", replay)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["checkpoint_version"] = 2
    path.write_text(json.dumps(envelope), encoding="utf-8")
    with pytest.raises(CheckpointError, match="has version 2, expected 3") as caught:
        load_checkpoint(path, expect_fingerprint=replay.fingerprint)
    assert "\n" not in str(caught.value)


_ENVELOPE = {}


def _valid_envelope():
    if not _ENVELOPE:
        replay = StreamReplay(_compiled("smoke"))
        replay.ingest(TraceChunk(index=0, start_epoch=0, end_epoch=5))
        with tempfile.TemporaryDirectory() as directory:
            path = save_checkpoint(Path(directory) / "c.ckpt.json", replay)
            _ENVELOPE.update(json.loads(path.read_text(encoding="utf-8")))
    return dict(_ENVELOPE)


def _packed(data: bytes) -> str:
    return base64.b64encode(zlib.compress(data)).decode("ascii")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
#: Stands for the state blob of a real checkpoint.
_REAL_STATE = object()
state_values = st.one_of(
    st.just(_REAL_STATE),
    json_values,
    st.binary(max_size=64).map(lambda data: base64.b64encode(data).decode("ascii")),
    st.binary(max_size=64).map(_packed),
    st.sampled_from(
        [
            _packed(b""),
            _packed(pickle.dumps({"not": "a replay"})),
            _packed(pickle.dumps(StreamReplay)[:-3]),
        ]
    ),
)


@given(
    field=st.sampled_from(["format", "checkpoint_version", "fingerprint", "state"]),
    value=json_values,
    state=state_values,
    drop=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_checkpoint_load_never_escapes_as_a_traceback(field, value, state, drop):
    """Whatever an envelope holds, loading it either restores a replay or
    raises CheckpointError naming the file."""
    envelope = _valid_envelope()
    fingerprint = envelope["fingerprint"]
    if state is not _REAL_STATE:
        envelope["state"] = state
    if drop:
        envelope.pop(field)
    elif field != "state":
        envelope[field] = value
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "c.ckpt.json"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        try:
            replay = load_checkpoint(path, expect_fingerprint=fingerprint)
        except CheckpointError as error:
            assert str(path) in str(error)
        else:
            assert isinstance(replay, StreamReplay)


def test_checkpoint_envelope_is_inspectable_json(tmp_path):
    replay = StreamReplay(_compiled("smoke"))
    replay.ingest(TraceChunk(index=0, start_epoch=0, end_epoch=10))
    path = save_checkpoint(tmp_path / "c.ckpt.json", replay)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    assert envelope["checkpoint_version"] == 3
    assert envelope["fingerprint"] == replay.fingerprint
    assert envelope["chunks_ingested"] == 1
    assert envelope["epochs_done"] == 10


# --------------------------------------------------------------------- #
# Pipeline (backpressure + publish ordering)
# --------------------------------------------------------------------- #
def test_pipeline_publishes_in_order_and_matches_batch():
    replay = StreamReplay(_compiled("chaos-smoke"))
    published = []
    summary = StreamPipeline(
        replay,
        chunk_plan(replay.epochs_total, 25),
        publish=published.append,
        queue_depth=1,  # tightest backpressure
    ).run()
    assert summary.finished
    assert [r.chunk for r in published[:-1]] == sorted(
        r.chunk for r in published[:-1]
    )
    assert_bit_exact(replay.result(), _batch_reference("chaos-smoke"))


def test_pipeline_surfaces_publish_errors():
    replay = StreamReplay(_compiled("smoke"))

    def explode(_result):
        raise RuntimeError("publisher died")

    with pytest.raises(RuntimeError, match="publisher died"):
        StreamPipeline(
            replay, chunk_plan(replay.epochs_total, 25), publish=explode
        ).run()


def test_pipeline_max_chunks_checkpoints_and_stops(tmp_path):
    replay = StreamReplay(_compiled("smoke"))
    path = checkpoint_path(tmp_path, replay.fingerprint)
    summary = StreamPipeline(
        replay,
        chunk_plan(replay.epochs_total, 25),
        checkpoint_to=path,
        checkpoint_every=100,  # only the forced stop checkpoint fires
        max_chunks=2,
        finalize=False,
    ).run()
    assert summary.chunks == 2
    assert not summary.finished
    assert path.exists()
    restored = load_checkpoint(path)
    assert restored.epochs_done == replay.epochs_done == 50


# --------------------------------------------------------------------- #
# Trace plans
# --------------------------------------------------------------------- #
def test_chunk_plan_covers_the_horizon_exactly():
    plan = chunk_plan(250, 32)
    assert plan[0].start_epoch == 0
    assert plan[-1].end_epoch == 250
    assert sum(c.epochs for c in plan) == 250
    assert [c.index for c in plan] == list(range(len(plan)))


def test_partition_plan_validates_sizes():
    assert [c.epochs for c in partition_plan(10, (3, 3, 4))] == [3, 3, 4]
    with pytest.raises(ValueError, match="sum to"):
        partition_plan(10, (3, 3))
    with pytest.raises(ValueError, match=">= 1"):
        partition_plan(10, (5, 0, 5))


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_stream_verifies_against_batch(tmp_path, capsys):
    from repro.cli import main

    bench = tmp_path / "bench.json"
    code = main(
        [
            "stream",
            "--spec",
            "smoke",
            "--chunk-epochs",
            "50",
            "--verify",
            "--bench-json",
            str(bench),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bit-exact" in out
    entries = json.loads(bench.read_text(encoding="utf-8"))
    record = entries["runs"][-1]
    assert record["source"] == "stream-replay"
    assert record["verified_bit_exact"] is True
    assert record["finished"] is True


def test_cli_stream_checkpoint_resume_cycle(tmp_path, capsys):
    from repro.cli import main

    ckpt_dir = tmp_path / "ckpt"
    common = [
        "stream",
        "--spec",
        "chaos-smoke",
        "--checkpoint-dir",
        str(ckpt_dir),
        "--no-bench",
    ]
    assert main(common + ["--chunk-epochs", "25", "--max-chunks", "2"]) == 0
    out = capsys.readouterr().out
    assert "stopped after 2 chunk(s)" in out
    assert list(ckpt_dir.glob("*.ckpt.json"))

    # Second invocation auto-resumes (different chunk size on purpose),
    # verifies bit-exactness, and clears the checkpoint on completion.
    assert main(common + ["--chunk-epochs", "13", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "resumed at epoch 50" in out
    assert "bit-exact" in out
    assert not list(ckpt_dir.glob("*.ckpt.json"))


def test_cli_stream_refuses_a_corrupt_checkpoint_in_one_line(tmp_path, capsys):
    from repro.cli import main

    ckpt_dir = tmp_path / "ckpt"
    common = ["stream", "--spec", "smoke", "--checkpoint-dir", str(ckpt_dir), "--no-bench"]
    assert main(common + ["--chunk-epochs", "25", "--max-chunks", "1"]) == 0
    (path,) = ckpt_dir.glob("*.ckpt.json")
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["state"] = 42
    path.write_text(json.dumps(envelope), encoding="utf-8")
    capsys.readouterr()
    assert main(common) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "state is not a string" in err


def test_cli_stream_records_out_jsonl(tmp_path, capsys):
    from repro.cli import main

    records = tmp_path / "records.jsonl"
    code = main(
        [
            "stream",
            "--spec",
            "smoke",
            "--chunk-epochs",
            "125",
            "--records-out",
            str(records),
            "--no-bench",
        ]
    )
    assert code == 0
    lines = [
        json.loads(line)
        for line in records.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    assert lines
    assert {"chunk", "scenario", "function", "true_gb_seconds", "billed_gb_seconds"} <= set(
        lines[0]
    )


def test_cli_stream_rejects_verify_with_max_chunks(capsys):
    from repro.cli import main

    code = main(["stream", "--spec", "smoke", "--max-chunks", "1", "--verify"])
    assert code == 2
    assert "--max-chunks" in capsys.readouterr().err


def test_cli_stream_reports_spec_errors(capsys):
    from repro.cli import main

    code = main(["stream", "--spec", "no-such-preset"])
    assert code == 2
    assert capsys.readouterr().err.strip()
