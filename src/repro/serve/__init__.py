"""Streaming billing/replay service over the vector sweep engine.

Where :class:`repro.platform.batch.FleetSweep` runs a whole horizon in one
call, this package replays the same simulation *incrementally*: trace
chunks (:mod:`repro.scenarios.trace`) are ingested one at a time, the
fleet advances epoch-by-epoch with bounded memory, and per-tenant billing
records stream out as each chunk completes.  The correctness contract —
enforced by ``tests/test_sv_stream_replay.py`` and
``tests/test_props_stream.py`` — is that the streamed cumulative ledgers
and per-invocation counters are **bit-exact** against the batch sweep for
the same spec, for any chunk partition, including under ``[[faults]]``
and across a checkpoint/restore cycle.

Entry points:

* :class:`StreamReplay` — the resumable replay state machine;
* :mod:`repro.serve.checkpoint` — atomic, fingerprinted checkpoints built
  on :func:`repro.diskcache.atomic_write_text`;
* :class:`StreamPipeline` — the loop that ingests, publishes and
  checkpoints one chunk at a time;
* ``python -m repro stream`` — the CLI front end (see docs/streaming.md).
"""

from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.pipeline import StreamPipeline, StreamSummary
from repro.serve.replay import BillingRecord, ChunkResult, StreamReplay

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "checkpoint_path",
    "load_checkpoint",
    "save_checkpoint",
    "StreamPipeline",
    "StreamSummary",
    "BillingRecord",
    "ChunkResult",
    "StreamReplay",
]
