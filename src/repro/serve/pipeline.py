"""Bounded-queue ingest → simulate → publish pipeline.

The service shape from the opendt exemplar: three small stages around one
deterministic core.  The *ingest* stage feeds trace chunks into a bounded
queue; the *simulate* stage — the caller's thread, and the only thread
that ever touches the engine — consumes them, advances the replay, and
pushes each :class:`~repro.serve.replay.ChunkResult` into a second bounded
queue; the *publish* stage drains that queue into a caller-supplied sink
(a JSONL writer, a metrics emitter, a billing API...).

Both queues have ``queue_depth`` slots, so a slow simulator stalls the
ingester and a slow publisher stalls the simulator — backpressure, not
unbounded buffering.  Because only the simulate stage drives the engine,
the threading never perturbs results: the epoch/submit sequence is the
single-threaded one, bit for bit.

Checkpoints are written by the simulate stage every ``checkpoint_every``
chunks (and once more when stopping early), so a killed service resumes
from a consistent, fully-published prefix of the trace.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional

from repro.obs.trace import SpanContext, Tracer, TraceSpan
from repro.serve.checkpoint import save_checkpoint
from repro.serve.replay import ChunkResult, StreamReplay
from repro.scenarios.trace import TraceChunk

#: Publish sink: called once per ChunkResult, in chunk order.
PublishSink = Callable[[ChunkResult], None]

_DONE = None


@dataclass(frozen=True)
class StreamSummary:
    """What one :meth:`StreamPipeline.run` call accomplished."""

    chunks: int
    epochs: int
    records: int
    completions: int
    checkpoints_written: int
    finished: bool
    time_seconds: float


class StreamPipeline:
    """Run a replay over a chunk plan with staged backpressure.

    Parameters: ``replay`` the (possibly restored) replay; ``chunks`` the
    trace chunks still to ingest (callers resuming from a checkpoint pass
    the remaining suffix of the plan); ``publish`` the per-chunk sink;
    ``queue_depth`` the backpressure bound of each inter-stage queue;
    ``checkpoint_to`` + ``checkpoint_every`` enable periodic checkpoints;
    ``max_chunks`` stops early after that many chunks (taking a final
    checkpoint), which is how the kill-and-resume tests and the CI resume
    step interrupt a run deterministically; ``finalize`` drains residual
    epochs to the horizon after the last chunk (on by default — pass
    ``False`` only with ``max_chunks``-style partial runs).
    """

    def __init__(
        self,
        replay: StreamReplay,
        chunks: Iterable[TraceChunk],
        *,
        publish: Optional[PublishSink] = None,
        queue_depth: int = 4,
        checkpoint_to: Optional[Path] = None,
        checkpoint_every: int = 0,
        max_chunks: Optional[int] = None,
        finalize: bool = True,
        tracer: Optional[Tracer] = None,
        trace_parent: Optional[SpanContext] = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if max_chunks is not None and max_chunks < 1:
            raise ValueError("max_chunks must be >= 1")
        self._replay = replay
        self._chunks = list(chunks)
        self._publish = publish
        self._in: "queue.Queue[Optional[TraceChunk]]" = queue.Queue(queue_depth)
        self._out: "queue.Queue[Optional[ChunkResult]]" = queue.Queue(queue_depth)
        self._checkpoint_to = checkpoint_to
        self._checkpoint_every = checkpoint_every
        self._max_chunks = max_chunks
        self._finalize = finalize
        self._stop = threading.Event()
        self._publish_error: List[BaseException] = []
        #: Optional span tracing (repro.obs.trace).  Stage spans parent
        #: explicitly on ``trace_parent`` — three threads share one
        #: tracer, so the open-span stack cannot be relied on here.
        self._tracer = tracer
        self._trace_parent = trace_parent

    def _stage_span(self, name: str) -> Optional[TraceSpan]:
        if self._tracer is None:
            return None
        return self._tracer.start(
            name, parent=self._trace_parent, tags={"phase": name}
        )

    def _end_span(self, span: Optional[TraceSpan], **tags: object) -> None:
        if self._tracer is not None and span is not None:
            span.tags.update(tags)
            self._tracer.finish(span)

    def _ingest_stage(self) -> None:
        span = self._stage_span("ingest")
        try:
            self._ingest_loop()
        finally:
            self._end_span(span, chunks=len(self._chunks))

    def _ingest_loop(self) -> None:
        for chunk in self._chunks:
            while not self._stop.is_set():
                try:
                    self._in.put(chunk, timeout=0.1)
                    break
                except queue.Full:
                    continue
            if self._stop.is_set():
                return
        # Sentinel: the trace is fully ingested.
        while not self._stop.is_set():
            try:
                self._in.put(_DONE, timeout=0.1)
                return
            except queue.Full:
                continue

    def _publish_stage(self) -> None:
        span = self._stage_span("publish")
        published = 0
        try:
            while True:
                result = self._out.get()
                if result is _DONE:
                    return
                if self._publish is not None:
                    try:
                        self._publish(result)
                        published += 1
                    except BaseException as error:  # surfaced by run()
                        self._publish_error.append(error)
                        self._stop.set()
                        return
        finally:
            self._end_span(span, published=published)

    def _get_in(self) -> Optional[TraceChunk]:
        """Next chunk, or the sentinel once ingest is done or stopping."""
        while True:
            try:
                return self._in.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set():
                    return _DONE
                continue

    def _put_out(self, item: Optional[ChunkResult]) -> bool:
        """Offer ``item`` to the publisher; gives up if it already died."""
        while True:
            if self._publish_error:
                return False
            try:
                self._out.put(item, timeout=0.1)
                return True
            except queue.Full:
                continue

    def _maybe_checkpoint(self, force: bool = False) -> bool:
        if self._checkpoint_to is None:
            return False
        due = (
            self._checkpoint_every > 0
            and self._replay.chunks_ingested % self._checkpoint_every == 0
        )
        if not (due or force):
            return False
        save_checkpoint(self._checkpoint_to, self._replay)
        return True

    def run(self) -> StreamSummary:
        """Drive the three stages to completion (or the ``max_chunks`` stop)."""
        replay = self._replay
        ingest = threading.Thread(target=self._ingest_stage, name="stream-ingest")
        publish = threading.Thread(target=self._publish_stage, name="stream-publish")
        ingest.start()
        publish.start()
        chunks = 0
        epochs = 0
        records = 0
        checkpoints = 0
        simulate_span = self._stage_span("simulate")
        try:
            while not self._stop.is_set():
                item = self._get_in()
                if item is _DONE:
                    break
                chunk_span = (
                    None
                    if self._tracer is None
                    else self._tracer.start(
                        f"chunk-{replay.chunks_ingested}",
                        parent=simulate_span,
                        tags={"phase": "chunk"},
                    )
                )
                result = replay.ingest(item)
                chunks += 1
                epochs += result.epochs
                records += len(result.records)
                self._end_span(
                    chunk_span, epochs=result.epochs, records=len(result.records)
                )
                self._put_out(result)
                if self._maybe_checkpoint():
                    checkpoints += 1
                if self._max_chunks is not None and chunks >= self._max_chunks:
                    self._stop.set()
                    break
            stopped_early = self._stop.is_set()
            if not stopped_early and self._finalize and not replay.finished:
                result = replay.drain()
                epochs += result.epochs
                records += len(result.records)
                self._put_out(result)
            if stopped_early and not replay.finished:
                if self._maybe_checkpoint(force=True):
                    checkpoints += 1
        finally:
            self._stop.set()
            # Free the input queue so an ingest put blocked on it returns
            # now rather than at its timeout; ingest then sees the stop.
            while True:
                try:
                    self._in.get_nowait()
                except queue.Empty:
                    break
            self._put_out(_DONE)
            ingest.join()
            publish.join()
            self._end_span(simulate_span, chunks=chunks, epochs=epochs)
        if self._publish_error:
            raise self._publish_error[0]
        return StreamSummary(
            chunks=chunks,
            epochs=epochs,
            records=records,
            completions=replay.completions,
            checkpoints_written=checkpoints,
            finished=replay.finished,
            time_seconds=replay.time_seconds,
        )
