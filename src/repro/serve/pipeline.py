"""One loop from a chunk plan to the publish sink.

:class:`StreamPipeline` drives a :class:`~repro.serve.replay.StreamReplay`
in the caller's thread.  For each trace chunk, in plan order, it ingests
the chunk, hands the :class:`~repro.serve.replay.ChunkResult` to a
caller-supplied sink (a JSONL writer, a metrics emitter, a billing
API...), and then writes a checkpoint if one is due.  So the next chunk is
simulated only after the previous one is published, and a checkpoint never
covers a chunk the sink has not accepted: a sink that raises ends
:meth:`StreamPipeline.run` at once, with no checkpoint for the failed
chunk, and a resume re-simulates from the last checkpoint and republishes
the chunks after it.

Checkpoints are written every ``checkpoint_every`` chunks and once more
when a ``max_chunks`` stop leaves the replay unfinished, so a killed
service resumes from a consistent, fully-published prefix of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.obs.trace import SpanContext, Tracer, TraceSpan
from repro.serve.checkpoint import save_checkpoint
from repro.serve.replay import ChunkResult, StreamReplay
from repro.scenarios.trace import TraceChunk

#: Publish sink: called once per ChunkResult, in chunk order.
PublishSink = Callable[[ChunkResult], None]


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
    """Run a replay over a chunk plan, publishing each chunk before the next.

    Parameters: ``replay`` the (possibly restored) replay; ``chunks`` the
    trace chunks still to ingest (callers resuming from a checkpoint pass
    the remaining suffix of the plan); ``publish`` the per-chunk sink;
    ``checkpoint_to`` + ``checkpoint_every`` enable periodic checkpoints;
    ``max_chunks`` stops early after that many chunks (taking a final
    checkpoint), which is how the kill-and-resume tests and the CI resume
    step interrupt a run deterministically; ``finalize`` drains residual
    epochs to the horizon after the last chunk (on by default — pass
    ``False`` only with ``max_chunks``-style partial runs); ``tracer``
    files a ``simulate`` span under ``trace_parent`` with one ``chunk-N``
    span per ingested chunk.
    """

    def __init__(
        self,
        replay: StreamReplay,
        chunks: Iterable[TraceChunk],
        *,
        publish: Optional[PublishSink] = None,
        checkpoint_to: Optional[Path] = None,
        checkpoint_every: int = 0,
        max_chunks: Optional[int] = None,
        finalize: bool = True,
        tracer: Optional[Tracer] = None,
        trace_parent: Optional[SpanContext] = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if max_chunks is not None and max_chunks < 1:
            raise ValueError("max_chunks must be >= 1")
        self._replay = replay
        self._chunks = list(chunks)
        self._publish = publish
        self._checkpoint_to = checkpoint_to
        self._checkpoint_every = checkpoint_every if checkpoint_to is not None else 0
        self._max_chunks = max_chunks
        self._finalize = finalize
        self._tracer = tracer
        self._trace_parent = trace_parent

    def _start_span(
        self, name: str, parent: Optional[Union[SpanContext, TraceSpan]], phase: str
    ) -> Optional[TraceSpan]:
        if self._tracer is None:
            return None
        return self._tracer.start(name, parent=parent, tags={"phase": phase})

    def _end_span(self, span: Optional[TraceSpan], **tags: object) -> None:
        if span is not None:
            span.tags.update(tags)
            self._tracer.finish(span)

    def _emit(self, result: ChunkResult) -> None:
        if self._publish is not None:
            self._publish(result)

    def run(self) -> StreamSummary:
        """Ingest, publish and checkpoint each chunk in turn, then finish."""
        replay = self._replay
        every = self._checkpoint_every
        chunks = 0
        epochs = 0
        records = 0
        checkpoints = 0
        saved = False
        simulate_span = self._start_span("simulate", self._trace_parent, "simulate")
        try:
            for chunk in self._chunks[: self._max_chunks]:
                chunk_span = self._start_span(
                    f"chunk-{replay.chunks_ingested}", simulate_span, "chunk"
                )
                result = replay.ingest(chunk)
                self._end_span(
                    chunk_span, epochs=result.epochs, records=len(result.records)
                )
                chunks += 1
                epochs += result.epochs
                records += len(result.records)
                self._emit(result)
                saved = every > 0 and replay.chunks_ingested % every == 0
                if saved:
                    save_checkpoint(self._checkpoint_to, replay)
                    checkpoints += 1
            if self._max_chunks is not None and chunks >= self._max_chunks:
                # Stopped early: leave the unfinished replay resumable,
                # unless the last chunk's periodic checkpoint already did.
                if self._checkpoint_to is not None and not replay.finished and not saved:
                    save_checkpoint(self._checkpoint_to, replay)
                    checkpoints += 1
            elif self._finalize and not replay.finished:
                result = replay.drain()
                epochs += result.epochs
                records += len(result.records)
                self._emit(result)
        finally:
            self._end_span(simulate_span, chunks=chunks, epochs=epochs)
        return StreamSummary(
            chunks=chunks,
            epochs=epochs,
            records=records,
            completions=replay.completions,
            checkpoints_written=checkpoints,
            finished=replay.finished,
            time_seconds=replay.time_seconds,
        )
