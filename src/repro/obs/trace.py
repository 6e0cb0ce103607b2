"""Span tracing: one coherent timing tree per run, across processes.

A long run — a sharded fleet sweep, a streaming replay, a continuous
calibration watch — used to be a black box between its first and last
print.  This module is the timing skeleton: a :class:`Tracer` opens
:class:`TraceSpan` records (trace/span/parent IDs, wall-clock start,
duration, a small tag dict) around the phases of a run, and every span
lands in the same versioned JSONL stream as the metrics snapshots
(see :mod:`repro.obs.envelope`), so ``python -m repro obs summarize``
and ``obs export-trace`` can reconstruct where the time went.

Cross-process propagation is deliberately primitive: a
:class:`SpanContext` is two strings — the trace ID and the parent span
ID — and pickles into shard jobs (:mod:`repro.platform.batch.shard`)
or figure jobs.  A worker builds its own :class:`Tracer` around the
inherited trace ID, parents its spans on the inherited span ID, and
pushes finished spans onto the same metrics queue the snapshots ride;
the parent's collector files everything into one tree.

Tracing is strictly read-only — it observes wall-clock and counters the
run already maintains, never simulation state — and self-accounts: every
tracer totals the wall-clock its own bookkeeping consumed, and a root
span closed with ``root=True`` stamps ``obs_overhead_seconds`` /
``obs_overhead_fraction`` tags so the <5% overhead budget is checked by
the run itself (and recorded into BENCH_engine.json run extras).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

__all__ = ["SpanContext", "TraceSpan", "Tracer"]


def _new_id() -> str:
    """A fresh 64-bit hex ID (random; uniqueness, not reproducibility)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The picklable cross-process handle: (trace, parent-span) IDs."""

    trace_id: str
    span_id: str


@dataclass
class TraceSpan:
    """One timed region of a run.

    ``start_unix_seconds`` is wall-clock (``time.time()``) so spans from
    different processes on the same machine order correctly;
    ``duration_seconds`` is measured with ``perf_counter`` so it is
    monotonic.  ``tags`` is a small JSON-safe dict — by convention every
    span carries a ``phase`` tag (``sweep``/``shard``/``chunk``/…)
    that the ``obs summarize`` per-phase breakdown groups on.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str = ""
    start_unix_seconds: float = 0.0
    duration_seconds: float = 0.0
    tags: Dict[str, Any] = field(default_factory=dict)
    #: perf_counter at start; bookkeeping only, excluded from to_dict().
    _start_perf: float = field(default=0.0, repr=False, compare=False)

    def context(self) -> SpanContext:
        """The handle children (possibly in other processes) parent on."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_seconds": self.start_unix_seconds,
            "duration_seconds": self.duration_seconds,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TraceSpan":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=str(payload.get("parent_id", "")),
            start_unix_seconds=float(payload.get("start_unix_seconds", 0.0)),
            duration_seconds=float(payload.get("duration_seconds", 0.0)),
            tags=dict(payload.get("tags", {})),
        )


#: Span sink: receives each finished span (a queue ``put``, a JSONL
#: writer, …).  Sink failures are swallowed — tracing must never kill
#: the run it observes.
SpanSink = Callable[[TraceSpan], None]


class Tracer:
    """Creates, times, and emits spans for one process of one run.

    The tracer keeps an open-span stack, so nested ``with`` blocks
    parent automatically; cross-process children pass the inherited
    :class:`SpanContext` explicitly.  All bookkeeping wall-clock is
    accumulated (guarded by a lock) into the overhead a root span stamps.
    """

    def __init__(
        self, *, trace_id: Optional[str] = None, sink: Optional[SpanSink] = None
    ) -> None:
        self._trace_id = trace_id or _new_id()
        self._sink = sink
        self._overhead = 0.0
        self._lock = threading.Lock()
        self._stack: List[str] = []

    @property
    def trace_id(self) -> str:
        return self._trace_id

    def add_overhead(self, seconds: float) -> None:
        """Fold in overhead measured elsewhere (e.g. worker span tags)."""
        with self._lock:
            self._overhead += max(seconds, 0.0)

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #
    def start(
        self,
        name: str,
        *,
        parent: Optional[Union[SpanContext, TraceSpan, str]] = None,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> TraceSpan:
        """Open a span.  ``parent`` defaults to the innermost open span."""
        t0 = time.perf_counter()
        if parent is None:
            parent_id = self._stack[-1] if self._stack else ""
        elif isinstance(parent, (SpanContext, TraceSpan)):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = TraceSpan(
            name=name,
            trace_id=self._trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            start_unix_seconds=time.time(),
            tags=dict(tags or {}),
        )
        self._stack.append(span.span_id)
        span._start_perf = time.perf_counter()
        with self._lock:
            self._overhead += span._start_perf - t0
        return span

    def finish(
        self, span: TraceSpan, *, root: bool = False, emit: bool = True
    ) -> TraceSpan:
        """Close a span, stamping duration (and, for roots, overhead tags).

        A ``root=True`` span self-accounts the whole tracer:
        ``obs_overhead_seconds`` is everything this tracer (plus any
        :meth:`add_overhead` contributions, e.g. from worker spans)
        spent on observability, and ``obs_overhead_fraction`` divides
        that by the root's own duration — the number budgeted below 5%.
        """
        t0 = time.perf_counter()
        span.duration_seconds = t0 - span._start_perf
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:  # out-of-order finish (threads)
            self._stack.remove(span.span_id)
        if root:
            with self._lock:
                overhead = self._overhead
            span.tags["obs_overhead_seconds"] = round(overhead, 6)
            span.tags["obs_overhead_fraction"] = round(
                overhead / max(span.duration_seconds, 1e-9), 6
            )
        if emit and self._sink is not None:
            try:
                self._sink(span)
            except Exception:  # pragma: no cover - queue torn down mid-run
                pass
        with self._lock:
            self._overhead += time.perf_counter() - t0
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Optional[Union[SpanContext, TraceSpan, str]] = None,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> Iterator[TraceSpan]:
        """``with tracer.span("shard-0", tags={"phase": "shard"}):`` …"""
        span = self.start(name, parent=parent, tags=tags)
        try:
            yield span
        finally:
            self.finish(span)

    def record(
        self,
        name: str,
        *,
        start_unix_seconds: float,
        duration_seconds: float,
        parent: Optional[Union[SpanContext, TraceSpan, str]] = None,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> TraceSpan:
        """Emit a span from timings measured elsewhere (already finished).

        The figure runner uses this: workers report each job's wall start
        and duration, and the parent files a span for it post-hoc without
        pickling a tracer into the pool.
        """
        t0 = time.perf_counter()
        if parent is None:
            parent_id = self._stack[-1] if self._stack else ""
        elif isinstance(parent, (SpanContext, TraceSpan)):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = TraceSpan(
            name=name,
            trace_id=self._trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            start_unix_seconds=start_unix_seconds,
            duration_seconds=duration_seconds,
            tags=dict(tags or {}),
        )
        if self._sink is not None:
            try:
                self._sink(span)
            except Exception:  # pragma: no cover
                pass
        with self._lock:
            self._overhead += time.perf_counter() - t0
        return span
