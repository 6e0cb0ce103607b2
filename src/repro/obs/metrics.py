"""Live run observability: snapshots, emitters, the collector, the lifecycle.

Long sharded sweeps used to run silently until the merge.  This module is
the thin metrics layer between the engines and the CLI:

* :class:`ProgressSnapshot` — one frozen reading of a shard's progress
  (epochs, completions, fault counters, billing error so far).
* :class:`MetricsEmitter` — the *worker* side.  It is the ``progress``
  callback handed to :meth:`FleetSweep.run`; it stamps payload dicts into
  snapshots and puts them on a (multiprocessing) queue, throttled by
  wall-clock so emission stays far below 1% of epoch work.  Final
  (``done=True``) snapshots always pass the throttle.
* :class:`MetricsCollector` — the *parent* side.  A daemon thread drains
  the queue, optionally renders one status line per snapshot batch to a
  stream, appends every record to the ``--metrics-out`` JSONL (it is that
  file's only writer), and aggregates a summary dict that the CLI records
  into ``BENCH_engine.json`` run extras.
* :class:`RunTelemetry` — one run's whole lifecycle: it opens the queue,
  the collector, a tracer and the root span, and closes them in one
  order on every exit.  ``sweep``, ``stream``, ``calibrate`` and
  ``run --figures`` all go through it.

Observability is strictly read-only: emitters see counters the engines
already maintain, so ``--metrics`` can never change a sweep's results.
See docs/observability.md for the cookbook.
"""

from __future__ import annotations

import json
import queue as queue_module
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Any, Dict, Mapping, Optional, Union

from repro.obs.envelope import wrap
from repro.obs.series import SeriesBatch, SeriesBuffer, SeriesPoint
from repro.obs.trace import SpanContext, Tracer, TraceSpan

#: Payload keys a sweep backend must provide to its progress callback.
PAYLOAD_KEYS = (
    "backend",
    "scenarios_total",
    "scenarios_done",
    "epochs_done",
    "epochs_total",
    "completions",
    "submissions",
    "fault_injections",
    "meter_dropped",
    "meter_duplicated",
    "billed_gb_seconds",
    "true_gb_seconds",
    "done",
)


@dataclass(frozen=True)
class ProgressSnapshot:
    """One shard's progress at one instant (queue-serialized, picklable)."""

    shard: str
    backend: str
    scenarios_total: int
    scenarios_done: int
    epochs_done: int
    epochs_total: int
    completions: int
    submissions: int
    fault_injections: int
    meter_dropped: int
    meter_duplicated: int
    billed_gb_seconds: float
    true_gb_seconds: float
    wall_seconds: float
    done: bool = False

    @property
    def epochs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.epochs_done / self.wall_seconds

    @property
    def progress_fraction(self) -> float:
        if self.epochs_total <= 0:
            return 0.0
        return min(self.epochs_done / self.epochs_total, 1.0)

    @property
    def billing_error_fraction(self) -> float:
        if self.true_gb_seconds <= 0:
            return 0.0
        return (self.billed_gb_seconds - self.true_gb_seconds) / self.true_gb_seconds

    def to_dict(self) -> Dict[str, Any]:
        record = asdict(self)
        record["epochs_per_second"] = self.epochs_per_second
        record["billing_error_fraction"] = self.billing_error_fraction
        return record

    def render_line(self) -> str:
        """The one-line form the CLI prints per update."""
        percent = 100.0 * self.progress_fraction
        line = (
            f"[metrics] shard {self.shard} [{self.backend}] "
            f"{percent:5.1f}% epochs, {self.epochs_per_second:,.0f} epochs/s, "
            f"{self.completions} completed"
        )
        if self.fault_injections or self.meter_dropped or self.meter_duplicated:
            line += (
                f", faults: {self.fault_injections} injected, "
                f"meter -{self.meter_dropped}/+{self.meter_duplicated}"
            )
        if self.true_gb_seconds > 0:
            line += f", bill err {100.0 * self.billing_error_fraction:+.2f}%"
        if self.done:
            line += " [done]"
        return line


@dataclass(frozen=True)
class CalibrationEvent:
    """One observable step of the continuous-calibration loop.

    The calibrate service emits these through an observer callback — the
    calibration twin of :class:`ProgressSnapshot`.  ``kind`` is one of
    ``round`` (a drift-check round finished), ``candidate`` (one grid
    point scored, ``candidate_index``/``candidates_total`` carry search
    progress) or ``republish`` (a new fit was atomically published,
    ``fingerprint`` names the cache entry's self-fingerprint).  Strictly
    read-only, like all observability here: observers see results the
    service already computed.
    """

    kind: str
    round_index: int
    parameter: str
    value: float = 0.0
    mape: float = 0.0
    threshold: float = 0.0
    drift_detected: bool = False
    candidate_index: int = 0
    candidates_total: int = 0
    fingerprint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render_line(self) -> str:
        """The one-line form ``repro calibrate`` prints per event."""
        head = f"[calibrate] round {self.round_index}"
        if self.kind == "candidate":
            return (
                f"{head}: candidate {self.candidate_index + 1}/"
                f"{self.candidates_total} {self.parameter}={self.value:.6g} "
                f"mape {100.0 * self.mape:.3f}%"
            )
        if self.kind == "republish":
            line = (
                f"{head}: republish {self.parameter}={self.value:.6g} "
                f"mape {100.0 * self.mape:.3f}%"
            )
            if self.fingerprint:
                line += f" fit {self.fingerprint[:12]}"
            return line
        verdict = "drift detected" if self.drift_detected else "stable"
        return (
            f"{head}: incumbent {self.parameter}={self.value:.6g} "
            f"windowed mape {100.0 * self.mape:.3f}% "
            f"(threshold {100.0 * self.threshold:.3f}%) — {verdict}"
        )


class MetricsEmitter:
    """Worker-side throttled snapshot publisher (the progress callback).

    ``queue`` only needs a ``put`` method — a ``multiprocessing.Manager``
    queue proxy in sharded runs, a plain ``queue.Queue`` inline.  Queue
    failures are swallowed: metrics must never kill a sweep.
    """

    def __init__(
        self,
        queue: Any,
        *,
        shard: int = 0,
        label: str = "",
        min_interval_seconds: float = 0.5,
        series_budget: Optional[int] = None,
    ) -> None:
        self._queue = queue
        self._shard = f"{label}{shard}"
        self._interval = max(min_interval_seconds, 0.0)
        self._start = time.perf_counter()
        self._last_emit = float("-inf")
        #: Per-epoch series ring (see repro.obs.series); None disables
        #: sampling — drive loops probe for ``epoch_sample`` before
        #: building points, so a disabled emitter costs nothing per epoch.
        self._series = SeriesBuffer(series_budget) if series_budget else None

    @property
    def epoch_sample(self):
        """The per-epoch series sampler, or ``None`` when disabled.

        Drive loops duck-type on this: ``getattr(progress,
        "epoch_sample", None)`` returning a callable turns on per-epoch
        :class:`~repro.obs.series.SeriesPoint` sampling.  Points are
        ring-buffered locally (deterministic stride decimation bounds
        memory) and flushed as one batch with the final snapshot.
        """
        if self._series is None:
            return None
        return self._series.offer

    def __call__(self, payload: Mapping[str, Any]) -> None:
        now = time.perf_counter()
        done = bool(payload.get("done", False))
        if not done and now - self._last_emit < self._interval:
            return
        self._last_emit = now
        snapshot = ProgressSnapshot(
            shard=self._shard,
            wall_seconds=now - self._start,
            **{key: payload[key] for key in PAYLOAD_KEYS if key in payload},
        )
        try:
            if done and self._series is not None and len(self._series):
                self._queue.put(self._series.batch(self._shard))
            self._queue.put(snapshot)
        except Exception:  # pragma: no cover - queue torn down mid-run
            pass


class MetricsCollector:
    """Parent-side queue drainer: renders, records, and summarizes.

    Start before launching the run, stop after it returns; records still
    in flight at :meth:`stop` are drained before the file closes.
    Beyond snapshots, the queue may carry
    :class:`~repro.obs.trace.TraceSpan`\\ s,
    :class:`~repro.obs.series.SeriesBatch`\\ es / points, and
    :class:`CalibrationEvent`\\ s — every kind is written to the
    ``--metrics-out`` JSONL in the versioned envelope
    (:mod:`repro.obs.envelope`); only snapshots render status lines.
    """

    def __init__(
        self,
        queue: Any,
        *,
        stream: Optional[IO[str]] = None,
        out_path: Union[str, Path, None] = None,
        min_render_interval_seconds: float = 0.5,
    ) -> None:
        self._queue = queue
        self._stream = stream
        self._writer = None if out_path is None else JsonlWriter(out_path)
        self._render_interval = min_render_interval_seconds
        self._last_render = float("-inf")
        self._latest: Dict[str, ProgressSnapshot] = {}
        self._final: Dict[str, ProgressSnapshot] = {}
        self._snapshots_seen = 0
        self._spans_seen = 0
        self._series_points_seen = 0
        self._span_overhead = 0.0
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Serializes file writes against close; once ``_out_closed`` is
        #: set under this lock, no further write can race the close.
        self._io_lock = threading.Lock()
        self._out_closed = False

    def start(self) -> "MetricsCollector":
        if self._writer is not None:
            self._writer.open()
        self._thread = threading.Thread(
            target=self._drain, name="metrics-collector", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain to empty, then close the output; never write afterwards."""
        self.drain()
        self.close()

    def drain(self) -> None:
        """Stop the drain thread and file every record still queued.

        The thread keeps consuming until the queue is empty *and* the
        stop flag is set.  If it fails to finish within the join timeout
        (a wedged manager queue), :meth:`close` still closes the file
        safely: ``_write_record`` and the close both hold ``_io_lock`` and
        writes check ``_out_closed`` first, so a straggling record is
        dropped instead of racing a closed file.
        """
        self._stopping.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None
        if thread is None or not thread.is_alive():
            # Thread exited (or never ran): anything still queued — e.g.
            # put between the thread's last Empty and our join — is ours
            # to drain inline before the file closes.
            self._drain(wait=False)

    def close(self, final: Any = None) -> None:
        """File ``final`` (if given) as the last record, then close the file."""
        if final is not None:
            self._handle(final)
        with self._io_lock:
            self._out_closed = True
            if self._writer is not None:
                self._writer.close()

    def _drain(self, wait: bool = True) -> None:
        """File queued records; with ``wait``, until stopped and empty."""
        while True:
            try:
                record = self._queue.get(timeout=0.1) if wait else self._queue.get_nowait()
            except queue_module.Empty:
                if not wait or self._stopping.is_set():
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - manager gone
                return
            self._handle(record)

    def _write_record(self, kind: str, payload: Mapping[str, Any]) -> None:
        with self._io_lock:
            if self._writer is not None and not self._out_closed:
                self._writer.write(wrap(kind, payload))

    def _handle(self, record: Any) -> None:
        if isinstance(record, ProgressSnapshot):
            self._snapshots_seen += 1
            self._latest[record.shard] = record
            if record.done:
                self._final[record.shard] = record
            self._write_record("snapshot", record.to_dict())
            if self._stream is not None:
                now = time.perf_counter()
                if record.done or now - self._last_render >= self._render_interval:
                    self._last_render = now
                    print(record.render_line(), file=self._stream, flush=True)
        elif isinstance(record, TraceSpan):
            self._spans_seen += 1
            self._span_overhead += float(
                record.tags.get("obs_overhead_seconds", 0.0) or 0.0
            )
            self._write_record("span", record.to_dict())
        elif isinstance(record, SeriesBatch):
            for point in record.points:
                self._series_points_seen += 1
                self._write_record("series", point.to_dict())
        elif isinstance(record, SeriesPoint):
            self._series_points_seen += 1
            self._write_record("series", record.to_dict())
        elif isinstance(record, CalibrationEvent):
            self._write_record("calibration", record.to_dict())
        # Unknown queue items are dropped: the collector must survive
        # whatever a mismatched worker version manages to enqueue.

    @property
    def span_overhead_seconds(self) -> float:
        """Observability overhead the collected spans self-reported.

        Worker-side tracers stamp ``obs_overhead_seconds`` on their shard
        root spans; the run's parent tracer folds this in before closing
        its own root, so the published ``obs_overhead_fraction`` covers
        every process of the run.
        """
        return self._span_overhead

    def summary(self) -> Dict[str, Any]:
        """Aggregate view over the final (or latest) per-shard snapshots.

        Wall-clock-free counters here are deterministic for a seeded
        spec; ``epochs_per_second`` (per shard and the cross-shard
        aggregate) and ``wall_seconds`` are the timing-derived fields.
        The aggregate divides total epochs by the *longest* shard wall —
        shards run concurrently, so that is the fleet's real throughput.
        """
        finals = {
            shard: self._final.get(shard, latest)
            for shard, latest in self._latest.items()
        }
        per_shard = {
            shard: {
                "backend": snap.backend,
                "epochs": snap.epochs_done,
                "completions": snap.completions,
                "epochs_per_second": snap.epochs_per_second,
                "fault_injections": snap.fault_injections,
                "meter_dropped": snap.meter_dropped,
                "meter_duplicated": snap.meter_duplicated,
                "done": snap.done,
            }
            for shard, snap in sorted(finals.items())
        }
        epochs = sum(s.epochs_done for s in finals.values())
        wall = max((s.wall_seconds for s in finals.values()), default=0.0)
        return {
            "snapshots": self._snapshots_seen,
            "spans": self._spans_seen,
            "series_points": self._series_points_seen,
            "shards": per_shard,
            "epochs": epochs,
            "wall_seconds": wall,
            "epochs_per_second": epochs / wall if wall > 0 else 0.0,
            "completions": sum(s.completions for s in finals.values()),
            "fault_injections": sum(s.fault_injections for s in finals.values()),
            "meter_dropped": sum(s.meter_dropped for s in finals.values()),
            "meter_duplicated": sum(s.meter_duplicated for s in finals.values()),
        }


class JsonlWriter:
    """Append-only JSONL stream, opened on the first write.

    The collector writes ``--metrics-out`` through it; ``stream
    --records-out`` writes billing records through it directly.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._file: Optional[IO[str]] = None

    def open(self) -> None:
        """Create the file now (idempotent), so a bad path fails early."""
        if self._file is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self._path.open("a", encoding="utf-8")

    def write(self, record: Mapping[str, Any]) -> None:
        self.open()
        self._file.write(json.dumps(dict(record), sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RunTelemetry:
    """One run's telemetry lifecycle: queue, collector, tracer, root span.

    ``with RunTelemetry("sweep", tags=..., out_path=...) as telemetry:``
    starts a :class:`MetricsCollector` on a fresh queue, a
    :class:`~repro.obs.trace.Tracer` whose sink is that queue, and the
    run's root span.  The work gets :attr:`queue`, :attr:`tracer` and
    :meth:`context`; whatever it puts on the queue reaches stderr and
    ``out_path`` through the collector.

    Leaving the block — by return or by any exception — closes in one
    order: drain the collector, fold in the overhead the worker spans
    reported, finish the root, file it as the file's last record and
    close the file, then shut the manager down.  :attr:`extras` then
    holds the run's ``BENCH_engine.json`` extras: ``obs_overhead_fraction``,
    plus the collector's ``metrics`` summary when ``progress`` is set
    (the run streams progress snapshots, rendered to stderr).

    ``processes`` backs the queue with a ``multiprocessing.Manager`` so
    workers in other processes can put on it.  A disabled telemetry
    hands out ``None`` for the queue, the tracer and the context and
    records nothing, so callers keep one code path.
    """

    def __init__(
        self,
        name: str,
        *,
        tags: Mapping[str, Any],
        out_path: Union[str, Path, None] = None,
        enabled: bool = True,
        progress: bool = False,
        processes: bool = False,
    ) -> None:
        self._name = name
        self._tags = dict(tags)
        self._out_path = out_path
        self._enabled = enabled
        self._progress = progress
        self._processes = processes
        self._manager: Any = None
        self._collector: Optional[MetricsCollector] = None
        self.queue: Any = None
        self.tracer: Optional[Tracer] = None
        self.root: Optional[TraceSpan] = None
        self.extras: Dict[str, Any] = {}

    def context(self) -> Optional[SpanContext]:
        """The root's handle for children, ``None`` when disabled."""
        return None if self.root is None else self.root.context()

    def __enter__(self) -> "RunTelemetry":
        if not self._enabled:
            return self
        if self._processes:
            import multiprocessing

            self._manager = multiprocessing.Manager()
        try:
            self.queue = queue_module.Queue() if self._manager is None else self._manager.Queue()
            self._collector = MetricsCollector(
                self.queue,
                stream=sys.stderr if self._progress else None,
                out_path=self._out_path,
            ).start()
        except BaseException:  # e.g. an unwritable --metrics-out: no stray manager
            if self._manager is not None:
                self._manager.shutdown()
            raise
        self.tracer = Tracer(sink=self.queue.put)
        self.root = self.tracer.start(self._name, tags=self._tags)
        return self

    def __exit__(self, *exc: object) -> None:
        collector = self._collector
        if collector is None:
            return
        try:
            collector.drain()
            self.tracer.add_overhead(collector.span_overhead_seconds)
            self.tracer.finish(self.root, root=True, emit=False)
            collector.close(final=self.root)
            if self._progress:
                self.extras["metrics"] = collector.summary()
            self.extras["obs_overhead_fraction"] = self.root.tags["obs_overhead_fraction"]
        finally:
            if self._manager is not None:
                self._manager.shutdown()
