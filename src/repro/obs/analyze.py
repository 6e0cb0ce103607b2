"""Offline analysis of obs JSONL files: summarize, tail, export-trace.

The back half of the observability loop.  A run writes one enveloped
JSONL (``--metrics-out``, see :mod:`repro.obs.envelope`); this module
turns that file into answers:

* :func:`summarize` — per-phase wall-clock breakdown, top-N slowest
  spans, snapshot/series/calibration aggregates.
* :func:`tail_records` — follow a growing file, rendering each record
  as the one-liner its emitter would have printed live.
* :func:`export_chrome_trace` — Chrome trace-event JSON (the
  ``chrome://tracing`` / Perfetto format): spans become ``ph:"X"``
  duration events on per-phase tracks, series points become ``ph:"C"``
  counter tracks.

Everything here tolerates partial files by construction: unknown kinds
and future schema versions are skipped with a warning by the envelope
reader, so ``obs summarize`` degrades instead of crashing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.envelope import read_records
from repro.obs.metrics import CalibrationEvent, ProgressSnapshot
from repro.obs.series import SeriesPoint
from repro.obs.trace import TraceSpan

__all__ = [
    "ObsLog",
    "load_log",
    "summarize",
    "format_summary",
    "tail_records",
    "render_record",
    "export_chrome_trace",
]


@dataclass
class ObsLog:
    """Every readable record of one obs JSONL file, typed and grouped."""

    snapshots: List[ProgressSnapshot] = field(default_factory=list)
    series: List[SeriesPoint] = field(default_factory=list)
    spans: List[TraceSpan] = field(default_factory=list)
    calibrations: List[CalibrationEvent] = field(default_factory=list)

    @property
    def record_count(self) -> int:
        return (
            len(self.snapshots)
            + len(self.series)
            + len(self.spans)
            + len(self.calibrations)
        )


def load_log(path: Path) -> ObsLog:
    """Read and type every record of an obs JSONL file (skips unknowns)."""
    from repro.obs.envelope import decode

    log = ObsLog()
    for kind, payload in read_records(Path(path)):
        try:
            record = decode(kind, payload)
        except (KeyError, TypeError, ValueError):
            continue  # malformed payload of a known kind: skip, keep reading
        if kind == "snapshot":
            log.snapshots.append(record)
        elif kind == "series":
            log.series.append(record)
        elif kind == "span":
            log.spans.append(record)
        elif kind == "calibration":
            log.calibrations.append(record)
    return log


def _span_phase(span: TraceSpan) -> str:
    phase = span.tags.get("phase")
    return str(phase) if phase else span.name


def summarize(path: Path, *, top: int = 10) -> Dict[str, Any]:
    """Aggregate an obs JSONL into the dict ``obs summarize`` prints.

    The per-phase breakdown sums span durations grouped by their
    ``phase`` tag (falling back to the span name), so a sharded sweep
    reads as ``sweep`` / ``shard`` / ``merge`` rows; ``top_spans`` lists
    the N slowest individual spans — the critical-path suspects.
    """
    log = load_log(path)

    phases: Dict[str, Dict[str, Any]] = {}
    roots: List[TraceSpan] = []
    for span in log.spans:
        bucket = phases.setdefault(
            _span_phase(span), {"spans": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        bucket["spans"] += 1
        bucket["total_seconds"] += span.duration_seconds
        bucket["max_seconds"] = max(bucket["max_seconds"], span.duration_seconds)
        if not span.parent_id:
            roots.append(span)

    top_spans = sorted(
        log.spans, key=lambda s: s.duration_seconds, reverse=True
    )[: max(top, 0)]

    finals: Dict[str, ProgressSnapshot] = {}
    for snap in log.snapshots:
        if snap.done or snap.shard not in finals:
            finals[snap.shard] = snap
    epochs = sum(s.epochs_done for s in finals.values())
    wall = max((s.wall_seconds for s in finals.values()), default=0.0)

    overhead = {
        "obs_overhead_seconds": sum(
            float(r.tags.get("obs_overhead_seconds", 0.0) or 0.0) for r in roots
        ),
        "obs_overhead_fraction": max(
            (
                float(r.tags.get("obs_overhead_fraction", 0.0) or 0.0)
                for r in roots
            ),
            default=0.0,
        ),
    }

    faulted = [p for p in log.series if p.fault_injections > 0]
    series_summary: Dict[str, Any] = {
        "points": len(log.series),
        "shards": sorted({p.shard for p in log.series}),
        "faulted_points": len(faulted),
    }
    if log.series:
        series_summary["epoch_range"] = [
            min(p.epoch for p in log.series),
            max(p.epoch for p in log.series),
        ]

    return {
        "records": log.record_count,
        "snapshots": len(log.snapshots),
        "calibration_events": len(log.calibrations),
        "shards": sorted(finals),
        "epochs": epochs,
        "wall_seconds": wall,
        "epochs_per_second": epochs / wall if wall > 0 else 0.0,
        "completions": sum(s.completions for s in finals.values()),
        "fault_injections": sum(s.fault_injections for s in finals.values()),
        "spans": len(log.spans),
        "trace_ids": sorted({s.trace_id for s in log.spans}),
        "phases": dict(sorted(phases.items())),
        "top_spans": [
            {
                "name": s.name,
                "duration_seconds": s.duration_seconds,
                "phase": _span_phase(s),
                "span_id": s.span_id,
            }
            for s in top_spans
        ],
        "series": series_summary,
        **overhead,
    }


def format_summary(summary: Mapping[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize`'s dict."""
    lines: List[str] = []
    lines.append(
        f"records: {summary['records']} "
        f"({summary['snapshots']} snapshots, {summary['spans']} spans, "
        f"{summary['series']['points']} series points, "
        f"{summary['calibration_events']} calibration events)"
    )
    if summary["shards"]:
        lines.append(
            f"run: {summary['epochs']:,} epochs over shards "
            f"{', '.join(summary['shards'])} in {summary['wall_seconds']:.2f}s "
            f"({summary['epochs_per_second']:,.0f} epochs/s), "
            f"{summary['completions']} completions, "
            f"{summary['fault_injections']} faults injected"
        )
    if summary["phases"]:
        lines.append("phase breakdown (wall-clock, summed across spans):")
        width = max(len(name) for name in summary["phases"])
        for name, bucket in summary["phases"].items():
            lines.append(
                f"  {name:<{width}}  {bucket['total_seconds']:9.3f}s total  "
                f"{bucket['max_seconds']:9.3f}s max  x{bucket['spans']}"
            )
    if summary["top_spans"]:
        lines.append(f"slowest spans (top {len(summary['top_spans'])}):")
        for entry in summary["top_spans"]:
            lines.append(
                f"  {entry['duration_seconds']:9.3f}s  {entry['name']}"
                f"  [{entry['phase']}]"
            )
    if summary["spans"]:
        lines.append(
            f"observability overhead: {summary['obs_overhead_seconds']:.4f}s "
            f"({100.0 * summary['obs_overhead_fraction']:.2f}% of root span)"
        )
    series = summary["series"]
    if series["points"]:
        low, high = series["epoch_range"]
        lines.append(
            f"series: {series['points']} points over epochs {low}..{high}, "
            f"{series['faulted_points']} in faulted windows"
        )
    return "\n".join(lines)


def render_record(kind: str, payload: Mapping[str, Any]) -> str:
    """One tail line per record, echoing what the live run printed."""
    from repro.obs.envelope import decode

    try:
        record = decode(kind, payload)
    except (KeyError, TypeError, ValueError):
        return f"[{kind}] {json.dumps(dict(payload), sort_keys=True)}"
    if kind == "snapshot":
        return record.render_line()
    if kind == "calibration":
        return record.render_line()
    if kind == "span":
        return (
            f"[span] {record.name} {record.duration_seconds * 1e3:.1f}ms"
            f" [{_span_phase(record)}]"
        )
    point = record  # series
    line = (
        f"[series] shard {point.shard} epoch {point.epoch}: "
        f"{point.completions} completed, "
        f"stall {100.0 * point.shared_stall_fraction:.1f}%"
    )
    if point.fault_injections or point.meter_dropped:
        line += (
            f", faults {point.fault_injections}, meter -{point.meter_dropped}"
        )
    return line


#: How long :func:`tail_records` waits before it looks for appended lines.
_POLL_SECONDS = 0.2


def tail_records(
    path: Path,
    *,
    follow: bool = True,
    max_seconds: Optional[float] = None,
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield ``(kind, payload)`` as records land in a growing JSONL.

    Starts at the beginning of the file, then (with ``follow``) polls for
    appended lines until ``max_seconds`` elapses or the caller stops
    consuming.  ``follow=False`` yields what exists and returns —
    the testable mode.
    """
    from repro.obs.envelope import unwrap

    deadline = (
        None if max_seconds is None else time.perf_counter() + max_seconds
    )
    position = 0
    buffer = ""
    while True:
        target = Path(path)
        if target.exists():
            with target.open("r", encoding="utf-8") as handle:
                handle.seek(position)
                chunk = handle.read()
                position = handle.tell()
            buffer += chunk
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                unwrapped = unwrap(record)
                if unwrapped is not None:
                    yield unwrapped
        if not follow:
            return
        if deadline is not None and time.perf_counter() >= deadline:
            return
        time.sleep(_POLL_SECONDS)


def export_chrome_trace(path: Path, out_path: Path) -> Dict[str, Any]:
    """Write a Chrome trace-event JSON viewable in Perfetto.

    Spans become ``ph:"X"`` complete events — ``ts``/``dur`` in
    microseconds of wall-clock — grouped onto one ``tid`` track per
    phase so the sweep/shard/ingest lanes stack visually.  Per-epoch
    series become ``ph:"C"`` counter tracks (completions, stall
    fraction, faults) keyed by shard.  Returns the trace dict it wrote
    (``traceEvents`` list), so callers can assert on the export.
    """
    log = load_log(Path(path))
    events: List[Dict[str, Any]] = []
    pid = 1
    events.append(
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro run"},
        }
    )

    tids: Dict[str, int] = {}

    def tid_for(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[track],
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tids[track]

    # Spans carry absolute unix starts; series points carry run-relative
    # seconds.  Rebase spans onto the earliest span start so both record
    # types land on one comparable timeline beginning near ts=0.
    base = min((s.start_unix_seconds for s in log.spans), default=0.0)

    for span in log.spans:
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid_for(_span_phase(span)),
                "name": span.name,
                "ts": (span.start_unix_seconds - base) * 1e6,
                "dur": max(span.duration_seconds, 1e-6) * 1e6,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.tags,
                },
            }
        )

    for point in log.series:
        ts = point.time_seconds * 1e6
        track = f"series shard {point.shard}"
        events.append(
            {
                "ph": "C",
                "pid": pid,
                "tid": tid_for(track),
                "name": f"shard {point.shard} counters",
                "ts": ts,
                "args": {
                    "completions": point.completions,
                    "shared_stall_pct": 100.0 * point.shared_stall_fraction,
                    "fault_injections": point.fault_injections,
                    "meter_dropped": point.meter_dropped,
                },
            }
        )

    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trace, sort_keys=True), encoding="utf-8")
    return trace
