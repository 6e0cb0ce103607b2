"""Run observability: snapshots, per-epoch series, span tracing, analysis.

The package splits along the run lifecycle:

* :mod:`repro.obs.metrics` — live side: snapshot/emitter/collector, and
  ``RunTelemetry``, the one lifecycle every instrumented command uses.
* :mod:`repro.obs.trace` — span tracing (``Tracer``/``TraceSpan``).
* :mod:`repro.obs.series` — bounded per-epoch time series.
* :mod:`repro.obs.envelope` — the versioned JSONL record envelope.
* :mod:`repro.obs.analyze` — offline ``obs summarize|tail|export-trace``.

See docs/observability.md for the cookbook.
"""

from repro.obs.envelope import (
    ENVELOPE_VERSION,
    EnvelopeWarning,
    read_records,
    unwrap,
    wrap,
)
from repro.obs.metrics import (
    CalibrationEvent,
    JsonlWriter,
    MetricsCollector,
    MetricsEmitter,
    ProgressSnapshot,
    RunTelemetry,
)
from repro.obs.series import SeriesBatch, SeriesBuffer, SeriesPoint
from repro.obs.trace import SpanContext, Tracer, TraceSpan

__all__ = [
    "ENVELOPE_VERSION",
    "CalibrationEvent",
    "EnvelopeWarning",
    "JsonlWriter",
    "MetricsCollector",
    "MetricsEmitter",
    "ProgressSnapshot",
    "RunTelemetry",
    "SeriesBatch",
    "SeriesBuffer",
    "SeriesPoint",
    "SpanContext",
    "TraceSpan",
    "Tracer",
    "read_records",
    "unwrap",
    "wrap",
]
