"""The traced run: per-layer spans and counters, measured from outside.

:class:`LayerTrace` wraps the public entry point of each layer (the table
below) before the workload is set up, and restores nothing: the traced
run is a process of its own.  Coarse calls get a span from
``repro.obs.Tracer``; the hot calls (``ContentionModel.evaluate_tuples``,
about 48k per heavy run, and ``VectorEngine.run_epoch``) get a summed
timer and a call count instead.  Engine counters are the ones the engines
already keep (``fast_path_stats``, ``penalty_signature_cache``,
``VectorEngine.stats``), read before and after each call.

=====================  ==============================================
layer                  wrapped entry points
=====================  ==============================================
core.calibration       ``Calibrator.calibrate``
platform.engine        ``SimulationEngine.run_until``
hardware.contention    ``ContentionModel.evaluate_tuples`` (timer)
platform.oracle        ``SoloOracle.profile``
core.pricing           ``LitmusPricingEngine.quote``
diskcache              ``diskcache.store`` and ``diskcache.load``
platform.batch         ``FleetSweep.run``, ``VectorEngine.run_epoch`` (timer)
serve                  ``StreamPipeline.run``, ``StreamReplay.ingest`` and
                       ``drain``, ``save_checkpoint``, ``load_checkpoint``
scenarios              ``load_spec`` and ``compile_spec`` (set-up)
=====================  ==============================================

A span's self time is its duration minus its child spans and the timed
hot calls made directly inside it; the timed region's own span is the
``harness`` (the figure harness or the benchmark's drive code).  Every
wrapped call runs on the main thread; ``StreamPipeline``'s ingest and
publish threads only get the pipeline's own stage spans, which are
written to the trace but kept out of the self-time sums, since they
overlap the main thread.  Spans are kept in memory and written once, in
the v1 JSONL envelope, so ``python -m repro obs summarize`` and
``obs export-trace`` read the file.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Layers that take part in the self-time accounting, in report order.
LAYERS = (
    "core.calibration",
    "platform.engine",
    "hardware.contention",
    "platform.oracle",
    "core.pricing",
    "diskcache",
    "platform.batch",
    "serve",
    "harness",
)


class _Frame:
    """An open span on one thread, with the time its children took."""

    __slots__ = ("span", "layer", "children_seconds", "context")

    def __init__(self, span: Any, layer: str, context: str) -> None:
        self.span = span
        self.layer = layer
        self.children_seconds = 0.0
        self.context = context


class LayerTrace:
    """Installs the layer wrappers and collects what they measure."""

    def __init__(self, workload: str) -> None:
        from repro.obs import Tracer

        self.spans: List[Any] = []
        self.tracer = Tracer(sink=self.spans.append)
        self._local = threading.local()
        #: Self seconds per layer, from spans and hot timers.
        self.self_seconds: Dict[str, float] = defaultdict(float)
        #: Summed durations and counts, keyed by measurement name.
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: VectorEngine stats at first sight, per engine object.
        self._vector_start: Dict[int, tuple] = {}
        self._vector_engines: Dict[int, Any] = {}
        self.root = self.tracer.start(
            f"perfbench:{workload}", tags={"phase": "perfbench", "workload": workload}
        )
        self.op_span: Optional[Any] = None
        self._install()

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, context: str = "") -> _Frame:
        stack = self._stack()
        parent = stack[-1].span if stack else self.root
        if not context and stack:
            context = stack[-1].context
        span = self.tracer.start(
            name, parent=parent, tags={"phase": layer, "layer": layer}
        )
        frame = _Frame(span, layer, context)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        stack = self._stack()
        stack.pop()
        self.tracer.finish(frame.span)
        duration = frame.span.duration_seconds
        self_seconds = duration - frame.children_seconds
        frame.span.tags["self_seconds"] = self_seconds
        self.self_seconds[frame.layer] += self_seconds
        self.busy[frame.span.name + ".self"] += self_seconds
        if stack:
            stack[-1].children_seconds += duration
        return duration

    def _span_wrapper(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        key: str,
        *,
        context: str = "",
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a spanned call."""
        original = getattr(owner, attribute)
        trace = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = trace._open(key, layer, context)
            before = trace._engine_counters(args[0]) if layer == "platform.engine" else None
            try:
                result = original(*args, **kwargs)
            finally:
                duration = trace._close(frame)
                trace.busy[key] += duration
                trace.counts[key] += 1
            if before is not None:
                trace._engine_deltas(args[0], before, frame)
            if after is not None:
                after(frame, args, result)
            return result

        setattr(owner, attribute, wrapper)

    def _hot_wrapper(self, owner: Any, attribute: str, layer: str, key: str) -> None:
        """Replace ``owner.attribute`` with a summed timer (no span)."""
        original = getattr(owner, attribute)
        trace = self
        perf_counter = time.perf_counter
        vector = key == "batch.run_epoch"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if vector and id(args[0]) not in trace._vector_engines:
                trace._first_sight(args[0])
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                trace.busy[key] += elapsed
                trace.counts[key] += 1
                trace.self_seconds[layer] += elapsed
                stack = trace._stack()
                if stack:
                    stack[-1].children_seconds += elapsed

        setattr(owner, attribute, wrapper)

    # ------------------------------------------------------------------ #
    # Engine counters
    # ------------------------------------------------------------------ #
    @staticmethod
    def _engine_counters(engine: Any) -> tuple:
        stats = engine.fast_path_stats
        memo = engine.penalty_signature_cache
        return (
            stats.stepped_epochs,
            stats.span_epochs,
            stats.fixed_point_evaluations,
            stats.fixed_point_reuses,
            memo.hits,
            memo.misses,
        )

    def _engine_deltas(self, engine: Any, before: tuple, frame: _Frame) -> None:
        after = self._engine_counters(engine)
        names = ("stepped", "span_epochs", "fp_evaluations", "fp_reuses", "memo_hits", "memo_misses")
        context = frame.context or "corun"
        deltas = {name: a - b for name, a, b in zip(names, after, before)}
        frame.span.tags.update(deltas, context=context)
        for name, delta in deltas.items():
            self.counts[f"engine.{name}"] += delta
        epochs = deltas["stepped"] + deltas["span_epochs"]
        self.counts[f"engine.{context}.epochs"] += epochs
        self.counts[f"engine.{context}.runs"] += 1
        self.busy[f"engine.{context}"] += frame.span.duration_seconds

    def _first_sight(self, engine: Any) -> None:
        stats = engine.stats
        self._vector_engines[id(engine)] = engine
        self._vector_start[id(engine)] = (stats.advance_passes, stats.completions)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _install(self) -> None:
        import repro.scenarios as scenarios
        import repro.serve as serve
        import repro.serve.checkpoint as checkpoint
        import repro.serve.pipeline as pipeline
        from repro import diskcache
        from repro.core.calibration import Calibrator
        from repro.core.pricing import LitmusPricingEngine
        from repro.hardware.contention import ContentionModel
        from repro.platform.batch import FleetSweep, VectorEngine
        from repro.platform.engine import SimulationEngine
        from repro.platform.oracle import SoloOracle

        def stress_points(frame: _Frame, args: Any, result: Any) -> None:
            self.counts["calibration.stress_points"] += len(result.stress_levels) * len(
                result.generators
            )

        def bytes_written(frame: _Frame, args: Any, path: Any) -> None:
            if path is not None:
                size = os.path.getsize(path)
                frame.span.tags["bytes"] = size
                self.counts[frame.span.name + ".bytes"] += size

        def records(frame: _Frame, args: Any, result: Any) -> None:
            self.counts["serve.records"] += len(result.records)

        self._span_wrapper(
            Calibrator, "calibrate", "core.calibration", "calibration",
            context="calib", after=stress_points,
        )
        self._span_wrapper(SimulationEngine, "run_until", "platform.engine", "engine.run_until")
        self._hot_wrapper(ContentionModel, "evaluate_tuples", "hardware.contention", "contention")
        self._span_wrapper(SoloOracle, "profile", "platform.oracle", "oracle", context="solo")
        self._span_wrapper(LitmusPricingEngine, "quote", "core.pricing", "pricing")
        self._span_wrapper(diskcache, "store", "diskcache", "diskcache.store", after=bytes_written)
        self._span_wrapper(diskcache, "load", "diskcache", "diskcache.load")
        self._span_wrapper(FleetSweep, "run", "platform.batch", "batch.sweep")
        self._hot_wrapper(VectorEngine, "run_epoch", "platform.batch", "batch.run_epoch")
        self._span_wrapper(pipeline.StreamPipeline, "run", "serve", "serve.pipeline")
        self._span_wrapper(serve.StreamReplay, "ingest", "serve", "serve.ingest", after=records)
        self._span_wrapper(serve.StreamReplay, "drain", "serve", "serve.drain", after=records)
        self._span_wrapper(checkpoint, "save_checkpoint", "serve", "serve.checkpoint", after=bytes_written)
        # The pipeline and the package re-export the same functions.
        pipeline.save_checkpoint = checkpoint.save_checkpoint
        serve.save_checkpoint = checkpoint.save_checkpoint
        self._span_wrapper(checkpoint, "load_checkpoint", "serve", "serve.resume")
        serve.load_checkpoint = checkpoint.load_checkpoint
        self._span_wrapper(scenarios, "load_spec", "scenarios", "scenarios.load_spec")
        self._span_wrapper(scenarios, "compile_spec", "scenarios", "scenarios.compile_spec")

    def pipeline_tracing(self) -> Dict[str, Any]:
        """``StreamPipeline`` arguments that put its stage spans in the trace."""
        return {"tracer": self.tracer, "trace_parent": self.op_span}

    # ------------------------------------------------------------------ #
    # The timed region and the result
    # ------------------------------------------------------------------ #
    def run(self, op: Callable[[], Any]) -> Any:
        """Run the timed operation under the ``harness`` span."""
        frame = self._open("op", "harness")
        self.op_span = frame.span
        try:
            return op()
        finally:
            self._close(frame)

    def _wrapper_costs(self, calls: int = 2000) -> tuple:
        """Seconds a hot timer and a span add to one call, measured on a no-op.

        The no-op's spans and keys are removed again afterwards.
        """

        class NoOp:
            def call(self) -> None:
                return None

        hot = type("HotNoOp", (NoOp,), {})
        spanned = type("SpannedNoOp", (NoOp,), {})
        self._hot_wrapper(hot, "call", "noop", "noop.hot")
        self._span_wrapper(spanned, "call", "noop", "noop.span")
        spans_before = len(self.spans)

        def per_call(function: Callable[[], None]) -> float:
            start = time.perf_counter()
            for _ in range(calls):
                function()
            return (time.perf_counter() - start) / calls

        bare = per_call(NoOp().call)
        costs = (per_call(hot().call) - bare, per_call(spanned().call) - bare)
        del self.spans[spans_before:]
        for table in (self.busy, self.counts, self.self_seconds):
            for key in [key for key in table if key.startswith("noop")]:
                del table[key]
        return costs

    def finish(self, run_s: float, path: Path) -> Dict[str, Any]:
        """Close the root span, write the trace and return the raw numbers.

        ``overhead_s`` is tracing's own cost: the measured per-call cost of
        each wrapper kind times the number of wrapped calls and spans.
        """
        for key, engine in self._vector_engines.items():
            passes, completions = self._vector_start[key]
            self.counts["batch.advance_passes"] += engine.stats.advance_passes - passes
            self.counts["batch.completions"] += engine.stats.completions - completions
        hot_cost, span_cost = self._wrapper_costs()
        hot_calls = self.counts["contention"] + self.counts["batch.run_epoch"]
        self.tracer.finish(self.root, root=True)
        write_spans(self.spans, path)
        return {
            "run_s": run_s,
            "self_seconds": dict(self.self_seconds),
            "busy": dict(self.busy),
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "overhead_s": hot_calls * hot_cost + len(self.spans) * span_cost,
        }


def write_spans(spans: List[Any], path: Path) -> None:
    """Write spans as v1-envelope JSONL records (overwrites ``path``)."""
    from repro.obs import JsonlWriter, wrap

    path.unlink(missing_ok=True)
    with JsonlWriter(path) as writer:
        for span in spans:
            writer.write(wrap("span", span.to_dict()))


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def per_layer_metrics(
    raw: Dict[str, Any], setup_s: float, extras: Dict[str, float]
) -> Dict[str, float]:
    """The ``per_layer`` metrics of BENCHMARK.json from one traced run.

    Busy times are reported as shares of the traced ``run_s`` (the traced
    ``trace.run_s`` gives the seconds back), so a layer a workload never
    calls reads 0 rather than a constant time.  ``extras`` holds the run's
    chunk intervals (stream-billing only).
    """
    run_s = raw["run_s"]
    busy = defaultdict(float, raw["busy"])
    counts = defaultdict(float, raw["counts"])
    self_seconds = defaultdict(float, raw["self_seconds"])
    engine_all = busy["engine.run_until"]
    engine_epochs = counts["engine.stepped"] + counts["engine.span_epochs"]
    library = sum(self_seconds[layer] for layer in LAYERS if layer != "harness")
    epochs_vector = counts["batch.run_epoch"]
    fixed_point = counts["engine.fp_evaluations"] + counts["engine.fp_reuses"]
    memo = counts["engine.memo_hits"] + counts["engine.memo_misses"]
    metrics = {
        "trace.run_s": run_s,
        "obs.overhead_fraction": _share(raw["overhead_s"], run_s),
        "layers.self_sum_share": _share(library, run_s),
        "layers.top_self_share": _share(max(self_seconds[layer] for layer in LAYERS), run_s),
        "calibration.busy_share": _share(busy["calibration"], run_s),
        "calibration.stress_points": counts["calibration.stress_points"],
        "calibration.epochs": counts["engine.calib.epochs"],
        "engine.corun_busy_share": _share(busy["engine.corun"], run_s),
        "engine.corun_us_per_epoch": 1e6 * _share(busy["engine.corun"], counts["engine.corun.epochs"]),
        "engine.calib_us_per_epoch": 1e6 * _share(busy["engine.calib"], counts["engine.calib.epochs"]),
        "engine.span_epoch_share": _share(counts["engine.span_epochs"], engine_epochs),
        "engine.fixed_point_reuse_share": _share(counts["engine.fp_reuses"], fixed_point),
        "engine.memo_hit_rate": _share(counts["engine.memo_hits"], memo),
        "contention.busy_share": _share(busy["contention"], run_s),
        "contention.calls": counts["contention"],
        "contention.share_of_engine": _share(busy["contention"], engine_all),
        "oracle.busy_share": _share(busy["oracle"], run_s),
        "oracle.profiles": counts["engine.solo.runs"],
        "pricing.busy_share": _share(busy["pricing"], run_s),
        "pricing.quotes": counts["pricing"],
        "diskcache.busy_share": _share(busy["diskcache.store"] + busy["diskcache.load"], run_s),
        "diskcache.bytes_written": counts["diskcache.store.bytes"],
        "batch.ms_per_epoch": 1e3 * _share(busy["batch.run_epoch"], epochs_vector),
        "batch.run_epoch_share": _share(busy["batch.run_epoch"], run_s),
        "batch.advance_passes_per_epoch": _share(counts["batch.advance_passes"], epochs_vector),
        "batch.completions": counts["batch.completions"],
        "serve.ingest_share": _share(busy["serve.ingest"] + busy["serve.drain"], run_s),
        "serve.records": counts["serve.records"],
        "serve.checkpoint_share": _share(busy["serve.checkpoint"], run_s),
        "serve.checkpoint_bytes": counts["serve.checkpoint.bytes"],
        "serve.resume_share": _share(busy["serve.resume"], run_s),
        "serve.queue_wait_share": _share(busy["serve.pipeline.self"], run_s),
        "serve.chunk_ms_p50": extras.get("chunk_ms_p50", 0.0),
        "serve.chunk_ms_p98": extras.get("chunk_ms_p98", 0.0),
        "scenarios.setup_share": _share(
            busy["scenarios.load_spec"] + busy["scenarios.compile_spec"], setup_s
        ),
    }
    return metrics
