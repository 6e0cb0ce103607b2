"""Sharded multi-process execution of fleet-scenario grids.

A :class:`repro.platform.batch.FleetSweep` advances its whole grid inside
one process.  That is the fastest shape for a single NumPy-vectorized fleet,
but a *grid* of scenarios is embarrassingly parallel across scenarios: every
machine's churn stream is seeded by the scenario's own seed plus the
machine's index within its scenario, so no scenario's numbers depend on
which other scenarios share the engine.  :func:`run_sharded` exploits that —
it takes a :class:`FleetSweep`, partitions its grid into shards, runs the
sweep narrowed to each shard's scenarios (:meth:`FleetSweep.narrowed`:
same machine, horizon, epoch, registry, scale and metering) as one fleet
(one ``VectorEngine`` or one scalar loop) per shard on a
:class:`~concurrent.futures.ProcessPoolExecutor`, and merges the per-shard
results back into the original scenario order.

Guarantees:

* **Determinism** — partitioning is a pure function of the scenario list
  and the shard count (greedy largest-fleet-first into the least-loaded
  shard), and per-machine seeds never depend on shard membership.
* **Merge identity** — each scenario's ``completed``/``submitted`` counts
  and hardware counters are bit-exact against the same scenario in a
  single-process :meth:`FleetSweep.run` (asserted by
  ``tests/test_pf_shard_executor.py``); only wall-clock fields differ.
* **Inline fallback** — one effective shard runs its job in-process,
  without a pool, so ``--shards 1`` *is* the single-process run.

The CLI (``python -m repro sweep --spec … --shards N``) records the
per-shard and aggregate wall-clock of every sharded run in
``BENCH_engine.json``; see :mod:`repro.benchlog`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.hardware.topology import CASCADE_LAKE_5218, MachineSpec
from repro.obs.metrics import MetricsEmitter
from repro.obs.trace import SpanContext, Tracer
from repro.platform.batch.sweep import (
    FleetScenario,
    FleetSweep,
    FleetSweepResult,
    ProgressCallback,
    ScenarioResult,
)


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock and contents of one shard of a sharded sweep."""

    shard: int
    scenario_names: Tuple[str, ...]
    fleet_size: int
    wall_seconds: float


@dataclass(frozen=True)
class ShardedSweepResult:
    """A merged sharded run: the combined result plus per-shard timings.

    ``result`` holds the scenario results in the original grid order with
    ``wall_seconds`` set to the *aggregate* wall-clock of the whole sharded
    run (pool setup and merge included), which is the number comparable to a
    single-process :meth:`FleetSweep.run`.  ``shard_timings`` break the same
    run down per worker.
    """

    result: FleetSweepResult
    shard_timings: Tuple[ShardTiming, ...]

    @property
    def shards(self) -> int:
        return len(self.shard_timings)

    @property
    def wall_seconds(self) -> float:
        return self.result.wall_seconds

    @property
    def completed(self) -> int:
        return self.result.completed

    def render(self) -> str:
        """The underlying sweep table plus one timing line per shard."""
        lines = [self.result.render()]
        if self.shards > 1:
            for timing in self.shard_timings:
                lines.append(
                    f"  shard {timing.shard}: {len(timing.scenario_names)} "
                    f"scenario(s), fleet {timing.fleet_size}, "
                    f"{timing.wall_seconds:.2f}s"
                )
        return "\n".join(lines)


def partition_scenarios(
    scenarios: Sequence[FleetScenario],
    shards: int,
    *,
    machine: MachineSpec = CASCADE_LAKE_5218,
) -> List[List[int]]:
    """Deterministically partition scenario indices into balanced shards.

    Greedy longest-processing-time heuristic: scenarios are considered
    largest fleet first (ties broken by grid position) and each goes to the
    currently least-loaded shard (ties broken by shard index).  Empty shards
    are dropped, so asking for more shards than scenarios just yields one
    scenario per shard.  Pure function of its inputs — the same grid and
    shard count always produce the same partition.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if not scenarios:
        raise ValueError("at least one scenario is required")
    shards = min(shards, len(scenarios))
    order = sorted(
        range(len(scenarios)),
        key=lambda i: (-scenarios[i].fleet_size(machine), i),
    )
    loads = [0] * shards
    parts: List[List[int]] = [[] for _ in range(shards)]
    for index in order:
        target = min(range(shards), key=lambda s: (loads[s], s))
        parts[target].append(index)
        loads[target] += scenarios[index].fleet_size(machine)
    # Keep each shard's scenarios in grid order; drop impossible empties.
    return [sorted(part) for part in parts if part]


@dataclass(frozen=True)
class _ShardJob:
    """Everything one worker process needs to simulate its shard."""

    shard: int
    #: The sweep narrowed to this shard's scenarios (picklable: frozen
    #: specs, the scaled registry and plain settings).
    sweep: FleetSweep
    backend: str
    #: Manager queue proxy for live metrics; None disables emission.
    metrics_queue: Optional[Any] = None
    metrics_interval: float = 0.5
    metrics_label: str = ""
    #: Parent trace handle; workers open their shard span under it and
    #: push finished spans onto ``metrics_queue`` (see repro.obs.trace).
    trace: Optional[SpanContext] = None
    #: Per-epoch series point budget; None disables series sampling.
    series_budget: Optional[int] = None


def _shard_progress(job: _ShardJob) -> Optional[ProgressCallback]:
    if job.metrics_queue is None:
        return None
    return MetricsEmitter(
        job.metrics_queue,
        shard=job.shard,
        label=job.metrics_label,
        min_interval_seconds=job.metrics_interval,
        series_budget=job.series_budget,
    )


def _run_shard(job: _ShardJob) -> Tuple[int, FleetSweepResult]:
    """Worker entry point: one fleet per shard (module-level: picklable).

    With a trace context attached, the worker builds its own tracer on
    the inherited trace ID, wraps the whole shard in one span parented on
    the parent's sweep span, and ships it back over the metrics queue —
    so the parent's collector files every process into one span tree.
    The shard span is closed ``root=True``: it carries this worker's
    ``obs_overhead_seconds``, which the parent folds into the run root.
    """
    tracer = None
    span = None
    if job.trace is not None and job.metrics_queue is not None:
        queue = job.metrics_queue
        tracer = Tracer(trace_id=job.trace.trace_id, sink=queue.put)
        span = tracer.start(
            f"shard-{job.metrics_label}{job.shard}",
            parent=job.trace,
            tags={
                "phase": "shard",
                "shard": job.shard,
                "scenarios": len(job.sweep.scenarios),
                "backend": job.backend,
            },
        )
    try:
        result = job.sweep.run(job.backend, progress=_shard_progress(job))
    finally:
        if tracer is not None and span is not None:
            tracer.finish(span, root=True)
    return job.shard, result


def run_sharded(
    sweep: FleetSweep,
    *,
    shards: int = 1,
    backend: str = "vector",
    metrics_queue: Optional[Any] = None,
    metrics_interval: float = 0.5,
    metrics_label: str = "",
    trace: Optional[SpanContext] = None,
    series_budget: Optional[int] = None,
) -> ShardedSweepResult:
    """Run a sweep's grid partitioned across worker processes.

    The grid is split with :func:`partition_scenarios`; each shard runs
    ``sweep`` :meth:`~FleetSweep.narrowed` to its scenarios in its own
    process, with the sweep's machine, horizon, epoch, registry, scale and
    metering (``backend`` selects the vector or scalar engine inside every
    shard).  Results come back merged into the original scenario order,
    identical to ``sweep.run(backend)``.

    The pool has one worker process per shard, capped at the CPU count; a
    capped pool only queues shards, it cannot change any result.

    ``metrics_queue`` — typically a ``multiprocessing.Manager().Queue()``
    proxy, which pickles into workers — turns on live progress snapshots:
    each shard emits :class:`~repro.obs.metrics.ProgressSnapshot` objects at
    most every ``metrics_interval`` seconds, tagged ``metrics_label + shard``
    (see :mod:`repro.obs`).  Metrics are read-only and cannot change any
    simulated number.

    ``trace`` — a picklable :class:`~repro.obs.trace.SpanContext` — makes
    every shard worker emit one ``phase=shard`` span (over the metrics
    queue) parented on the caller's span, so a sharded run still yields a
    single coherent trace tree.  ``series_budget`` turns on per-epoch
    :class:`~repro.obs.series.SeriesPoint` sampling inside each shard,
    ring-buffered to that many points.  Both are observability-only.
    """
    start = time.perf_counter()
    scenarios = sweep.scenarios
    parts = partition_scenarios(scenarios, shards, machine=sweep.machine_spec)
    jobs = [
        _ShardJob(
            shard=shard,
            sweep=sweep.narrowed(part),
            backend=backend,
            metrics_queue=metrics_queue,
            metrics_interval=metrics_interval,
            metrics_label=metrics_label,
            trace=trace,
            series_budget=series_budget,
        )
        for shard, part in enumerate(parts)
    ]
    if len(jobs) == 1:
        # One shard is the single-process run: no pool, same span.
        outcomes = [_run_shard(jobs[0])]
    else:
        workers = min(len(jobs), os.cpu_count() or len(jobs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # ``map`` yields in job order, so outcome i is shard i's.
            outcomes = list(pool.map(_run_shard, jobs))

    by_index: List[Optional[ScenarioResult]] = [None] * len(scenarios)
    timings: List[ShardTiming] = []
    for (shard, result), part in zip(outcomes, parts):
        for index, scenario_result in zip(part, result.scenarios):
            by_index[index] = scenario_result
        timings.append(
            ShardTiming(
                shard=shard,
                scenario_names=tuple(s.name for s in result.scenarios),
                fleet_size=result.fleet_size,
                wall_seconds=result.wall_seconds,
            )
        )
    merged = FleetSweepResult(
        backend=backend,
        scenarios=tuple(r for r in by_index if r is not None),
        wall_seconds=time.perf_counter() - start,
        horizon_seconds=sweep.horizon_seconds,
    )
    return ShardedSweepResult(result=merged, shard_timings=tuple(timings))
