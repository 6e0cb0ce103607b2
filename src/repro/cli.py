"""Command-line interface: regenerate paper figures and inspect the registry.

Usage examples::

    python -m repro list                     # every available figure/table
    python -m repro run fig11                # regenerate Figure 11 and print it
    python -m repro run fig16 --output results/fig16.txt
    python -m repro run --figures all --jobs 4      # full parallel sweep
    python -m repro run --figures all --check       # staleness check vs results/
    python -m repro run --figures fig02 --profile   # cProfile top-20 per figure
    python -m repro registry                 # dump the Table-1 workload registry
    python -m repro sweep --machines 4 --colocation 10   # vectorized fleet sweep
    python -m repro sweep --compare          # vector vs scalar fast-path speedup
    python -m repro sweep --spec smoke --shards 2        # declarative spec, sharded
    python -m repro sweep --spec studies/big.toml --shards 8
    python -m repro sweep --spec chaos-smoke --shards 2 --metrics   # fault axis + live metrics
    python -m repro stream --spec smoke --verify         # streaming replay, batch-checked
    python -m repro stream --spec smoke --checkpoint-dir .ckpt --max-chunks 2
    python -m repro stream --spec smoke --checkpoint-dir .ckpt      # ...resumes

Single-figure runs print the regenerated rows; sweep runs (``--figures``)
write every figure to the results directory, append per-figure wall-clock to
the ``BENCH_engine.json`` trajectory, and — with ``--check`` — fail with a
diff when the regenerated text does not match the committed results.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, NoReturn, Optional, Sequence

from repro import benchlog
from repro._version import __version__
from repro.experiments.runner import (
    FIGURE_MODULES,
    FigureRun,
    resolve_figure_names,
    resolve_runner,
    run_figures,
)
from repro.obs import JsonlWriter, MetricsEmitter, RunTelemetry, SeriesPoint


def _command_list(_: argparse.Namespace) -> int:
    width = max(len(name) for name in FIGURE_MODULES)
    for name, target in sorted(FIGURE_MODULES.items()):
        print(f"{name.ljust(width)}  {target}")
    return 0


def _run_single(args: argparse.Namespace) -> int:
    name = args.figure
    if name not in FIGURE_MODULES:
        known = ", ".join(sorted(FIGURE_MODULES))
        print(f"unknown figure {name!r}; known figures: {known}", file=sys.stderr)
        return 2
    runner = resolve_runner(name)
    result = runner()
    rendered = result.render()
    print(rendered)
    if args.output is not None:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(rendered + "\n", encoding="utf-8")
        print(f"\n[written to {output}]")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    try:
        names = resolve_figure_names(args.figures)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    results_dir = Path(args.results_dir)

    def progress(run: FigureRun) -> None:
        print(f"  {run.name}: {run.seconds:.1f}s", flush=True)
        if run.profile_text:
            print(f"--- cProfile top 20 [{run.name}] ---")
            print(run.profile_text, flush=True)

    report = run_figures(
        names,
        jobs=args.jobs,
        results_dir=results_dir,
        check=args.check,
        bench_path=Path(args.bench_json) if args.bench_json else None,
        progress=progress,
        profile=args.profile,
        metrics_path=Path(args.metrics_out) if args.metrics_out else None,
    )
    total_cpu = sum(run.seconds for run in report.runs)
    print(
        f"{len(report.runs)} figure(s), jobs={report.jobs}: "
        f"{report.wall_seconds:.1f}s wall, {total_cpu:.1f}s figure time"
    )
    print(f"[trajectory appended to {report.bench_path}]")
    if args.check:
        if report.mismatches:
            for run in report.mismatches:
                print(f"\nSTALE: results/{run.name}.txt", file=sys.stderr)
                if run.diff:
                    sys.stderr.write(run.diff)
            print(
                f"\n{len(report.mismatches)} stale figure(s); regenerate with "
                f"`python -m repro run --figures all` and commit the results.",
                file=sys.stderr,
            )
            return 1
        print("all regenerated figures match the committed results")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.figure is not None and args.figures is not None:
        print("pass either a figure name or --figures, not both", file=sys.stderr)
        return 2
    if args.figure is not None:
        # Sweep-only flags are meaningful only with --figures; silently
        # dropping them would fake e.g. a passing --check.
        ignored = [
            flag
            for flag, value in (
                ("--check", args.check),
                ("--jobs", args.jobs != 1),
                ("--results-dir", args.results_dir != "results"),
                ("--bench-json", args.bench_json is not None),
                ("--profile", args.profile),
                ("--metrics-out", args.metrics_out is not None),
            )
            if value
        ]
        if ignored:
            print(
                f"{', '.join(ignored)} only valid in sweep mode; "
                f"use --figures {args.figure}",
                file=sys.stderr,
            )
            return 2
        return _run_single(args)
    if args.figures is None:
        print("nothing to run: pass a figure name or --figures all", file=sys.stderr)
        return 2
    if args.output is not None:
        print(
            "--output only applies to single-figure mode; sweeps write to "
            "--results-dir",
            file=sys.stderr,
        )
        return 2
    return _run_sweep(args)


#: Grid and engine flags, each with the ScenarioSpec field it sets.  They
#: default to None, so "passed" is "not None": without --spec the passed
#: flags become an in-memory spec (every other field keeps the
#: ScenarioSpec default); with --spec any of them is a conflict.
_GRID_FLAGS = (
    ("--mixes", "mixes"),
    ("--machines", "machines"),
    ("--colocation", "colocations"),
    ("--cores", "cores_per_machine"),
    ("--horizon", "horizon_seconds"),
    ("--epoch-seconds", "epoch_seconds"),
    ("--registry-scale", "registry_scale"),
    ("--seed", "seed"),
)


def _append_bench(
    args: argparse.Namespace,
    figures: Mapping[str, float],
    source: str,
    extra: Dict[str, Any],
) -> None:
    """Append the run's record to the BENCH trajectory unless ``--no-bench``."""
    if args.no_bench:
        return
    path = Path(args.bench_json or benchlog.default_path(Path("results")))
    written = benchlog.append_run(figures, source=source, path=path, extra=extra)
    print(f"[trajectory appended to {written}]")


def _shard_seconds(run) -> list:
    return [round(timing.wall_seconds, 4) for timing in run.shard_timings]


def _report_sweep(runs: Sequence[Any], *, compare: bool, faulted: bool):
    """Print a sweep's passes; return its BENCH figures and extras.

    ``runs`` are the passes in order: ``[baseline, faulted]`` for a
    faulted spec, ``[vector, scalar]`` with ``--compare``, else one run.
    """
    from repro.scenarios import DegradationReport

    # The faulted pass, or --compare's vector pass, is the one reported.
    reported = runs[0] if compare else runs[-1]
    print(reported.render())
    figures = {
        f"fleet-sweep-{run.result.backend}": run.wall_seconds
        for run in (runs if compare else [reported])
    }
    extra: Dict[str, Any] = {
        "backend": "compare" if compare else reported.result.backend,
        "completed": reported.completed,
        "shards": reported.shards,
        "shard_seconds": _shard_seconds(reported),
    }
    done = f"{reported.completed} invocations completed in {reported.wall_seconds:.2f}s wall"
    where = f"[{reported.result.backend}, {reported.shards} shard(s)]"
    if faulted:
        baseline = runs[0]
        report = DegradationReport.build(baseline.result, reported.result)
        print(report.render())
        print(f"{done} (+{baseline.wall_seconds:.2f}s baseline) {where}")
        extra.update(
            baseline_completed=baseline.completed,
            baseline_wall_seconds=round(baseline.wall_seconds, 4),
            fault_report=report.to_dict(),
        )
    elif compare:
        scalar = runs[1]
        speedup = scalar.wall_seconds / max(reported.wall_seconds, 1e-9)
        print(scalar.render())
        print(
            f"vector {reported.wall_seconds:.2f}s vs scalar fast-path "
            f"{scalar.wall_seconds:.2f}s -> {speedup:.1f}x speedup "
            f"[{reported.shards} shard(s)]"
        )
        extra.update(
            speedup=round(speedup, 2),
            scalar_completed=scalar.completed,
            scalar_shard_seconds=_shard_seconds(scalar),
        )
    else:
        print(f"{done} {where}")
    return figures, extra


def _command_sweep(args: argparse.Namespace) -> int:
    from concurrent.futures.process import BrokenProcessPool

    from repro.platform.batch import run_sharded
    from repro.scenarios import (
        ScenarioSpec,
        SpecError,
        compile_spec,
        load_spec_or_preset,
    )

    passed = {
        field: getattr(args, field)
        for _, field in _GRID_FLAGS
        if getattr(args, field) is not None
    }
    if args.spec is not None and passed:
        conflicts = [flag for flag, field in _GRID_FLAGS if field in passed]
        print(
            f"{', '.join(conflicts)} conflict with --spec: the spec file "
            f"defines the grid and engine settings (see docs/scenarios.md)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.spec is None:
            spec = ScenarioSpec(name="sweep", **passed)
        else:
            spec = load_spec_or_preset(args.spec)
        compiled = compile_spec(spec)
    except SpecError as error:
        print(error, file=sys.stderr)
        return 2
    backend = args.backend or spec.backend
    shards = spec.shards if args.shards is None else args.shards
    # The spec's name is shown and recorded only when it came from a file.
    spec_tag = {} if args.spec is None else {"spec": spec.name}

    has_faults = compiled.has_faults
    if args.compare and has_faults:
        print(
            f"--compare is not supported for fault-carrying specs "
            f"(spec {spec.name!r} declares [[faults]]); faulted sweeps "
            f"already run a fault-free baseline for the degradation report",
            file=sys.stderr,
        )
        return 2
    if has_faults:
        # Faulted sweeps run twice on the same grid: once with the faults
        # stripped (the pricing-accuracy baseline), once as declared.
        passes = [
            (backend, compiled.without_faults(), "base:"),
            (backend, compiled, "fault:"),
        ]
    elif args.compare:
        passes = [("vector", compiled, ""), ("scalar", compiled, "")]
    else:
        passes = [(backend, compiled, "")]

    print(
        f"fleet sweep: {len(compiled.scenarios)} scenario(s), "
        f"{compiled.fleet_size} concurrent invocations, "
        f"{spec.horizon_seconds:g}s horizon, {shards} shard(s)"
        + (f" [spec: {spec.name}]" if spec_tag else "")
        + (" [faults]" if has_faults else ""),
        flush=True,
    )

    # One root span per run; shard workers parent on it through the
    # queue, so the whole sharded sweep files into a single trace.
    telemetry = RunTelemetry(
        "sweep",
        tags={
            "phase": "sweep",
            "backend": backend,
            "shards": shards,
            "scenarios": len(compiled.scenarios),
            **spec_tag,
        },
        out_path=args.metrics_out,
        enabled=args.metrics or args.metrics_out is not None,
        progress=True,
        processes=shards > 1,
    )
    figures: Dict[str, float] = {}
    extra: Dict[str, Any] = {
        "fleet_size": compiled.fleet_size,
        "horizon_seconds": spec.horizon_seconds,
        "registry_scale": spec.registry_scale,
        "scenarios": [scenario.name for scenario in compiled.scenarios],
        **spec_tag,
    }
    worker_died = False
    with telemetry:
        try:
            runs = [
                run_sharded(
                    grid.sweep(meter=has_faults),
                    shards=shards,
                    backend=run_backend,
                    metrics_queue=telemetry.queue,
                    metrics_label=label,
                    trace=telemetry.context(),
                    series_budget=args.series_budget or None,
                )
                for run_backend, grid, label in passes
            ]
            figures, outcome = _report_sweep(runs, compare=args.compare, faulted=has_faults)
            extra.update(outcome)
        except BrokenProcessPool:  # killed or out of memory: close metrics, then fail
            worker_died = True
    extra.update(telemetry.extras)
    if args.metrics_out:
        print(f"[metrics written to {args.metrics_out}]")
    if worker_died:
        print("sweep failed: a shard worker process died (killed, or out of memory?)",
              file=sys.stderr)
        return 1
    _append_bench(args, figures, "fleet-sweep", extra)
    return 0


def _compare_stream_to_batch(stream_result, batch_result) -> list:
    """Field-by-field bit-exactness check; returns mismatch descriptions."""
    mismatches = []
    stream_by_name = {s.name: s for s in stream_result.scenarios}
    for batch in batch_result.scenarios:
        streamed = stream_by_name.get(batch.name)
        if streamed is None:
            mismatches.append(f"{batch.name}: missing from streamed result")
            continue
        for field in (
            "submitted",
            "completed",
            "instructions",
            "cycles",
            "stall_cycles",
            "l3_misses",
            "billing",
            "fault_stats",
        ):
            expected = getattr(batch, field)
            actual = getattr(streamed, field)
            if actual != expected:
                mismatches.append(
                    f"{batch.name}.{field}: stream={actual!r} batch={expected!r}"
                )
    return mismatches


def _command_stream(args: argparse.Namespace) -> int:
    import time as _time

    from repro import diskcache
    from repro.scenarios import (
        SpecError,
        TraceChunk,
        chunk_plan,
        compile_spec,
        load_spec_or_preset,
    )
    from repro.serve import (
        CheckpointError,
        StreamPipeline,
        StreamReplay,
        checkpoint_path,
        load_checkpoint,
    )

    if args.verify and args.max_chunks is not None:
        print(
            "--verify needs the full horizon; it cannot be combined with "
            "--max-chunks (resume the run to completion first)",
            file=sys.stderr,
        )
        return 2

    try:
        spec = load_spec_or_preset(args.spec)
        compiled = compile_spec(spec)
    except SpecError as error:
        print(error, file=sys.stderr)
        return 2

    fingerprint = diskcache.fingerprint(spec)
    ckpt_file = None
    replay = None
    resumed = False
    if args.checkpoint_dir is not None:
        ckpt_file = checkpoint_path(Path(args.checkpoint_dir), fingerprint)
        if ckpt_file.exists():
            try:
                replay = load_checkpoint(ckpt_file, expect_fingerprint=fingerprint)
            except CheckpointError as error:
                print(error, file=sys.stderr)
                return 2
            resumed = True
    if replay is None:
        replay = StreamReplay(compiled)

    # Chunks pace the replay but never change it, so a resumed run may
    # re-chunk the remaining epochs with any --chunk-epochs: the partition
    # is rebuilt over what is left, not sliced out of the original plan,
    # and numbered on from the chunks already ingested.
    done, ingested = replay.epochs_done, replay.chunks_ingested
    remaining_epochs = max(replay.epochs_total - done, 0)
    plan = [
        TraceChunk(ingested + c.index, done + c.start_epoch, done + c.end_epoch)
        for c in chunk_plan(remaining_epochs, args.chunk_epochs)
    ] if remaining_epochs else []
    print(
        f"stream replay: spec {spec.name!r}, {replay.epochs_total} epochs, "
        f"{len(plan)} chunk(s) of {args.chunk_epochs}"
        + (f" [resumed at epoch {done}, chunk {ingested}]" if resumed else ""),
        flush=True,
    )

    telemetry = RunTelemetry(
        "stream",
        tags={"phase": "stream", "spec": spec.name, "chunks": len(plan), "resumed": resumed},
        out_path=args.metrics_out,
        enabled=args.metrics or args.metrics_out is not None,
        progress=True,
    )
    writer = None if args.records_out is None else JsonlWriter(args.records_out)

    def sink(result) -> None:
        for record in result.records:
            writer.write(record.as_dict())

    start = _time.perf_counter()
    try:
        with telemetry:
            if telemetry.queue is not None:
                replay.set_progress(
                    MetricsEmitter(
                        telemetry.queue,
                        label="stream",
                        series_budget=args.series_budget or None,
                    )
                )
            summary = StreamPipeline(
                replay,
                plan,
                publish=None if writer is None else sink,
                checkpoint_to=ckpt_file,
                checkpoint_every=args.checkpoint_every,
                max_chunks=args.max_chunks,
                finalize=args.max_chunks is None,
                tracer=telemetry.tracer,
                trace_parent=telemetry.context(),
            ).run()
    finally:
        if writer is not None:
            writer.close()
    wall = _time.perf_counter() - start

    result = replay.result()
    if summary.finished:
        print(result.render())
        if ckpt_file is not None and ckpt_file.exists():
            # The trace is fully replayed and published; a stale checkpoint
            # would otherwise resume a finished run forever.
            ckpt_file.unlink()
            print(f"[checkpoint {ckpt_file} removed: replay complete]")
    elif ckpt_file is not None:
        print(
            f"[stopped after {summary.chunks} chunk(s) at "
            f"t={summary.time_seconds:g}s; checkpoint at {ckpt_file}]"
        )
    print(
        f"{summary.chunks} chunk(s), {summary.epochs} epoch(s), "
        f"{summary.records} billing record(s), {summary.completions} "
        f"completion(s) in {wall:.2f}s wall"
        + (f" [{summary.checkpoints_written} checkpoint(s)]"
           if summary.checkpoints_written else "")
    )
    if args.records_out is not None:
        print(f"[billing records appended to {args.records_out}]")

    if args.verify:
        batch = compiled.sweep(meter=True).run("vector")
        mismatches = _compare_stream_to_batch(result, batch)
        if mismatches:
            for line in mismatches:
                print(f"DIVERGED: {line}", file=sys.stderr)
            print(
                f"stream replay diverged from the batch sweep in "
                f"{len(mismatches)} field(s)",
                file=sys.stderr,
            )
            return 1
        print("verified: streamed ledgers and counters are bit-exact vs batch")

    if args.metrics_out:
        print(f"[metrics written to {args.metrics_out}]")

    billed = sum(s.billing.billed_total for s in result.scenarios if s.billing is not None)
    true = sum(s.billing.true_total for s in result.scenarios if s.billing is not None)
    extra = {
        "spec": spec.name,
        "fingerprint": fingerprint,
        "chunk_epochs": args.chunk_epochs,
        "chunks": summary.chunks,
        "epochs": summary.epochs,
        "records": summary.records,
        "completed": summary.completions,
        "finished": summary.finished,
        "resumed": resumed,
        "checkpoints_written": summary.checkpoints_written,
        "billed_gb_seconds": round(billed, 6),
        "true_gb_seconds": round(true, 6),
        **({"verified_bit_exact": True} if args.verify else {}),
        **telemetry.extras,
    }
    _append_bench(args, {"stream-replay": wall}, "stream-replay", extra)
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    import time as _time

    from repro.calibrate import (
        CalibrationConfig,
        ContinuousCalibrator,
        DriftEvent,
        DriftInjector,
        MeasureConfig,
        ProfileError,
        calibrate_once,
        get_param,
        perturbed,
        profile_by_name,
    )

    if args.once == args.watch:
        print("exactly one of --once / --watch is required", file=sys.stderr)
        return 2
    if len(args.drift_at) != len(args.drift_scale):
        print(
            "--drift-at and --drift-scale must be given the same number of times",
            file=sys.stderr,
        )
        return 2

    try:
        profile = profile_by_name(args.profile)
        config = CalibrationConfig(
            parameter=args.param,
            search_min=args.min,
            search_max=args.max,
            linspace_points=args.points,
            max_parallel_workers=args.workers,
            mape_window_epochs=args.window,
            drift_mape_threshold=args.threshold,
            epochs_per_round=args.epochs_per_round,
            measure=MeasureConfig(seed=args.seed),
        )
        nominal_value = get_param(profile, args.param)
    except (ProfileError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2

    mode = "once" if args.once else "watch"
    telemetry = RunTelemetry(
        "calibrate",
        tags={"phase": "calibrate", "profile": profile.name, "parameter": args.param, "mode": mode},
        out_path=args.metrics_out,
        enabled=args.metrics_out is not None,
    )
    show_candidates = args.metrics or args.metrics_out is not None

    def observer(event) -> None:
        if telemetry.queue is not None:
            telemetry.queue.put(event)
        if event.kind != "candidate" or show_candidates:
            print(event.render_line(), flush=True)

    start = _time.perf_counter()
    with telemetry:
        if args.once:
            truth = perturbed(profile, args.param, args.perturb_scale)
            print(
                f"[calibrate] profile {profile.name}: truth fabricated with "
                f"{args.param} x{args.perturb_scale:g} "
                f"({nominal_value:g} -> {get_param(truth, args.param):g}); "
                f"searching {config.linspace_points} candidates"
            )
            results = [
                calibrate_once(
                    truth,
                    config,
                    incumbent=profile,
                    observer=observer,
                    tracer=telemetry.tracer,
                    trace_parent=telemetry.context(),
                )
            ]
        else:
            events = tuple(
                DriftEvent(start_seconds=at, path=args.param, scale=scale)
                for at, scale in zip(args.drift_at, args.drift_scale)
            )
            drift = DriftInjector(profile, events) if events else None
            calibrator = ContinuousCalibrator(
                profile,
                config,
                drift=drift,
                observer=observer,
                tracer=telemetry.tracer,
                trace_parent=telemetry.context(),
            )
            results = calibrator.run(args.rounds)
        wall = _time.perf_counter() - start
        if telemetry.queue is not None:
            # Each round's measured window becomes per-epoch series points —
            # the measured value IS the shared-stall fraction (see
            # repro.calibrate.measure), so the mapping is exact.
            measured = (value for result in results for value in result.measured)
            for epoch, value in enumerate(measured):
                telemetry.queue.put(
                    SeriesPoint(
                        shard="calibrate",
                        epoch=epoch,
                        time_seconds=epoch * config.measure.epoch_seconds,
                        completions=0,
                        shared_stall_fraction=value,
                        fault_injections=0,
                        meter_dropped=0,
                        billing_error_fraction=0.0,
                    )
                )
    if args.metrics_out:
        print(f"[calibration events written to {args.metrics_out}]")

    republishes = [r for r in results if r.drift_detected and r.best is not None]
    converged = results[-1].converged
    grid = config.grid(profile)
    step = grid[1] - grid[0]
    for result in republishes:
        print(
            f"republished {args.param}={result.best.value:g} "
            f"(mape {100.0 * result.best.mape:.3f}%, grid step {step:g}) "
            f"fit {result.fit_fingerprint[:12]}"
        )
    print(
        f"{len(results)} round(s), {len(republishes)} republish(es) in "
        f"{wall:.2f}s wall — "
        + ("converged" if converged else "NOT converged")
    )

    extra = {
        "mode": mode,
        "profile": profile.name,
        "parameter": args.param,
        "rounds": len(results),
        "republishes": len(republishes),
        "converged": converged,
        **telemetry.extras,
    }
    if republishes:
        extra["fitted_value"] = republishes[-1].best.value
        extra["fitted_mape"] = round(republishes[-1].best.mape, 8)
    _append_bench(args, {"calibrate": wall}, "calibrate", extra)
    return 0 if converged else 1


def _command_obs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.analyze import (
        export_chrome_trace,
        format_summary,
        render_record,
        summarize,
        tail_records,
    )

    path = Path(args.file)
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 2
    try:
        if args.obs_command == "summarize":
            summary = summarize(path, top=args.top)
            if args.json:
                print(_json.dumps(summary, indent=2, sort_keys=True))
            else:
                print(format_summary(summary))
            return 0
        if args.obs_command == "tail":
            try:
                for kind, payload in tail_records(
                    path,
                    follow=not args.no_follow,
                    max_seconds=args.max_seconds,
                ):
                    print(render_record(kind, payload), flush=True)
            except KeyboardInterrupt:  # pragma: no cover - interactive stop
                pass
            return 0
        # export-trace
        out = Path(args.out) if args.out else path.with_suffix(".trace.json")
        trace = export_chrome_trace(path, out)
        spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
        counters = sum(1 for e in trace["traceEvents"] if e.get("ph") == "C")
        print(
            f"[{spans} span(s), {counters} counter sample(s) written to {out}; "
            f"open in https://ui.perfetto.dev]"
        )
        return 0
    except BrokenPipeError:  # obs ... | head: downstream closed early
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


def _command_registry(_: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.workloads.registry import table1_rows

    print(
        format_table(
            table1_rows(),
            columns=(
                "abbreviation",
                "name",
                "suite",
                "language",
                "reference",
                "memory_mb",
            ),
            title="Table 1: serverless benchmarks",
            float_format="{:.0f}",
        )
    )
    return 0


_METRICS_OUT_HELP = (
    "append every metrics record (snapshots, per-epoch series, trace spans) "
    "to FILE as enveloped JSON lines, consumable by `python -m repro obs` "
    "(implies --metrics)"
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line on stderr and exit 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a finite float flag that must be above zero."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _series_budget(text: str) -> int:
    """argparse type of ``--series-budget``: 0 (off) or at least 2 points."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value != 0 and value < 2:
        raise argparse.ArgumentTypeError(f"must be 0 (off) or at least 2, got {value}")
    return value


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type of an integer flag that must be at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _list_of(item: Callable[[str], Any]) -> Callable[[str], tuple]:
    """argparse type of a comma-separated list flag: a non-empty tuple of
    ``item`` values (blank entries are skipped)."""

    def parse(text: str) -> tuple:
        values = tuple(item(token.strip()) for token in text.split(",") if token.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return values

    return parse


def _add_telemetry_flags(
    parser: argparse.ArgumentParser,
    *,
    record: str,
    metrics_help: str,
    metrics_out_help: str = _METRICS_OUT_HELP,
    series_budget: bool = True,
) -> None:
    """Declare the BENCH and metrics flags every instrumented command shares."""
    parser.add_argument(
        "--bench-json",
        default=None,
        help="override the BENCH_engine.json trajectory path",
    )
    parser.add_argument(
        "--no-bench",
        action="store_true",
        help=f"skip appending a {record} record to BENCH_engine.json",
    )
    parser.add_argument("--metrics", action="store_true", help=metrics_help)
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE", help=metrics_out_help
    )
    if series_budget:
        parser.add_argument(
            "--series-budget",
            type=_series_budget,
            default=512,
            metavar="POINTS",
            help="per-shard point budget for per-epoch series telemetry "
            "(deterministic stride decimation keeps memory bounded; 0 disables; "
            "default: 512)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reproduction of 'Litmus: Fair Pricing for Serverless Computing'",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list",
        help="list the available figures/tables",
        epilog="Docs: docs/architecture.md (system layout), "
        "docs/scenarios.md (scenario specs and presets).",
    )
    list_parser.set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser(
        "run", help="regenerate one figure/table, or sweep many in parallel"
    )
    run_parser.add_argument(
        "figure",
        nargs="?",
        default=None,
        help="figure name, e.g. fig11 (see 'list'); omit when using --figures",
    )
    run_parser.add_argument(
        "--output", "-o", default=None, help="also write the rendered rows to this file"
    )
    run_parser.add_argument(
        "--figures",
        type=_list_of(str),
        default=None,
        help="sweep mode: 'all' or a comma-separated list of figure names",
    )
    run_parser.add_argument(
        "--jobs",
        "-j",
        type=_int_at_least(1),
        default=1,
        help="worker processes for sweep mode (default 1)",
    )
    run_parser.add_argument(
        "--check",
        action="store_true",
        help="sweep mode: compare regenerated text against the committed "
        "results instead of writing; exit 1 with a diff on any mismatch",
    )
    run_parser.add_argument(
        "--results-dir",
        default="results",
        help="directory the sweep writes to / checks against (default: results)",
    )
    run_parser.add_argument(
        "--bench-json",
        default=None,
        help="override the BENCH_engine.json trajectory path",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="sweep mode: run each figure under cProfile and print the "
        "top-20 cumulative entries",
    )
    run_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="sweep mode: append one trace span per completed figure to FILE, "
        "closed by the run-figures root span (see docs/observability.md)",
    )
    run_parser.set_defaults(handler=_command_run)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="simulate a fleet-scale scenario grid on the vectorized backend",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Scenario specs: pass --spec FILE.toml (or a shipped preset name:\n"
            "smoke, chaos-smoke, steady-state, memory-pressure,\n"
            "colocation-ladder) instead of grid flags; add --shards N to fan\n"
            "the grid out over worker processes with results identical to\n"
            "--shards 1.  Specs declaring [[faults]] also run a fault-free\n"
            "baseline and print a degradation report; --metrics streams live\n"
            "per-shard progress.\n"
            "Docs: docs/scenarios.md (spec format + cookbook),\n"
            "docs/chaos.md (fault axis), docs/observability.md (--metrics),\n"
            "docs/backends.md (vector vs scalar engines)."
        ),
    )
    sweep_parser.add_argument(
        "--spec",
        default=None,
        help="declarative scenario spec: a .toml/.json path or a preset name "
        "(replaces the grid flags below; see docs/scenarios.md)",
    )
    sweep_parser.add_argument(
        "--shards",
        type=_int_at_least(1),
        default=None,
        help="partition the grid across N worker processes (default: 1, or "
        "the spec's [sweep].shards); results are shard-count independent",
    )
    sweep_parser.add_argument(
        "--mixes",
        type=_list_of(str),
        default=None,
        help="comma-separated traffic mixes: all, memory-intensive, or "
        "explicit function lists joined with '+' (default: all)",
    )
    sweep_parser.add_argument(
        "--machines",
        type=_list_of(_int_at_least(1)),
        default=None,
        help="comma-separated machine counts per scenario (default: 1)",
    )
    sweep_parser.add_argument(
        "--colocation",
        dest="colocations",
        metavar="COLOCATION",
        type=_list_of(_int_at_least(1)),
        default=None,
        help="comma-separated functions-per-thread levels (default: 1)",
    )
    sweep_parser.add_argument(
        "--cores",
        dest="cores_per_machine",
        metavar="CORES",
        type=_int_at_least(1),
        default=None,
        help="cores hosting functions per machine (default: all cores)",
    )
    sweep_parser.add_argument(
        "--horizon",
        dest="horizon_seconds",
        metavar="HORIZON",
        type=_positive_float,
        default=None,
        help="simulated seconds per scenario (default: 2.0)",
    )
    sweep_parser.add_argument(
        "--epoch-seconds",
        type=_positive_float,
        default=None,
        help="epoch length in simulated seconds (default: 1e-3)",
    )
    sweep_parser.add_argument(
        "--registry-scale",
        type=_positive_float,
        default=None,
        help="body-length scale applied to every function (default: 0.1)",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=None, help="base churn seed (default: 2024)"
    )
    sweep_parser.add_argument(
        "--backend",
        choices=("vector", "scalar"),
        default=None,
        help="simulation backend (default: vector, or the spec's "
        "[sweep].backend)",
    )
    sweep_parser.add_argument(
        "--compare",
        action="store_true",
        help="run both backends and report the vector speedup",
    )
    _add_telemetry_flags(
        sweep_parser,
        record="fleet-sweep",
        metrics_help="stream live per-shard progress (epochs/sec, completions, fault "
        "counters) to stderr while the sweep runs (see docs/observability.md)",
    )
    sweep_parser.set_defaults(handler=_command_sweep)

    stream_parser = subparsers.add_parser(
        "stream",
        help="replay a scenario spec incrementally, streaming billing records",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "The streaming service ingests the spec's trace chunk-by-chunk\n"
            "and emits per-tenant billing deltas as it goes; results are\n"
            "bit-exact against `python -m repro sweep` for the same spec\n"
            "(assert it with --verify).  With --checkpoint-dir the replay\n"
            "checkpoints periodically and auto-resumes from an existing\n"
            "checkpoint; --max-chunks stops early (checkpointing) so a later\n"
            "invocation can resume.\n"
            "Docs: docs/streaming.md (cookbook, checkpoint format,\n"
            "publish/checkpoint order), docs/observability.md (--metrics)."
        ),
    )
    stream_parser.add_argument(
        "--spec",
        required=True,
        help="declarative scenario spec: a .toml/.json path or a preset name "
        "(see docs/scenarios.md)",
    )
    stream_parser.add_argument(
        "--chunk-epochs",
        type=_int_at_least(1),
        default=32,
        help="epochs ingested per trace chunk (default: 32; pacing only — "
        "results are chunk-size independent)",
    )
    stream_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for resumable checkpoints; an existing matching "
        "checkpoint is resumed automatically",
    )
    stream_parser.add_argument(
        "--checkpoint-every",
        type=_int_at_least(1),
        default=8,
        help="checkpoint every N chunks when --checkpoint-dir is set "
        "(default: 8)",
    )
    stream_parser.add_argument(
        "--max-chunks",
        type=_int_at_least(1),
        default=None,
        help="stop after N chunks (writing a checkpoint when --checkpoint-dir "
        "is set) instead of running to the horizon",
    )
    stream_parser.add_argument(
        "--records-out",
        default=None,
        metavar="FILE",
        help="append every billing record to FILE as JSON lines",
    )
    stream_parser.add_argument(
        "--verify",
        action="store_true",
        help="after streaming, run the batch sweep and fail (exit 1) unless "
        "ledgers and counters are bit-exact",
    )
    _add_telemetry_flags(
        stream_parser,
        record="stream-replay",
        metrics_help="stream live replay progress to stderr (see docs/observability.md)",
    )
    stream_parser.set_defaults(handler=_command_stream)

    calibrate_parser = subparsers.add_parser(
        "calibrate",
        help="continuously calibrate the contention model against drifting hardware",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "--once fabricates drifted hardware (--perturb-scale), grid-\n"
            "searches the parameter and republishes the best fit through the\n"
            "versioned disk cache, exiting 0 iff the fit's MAPE lands under\n"
            "--threshold.  --watch runs drift-check rounds continuously,\n"
            "searching only when the incumbent's sliding-window MAPE crosses\n"
            "the threshold; --drift-at/--drift-scale inject mid-run drift.\n"
            "Docs: docs/calibration.md (cookbook, knobs, shipped profiles)."
        ),
    )
    calibrate_parser.add_argument(
        "--once", action="store_true", help="single-shot: search, republish, exit"
    )
    calibrate_parser.add_argument(
        "--watch", action="store_true", help="run --rounds drift-check rounds"
    )
    calibrate_parser.add_argument(
        "--profile",
        default="cascade-lake-5218",
        help="hardware profile: a built-in/shipped name or a .toml path "
        "(default: cascade-lake-5218; see docs/calibration.md)",
    )
    calibrate_parser.add_argument(
        "--param",
        default="contention.memory_queueing_coefficient",
        help="dot path of the model parameter to fit "
        "(default: contention.memory_queueing_coefficient)",
    )
    calibrate_parser.add_argument(
        "--perturb-scale",
        type=_finite_float,
        default=1.3,
        help="--once only: fabricate truth by scaling the parameter "
        "(default: 1.3)",
    )
    calibrate_parser.add_argument(
        "--min",
        type=_finite_float,
        default=None,
        help="grid lower bound (default: half the nominal value)",
    )
    calibrate_parser.add_argument(
        "--max",
        type=_finite_float,
        default=None,
        help="grid upper bound (default: double the nominal value)",
    )
    calibrate_parser.add_argument(
        "--points",
        type=_int_at_least(2),
        default=9,
        help="linspace grid resolution (default: 9)",
    )
    calibrate_parser.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        help="candidate evaluations in this many parallel processes "
        "(default: 1 = inline; results are worker-count independent)",
    )
    calibrate_parser.add_argument(
        "--window",
        type=_int_at_least(1),
        default=48,
        help="sliding MAPE window depth in epochs, and the probe window "
        "length (default: 48)",
    )
    calibrate_parser.add_argument(
        "--epochs-per-round",
        type=_int_at_least(1),
        default=16,
        help="epochs measured per drift-check round (default: 16)",
    )
    calibrate_parser.add_argument(
        "--threshold",
        type=_finite_float,
        default=0.005,
        help="windowed MAPE above this detects drift (default: 0.005)",
    )
    calibrate_parser.add_argument(
        "--rounds",
        type=_int_at_least(1),
        default=8,
        help="--watch only: drift-check rounds to run (default: 8)",
    )
    calibrate_parser.add_argument(
        "--drift-at",
        type=_finite_float,
        action="append",
        default=[],
        metavar="SECONDS",
        help="--watch only: inject drift on --param at this simulated time "
        "(repeatable, pairs with --drift-scale)",
    )
    calibrate_parser.add_argument(
        "--drift-scale",
        type=_finite_float,
        action="append",
        default=[],
        metavar="SCALE",
        help="scale applied by the matching --drift-at event (repeatable)",
    )
    calibrate_parser.add_argument(
        "--seed",
        type=int,
        default=2024,
        help="measurement churn seed (default: 2024)",
    )
    _add_telemetry_flags(
        calibrate_parser,
        record="calibrate",
        metrics_help="print per-candidate search progress (see docs/observability.md)",
        metrics_out_help="append every calibration event, trace span and measured "
        "per-epoch series point to FILE as enveloped JSON lines, consumable by "
        "`python -m repro obs` (implies --metrics)",
        series_budget=False,
    )
    calibrate_parser.set_defaults(handler=_command_calibrate)

    obs_parser = subparsers.add_parser(
        "obs",
        help="analyze an enveloped metrics JSONL (summarize, tail, export-trace)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Consumes the --metrics-out file any long-running command\n"
            "(sweep, stream, calibrate, run) writes: summarize prints the\n"
            "per-phase wall-clock breakdown and the slowest spans; tail\n"
            "follows a growing file live; export-trace writes Chrome\n"
            "trace-event JSON, viewable at https://ui.perfetto.dev.\n"
            "Unknown record kinds and future schema versions are skipped\n"
            "with a warning, never a crash.\n"
            "Docs: docs/observability.md (schema table, tracing cookbook)."
        ),
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    summarize_parser = obs_sub.add_parser(
        "summarize", help="per-phase wall-clock breakdown + slowest spans"
    )
    summarize_parser.add_argument("file", help="enveloped metrics JSONL file")
    summarize_parser.add_argument(
        "--top",
        type=_int_at_least(0),
        default=10,
        help="how many slowest spans to list (default: 10)",
    )
    summarize_parser.add_argument(
        "--json",
        action="store_true",
        help="print the summary as JSON instead of text",
    )
    tail_parser = obs_sub.add_parser(
        "tail", help="live-tail a (growing) metrics JSONL"
    )
    tail_parser.add_argument("file", help="enveloped metrics JSONL file")
    tail_parser.add_argument(
        "--no-follow",
        action="store_true",
        help="print what exists and exit instead of polling for appends",
    )
    tail_parser.add_argument(
        "--max-seconds",
        type=_finite_float,
        default=None,
        metavar="SECONDS",
        help="stop following after this long (default: until interrupted)",
    )
    export_parser = obs_sub.add_parser(
        "export-trace",
        help="write Chrome trace-event JSON (open in Perfetto)",
    )
    export_parser.add_argument("file", help="enveloped metrics JSONL file")
    export_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output path (default: <file>.trace.json)",
    )
    obs_parser.set_defaults(handler=_command_obs)

    registry_parser = subparsers.add_parser("registry", help="print the workload registry")
    registry_parser.set_defaults(handler=_command_registry)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
