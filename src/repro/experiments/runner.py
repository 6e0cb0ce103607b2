"""Parallel figure/table runner.

Fans the paper's figure jobs out over a process pool, writes their rendered
rows to ``results/``, records per-figure wall-clock into the
``BENCH_engine.json`` trajectory, and (in check mode) verifies that the
regenerated text matches the committed results byte for byte.

Workers share work through the versioned on-disk cache
(:mod:`repro.diskcache`): the first worker to *finish* a calibration, a
solo profile or a price evaluation persists it; workers that start later
load it.  There is deliberately no cross-process locking, so workers that
need the same artefact at the same moment each compute it (atomic
replace-on-store keeps that safe, just redundant) — on a cold cache this
costs some duplicate work, bounded by the most-expensive-first dispatch
order putting the distinct-configuration heavyweights into the first wave.

This is what ``python -m repro run --figures all --jobs N`` invokes, and
what the CI ``figures`` tier runs on every pull request.
"""

from __future__ import annotations

import difflib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import benchlog, diskcache
from repro.obs import RunTelemetry

#: Figure/table name -> experiments module implementing ``run()`` (an
#: optional ``:attribute`` suffix selects a different entry point).
FIGURE_MODULES: Dict[str, str] = {
    "table1": "repro.experiments.table1",
    "fig01": "repro.experiments.fig01_traffic",
    "fig02": "repro.experiments.fig02_corun_slowdown",
    "fig03": "repro.experiments.fig03_time_split",
    "fig04": "repro.experiments.fig04_distribution",
    "fig05": "repro.experiments.fig05_tables",
    "fig06": "repro.experiments.fig06_startup_ipc",
    "fig07": "repro.experiments.fig07_probe_timeline",
    "fig08": "repro.experiments.fig08_reference_mbgen",
    "fig09": "repro.experiments.fig09_regression",
    "fig10": "repro.experiments.fig10_interpolation",
    "fig11": "repro.experiments.fig11_price_26",
    "fig12": "repro.experiments.fig12_price_errors",
    "fig13": "repro.experiments.fig13_discount_lines",
    "fig14": "repro.experiments.fig14_switching",
    "fig15": "repro.experiments.fig15_method1",
    "fig16": "repro.experiments.fig16_method2",
    "fig17": "repro.experiments.fig17_heavy",
    "fig18": "repro.experiments.fig18_frequency",
    "fig19": "repro.experiments.fig19_icelake",
    "fig20": "repro.experiments.fig20_reused_tables",
    "fig21": "repro.experiments.fig21_smt",
    "ablation-rate-split": "repro.experiments.ablation:run_rate_split_ablation",
    "ablation-interpolation": "repro.experiments.ablation:run_interpolation_ablation",
    "ablation-reference-count": "repro.experiments.ablation:run_reference_count_ablation",
}

#: Rough relative cost of each job (measured cold, arbitrary units).  Used
#: only for most-expensive-first dispatch; does not need to be current.
_EXPECTED_COST: Dict[str, float] = {
    "fig16": 100.0,
    "fig17": 90.0,
    "fig19": 88.0,
    "fig21": 75.0,
    "fig20": 50.0,
    "fig15": 22.0,
    "fig18": 21.0,
    "ablation-reference-count": 5.0,
    "fig05": 5.0,
    "fig14": 3.0,
}


def resolve_runner(name: str) -> Callable[[], object]:
    """Import the ``run`` callable behind a figure name."""
    from importlib import import_module

    target = FIGURE_MODULES[name]
    if ":" in target:
        module_name, attribute = target.split(":", 1)
    else:
        module_name, attribute = target, "run"
    return getattr(import_module(module_name), attribute)


def resolve_figure_names(selection: Sequence[str]) -> List[str]:
    """Expand a ``--figures`` selection (``all`` or figure names) to job names."""
    names = list(selection)
    if [name.lower() for name in names] == ["all"]:
        return list(FIGURE_MODULES)
    unknown = [name for name in names if name not in FIGURE_MODULES]
    if unknown:
        known = ", ".join(sorted(FIGURE_MODULES))
        raise KeyError(f"unknown figure(s) {', '.join(unknown)}; known: {known}")
    return names


@dataclass(frozen=True)
class FigureRun:
    """Outcome of regenerating one figure."""

    name: str
    rendered: str
    seconds: float
    matched: Optional[bool] = None  # check mode only
    diff: Optional[str] = None
    profile_text: Optional[str] = None  # --profile only
    #: Wall-clock (time.time()) when the job started; lets the parent
    #: file a post-hoc trace span without pickling tracers into workers.
    started_unix: float = 0.0


@dataclass(frozen=True)
class SweepReport:
    """Outcome of a full sweep."""

    runs: List[FigureRun]
    jobs: int
    wall_seconds: float
    bench_path: Path

    @property
    def mismatches(self) -> List[FigureRun]:
        return [run for run in self.runs if run.matched is False]


def _execute_job(name: str, profile: bool = False) -> FigureRun:
    """Worker entry point: regenerate one figure and render it."""
    started_unix = time.time()
    start = time.perf_counter()
    profile_text: Optional[str] = None
    if profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = resolve_runner(name)()
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(20)
        profile_text = stream.getvalue()
    else:
        result = resolve_runner(name)()
    rendered = result.render() + "\n"
    return FigureRun(
        name=name,
        rendered=rendered,
        seconds=time.perf_counter() - start,
        profile_text=profile_text,
        started_unix=started_unix,
    )


def _dispatch_order(names: Sequence[str]) -> List[str]:
    return sorted(names, key=lambda name: -_EXPECTED_COST.get(name, 1.0))


def _settle(run: FigureRun, results_dir: Path, check: bool) -> FigureRun:
    """Write ``run`` to ``results_dir`` or, with ``check``, diff it there."""
    output_path = results_dir / f"{run.name}.txt"
    if not check:
        results_dir.mkdir(parents=True, exist_ok=True)
        output_path.write_text(run.rendered, encoding="utf-8")
        return run
    committed = output_path.read_text(encoding="utf-8") if output_path.exists() else None
    if committed == run.rendered:
        return replace(run, matched=True)
    diff = "".join(
        difflib.unified_diff(
            (committed or "").splitlines(keepends=True),
            run.rendered.splitlines(keepends=True),
            fromfile=f"committed/{output_path.name}",
            tofile=f"regenerated/{output_path.name}",
        )
    )
    return replace(run, matched=False, diff=diff)


def run_figures(
    names: Sequence[str],
    *,
    jobs: int = 1,
    results_dir: Path = Path("results"),
    check: bool = False,
    bench_path: Optional[Path] = None,
    progress: Optional[Callable[[FigureRun], None]] = None,
    profile: bool = False,
    metrics_path: Optional[Path] = None,
) -> SweepReport:
    """Regenerate ``names`` with ``jobs`` workers.

    Writes each figure to ``results_dir/<name>.txt`` — unless ``check`` is
    set, in which case the rendered text is compared against the committed
    file instead and mismatches carry a unified diff.  Per-figure timing is
    appended to the ``BENCH_engine.json`` trajectory.  With ``profile``
    each figure runs under :mod:`cProfile` and its top-20
    cumulative-time entries ride along on the returned runs.
    ``metrics_path`` appends one enveloped trace span per completed
    figure under a ``run-figures`` root span — the ``run`` counterpart of
    ``sweep --metrics-out``, consumable by ``python -m repro obs``
    (see docs/observability.md).  The root span self-accounts tracing
    overhead; its ``obs_overhead_fraction`` lands in the
    ``BENCH_engine.json`` run extras.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ordered = _dispatch_order(names)
    # Recorded so trajectory readers can tell a cold sweep from a warm one:
    # per-figure seconds mostly reflect which job paid for a shared cached
    # artefact first, so only same-temperature records compare meaningfully.
    cache_entries_start = 0
    if diskcache.cache_enabled():
        try:
            cache_entries_start = sum(1 for _ in diskcache.cache_dir().glob("*.json"))
        except OSError:
            cache_entries_start = 0
    telemetry = RunTelemetry(
        "run-figures",
        tags={"phase": "run", "figures": len(ordered), "jobs": jobs},
        out_path=metrics_path,
        enabled=metrics_path is not None,
    )
    runs: List[FigureRun] = []
    calibrations_warmed = 0

    def finished(run: FigureRun) -> None:
        runs.append(run)
        # Figure spans are synthesized post-hoc in the parent from the
        # worker-reported wall start + duration, so workers stay free of
        # tracer state (and picklable).
        if telemetry.tracer is not None:
            telemetry.tracer.record(
                run.name,
                start_unix_seconds=run.started_unix,
                duration_seconds=run.seconds,
                parent=telemetry.root,
                tags={"phase": "figure", "completed": len(runs), "total": len(ordered)},
            )
        if progress is not None:
            progress(run)

    with telemetry:
        sweep_start = time.perf_counter()
        if jobs == 1 or len(ordered) <= 1:
            for name in ordered:
                finished(_execute_job(name, profile))
        else:
            # Warm every distinct calibration in the parent before fanning
            # out: parallel workers all start cold at the same instant, so
            # without this each would redo the same expensive calibration
            # sweeps (the jobs=2 regression — see warm_shared_calibrations).
            from repro.experiments.harness import warm_shared_calibrations

            calibrations_warmed = warm_shared_calibrations(ordered)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                pending = {pool.submit(_execute_job, name, profile) for name in ordered}
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        finished(future.result())
        runs.sort(key=lambda run: ordered.index(run.name))
        checked = [_settle(run, results_dir, check) for run in runs]
        wall = time.perf_counter() - sweep_start
        if telemetry.root is not None:
            telemetry.root.tags["figures"] = len(runs)
    written_bench = benchlog.append_run(
        {run.name: run.seconds for run in checked},
        source="runner-check" if check else "runner",
        path=bench_path or benchlog.default_path(results_dir),
        jobs=jobs,
        extra={
            "wall_seconds": round(wall, 4),
            "disk_cache_enabled": diskcache.cache_enabled(),
            "disk_cache_entries_at_start": cache_entries_start,
            # Distinct calibrations pre-computed in the parent before
            # the parallel fan-out (0 for sequential runs).
            **({"calibrations_warmed": calibrations_warmed} if calibrations_warmed else {}),
            # cProfile inflates per-figure seconds severalfold; the
            # marker keeps profiled entries from reading as regressions.
            **({"profiled": True} if profile else {}),
            **telemetry.extras,
        },
    )
    return SweepReport(runs=checked, jobs=jobs, wall_seconds=wall, bench_path=written_bench)
