"""Benchmark runner: cold, checked runs of one workload, with metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload price-heavy|price-light|fleet-sweep|stream-billing|all \\
        --seed N --seconds S --trace 0|1 [--tiny]

Every operation is a cold run in a fresh process (``worker.py``) with a
fresh, empty ``REPRO_CACHE_DIR`` under ``perfbench/.work``; nothing reads
or writes ``~/.cache/repro-litmus``, ``BENCH_engine.json`` or
``results/`` (the paper-seed price references are read from there).
Runs repeat until ``--seconds`` have passed, at least once; each run's
output is checked against its reference (see ``workloads.check``).  A
run whose process fails or whose output differs is a failed operation.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` ones:
``setup_s`` (process start to the first timed call, median over at least
five set-ups), ``run_s`` (median seconds of a cold run) and
``peak_rss_mb`` (median peak resident memory of a run's process).  Both
timings are reported at one CPU speed: a shared host's CPU can run at
about half speed for seconds at a time, so each worker samples its CPU's
speed with the workload's probe while it sets up and runs
(``worker.SpeedSampler``), and each set-up's and run's wall seconds are
multiplied by the mean speed read during it before the median is taken.
The wall seconds and the speeds are printed beside them.  With
``--trace 1`` every run is traced (``layers.py``), without the sampler,
and the metrics are the ``per_layer`` ones, each the median over the
traced runs (wall seconds and shares of them); the last run's
spans are written to ``perfbench/.work/trace-<workload>.jsonl``.  When no
run completes, or the workload's reference cannot be had, the object has
``correct`` false, every attempted operation failed, and no metrics.
``--workload all`` runs each workload in turn.  ``--tiny`` (the
self-test) shortens the vector workloads and computes their references
at run time.

Exits 1 when any operation fails, 2 when the benchmark cannot run at all
(without the library sources or BENCHMARK.json; no result is printed),
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
#: Set-ups measured per run; set-up-only processes top up the cold runs.
MIN_SETUPS = 5
#: No run may take longer than this, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def load_metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` metric name -> unit, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {error}") from None
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_worker(
    workload: str,
    seed: int,
    deadline: float,
    *,
    mode: str = "run",
    trace_out: Optional[Path] = None,
    tiny: bool = False,
) -> Tuple[Optional[Dict[str, Any]], str]:
    """One worker process; returns ``(report, "")`` or ``(None, error)``."""
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(run_dir / "cache"))
    env.pop("REPRO_DISK_CACHE", None)
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--work-dir", str(run_dir),
        "--mode", mode,
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if tiny:
        command.append("--tiny")
    # Every thread of a worker runs on one CPU, so the speed sampler reads
    # the CPU that runs the timed call; the two vCPUs of a shared host can
    # run at different speeds.
    cpu = max(os.sched_getaffinity(0))
    spawned = time.monotonic()
    try:
        process = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - spawned, 1.0),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} process timed out"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if process.returncode != 0:
        tail = (process.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"{mode} process exited {process.returncode}: {tail}"
    try:
        report = json.loads(process.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"{mode} process printed no report"
    if "first_call" in report:
        report["setup_s"] = report["first_call"] - spawned
    return report, ""


def reference_for(
    workload: str, seed: int, deadline: float, tiny: bool
) -> Tuple[Optional[str], str]:
    """``(reference text, where it came from)``, or ``(None, why not)``."""
    path = None if tiny else workloads.reference_path(workload, seed)
    if path is None:
        report, error = run_worker(workload, seed, deadline, mode="reference", tiny=tiny)
        if report is None:
            return None, f"reference run failed: {error}"
        oracle = "batch FleetSweep(meter=True)" if workload == "stream-billing" else "scalar"
        return report["output"], f"{oracle} run of the same spec"
    try:
        return path.read_text(encoding="utf-8"), str(path.relative_to(ROOT))
    except OSError as error:
        return None, f"missing reference: {error}"


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def failed_result(
    workload: str, attempted: int, errors: List[str]
) -> Tuple[Dict[str, Any], List[str]]:
    """The result when nothing could be measured: every attempt failed."""
    lines = [f"perfbench {workload}: nothing measured"]
    lines += [f"  FAILED: {error}" for error in errors]
    return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}, lines


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Tuple[Dict[str, Any], List[str]]:
    """Run one workload; returns the result object and the report lines."""
    end_to_end, per_layer = load_metric_units()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    wseed = workloads.workload_seed(seed)
    info = workloads.WORKLOADS[workload]
    reference, source = reference_for(workload, wseed, deadline, tiny)
    if reference is None:
        # The runs could not be checked, so the one attempt fails.
        return failed_result(workload, 1, [source])

    runs: List[Dict[str, Any]] = []
    errors: List[str] = []
    worst = 0.0
    attempted = 0

    def attempt(trace_out: Optional[Path] = None) -> Optional[Dict[str, Any]]:
        """One cold run: its report (timed even when the output is wrong),
        or ``None`` when the process failed."""
        nonlocal worst, attempted
        attempted += 1
        report, error = run_worker(workload, wseed, deadline, trace_out=trace_out, tiny=tiny)
        if report is None:
            errors.append(error)
            return None
        error, relative = workloads.check(workload, report["output"], reference)
        if error is not None:
            errors.append(f"output differs from {source}: {error}")
        worst = max(worst, relative)
        return report

    trace_path = WORK_DIR / f"trace-{workload}.jsonl" if trace else None
    measuring = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        report = attempt(trace_path)
        if report is not None:
            runs.append(report)
        longest = max(longest, time.monotonic() - began)
        now = time.monotonic()
        if now - measuring >= seconds or now + longest > deadline:
            break
    if not runs:
        return failed_result(workload, attempted, errors)

    extras = {key: median([r["extras"][key] for r in runs]) for key in runs[0]["extras"]}
    lines = [
        f"perfbench {workload}: --seed {seed} -> workload seed {wseed}; "
        f"{len(runs)} cold {'traced ' if trace else ''}run(s), each in a fresh process "
        f"with an empty REPRO_CACHE_DIR",
        f"  why: {info.why}",
        f"  dominant layer: {info.dominant}",
        f"  no change predicted from: {', '.join(info.unmoved_by)}",
        f"  check: {attempted - len(errors)}/{attempted} outputs match the {source}"
        + (f" (worst relative error {worst:.2g})" if workload == "fleet-sweep" else ""),
    ]
    for key, value in extras.items():
        lines.append(f"  {key:<16} {value:.6g}")
    if "price_gap_pct" in extras:
        lines.append(f"  price_gap_pct reads {extras['price_gap_pct']:.2f} %")

    if trace:
        per_run = [layers.per_layer_metrics(r["layers"], r["setup_s"], r["extras"]) for r in runs]
        values = {name: median([m[name] for m in per_run]) for name in per_run[0]}
        units = per_layer
        last = runs[-1]["layers"]
        self_seconds = last["self_seconds"]
        lines.append(
            f"  last traced run: {last['run_s']:.4f} s, {last['spans']} spans -> "
            f"{trace_path.relative_to(ROOT)}; self time by layer (s, share of run_s):"
        )
        for layer in layers.LAYERS:
            seconds_in = self_seconds.get(layer, 0.0)
            lines.append(f"    {layer:<20} {seconds_in:10.4f}  {seconds_in / last['run_s']:7.2%}")
        total = sum(self_seconds.get(layer, 0.0) for layer in layers.LAYERS)
        top = max(layers.LAYERS, key=lambda layer: self_seconds.get(layer, 0.0))
        lines.append(f"  self times add up to {total / last['run_s']:.2%} of run_s")
        lines.append(f"  largest self time: {top}")
    else:
        setups = list(runs)
        while len(setups) < MIN_SETUPS and time.monotonic() + 10.0 < deadline:
            report, error = run_worker(workload, wseed, deadline, mode="setup", tiny=tiny)
            if report is None:
                attempted += 1
                errors.append(f"set-up failed: {error}")
                break
            setups.append(report)
        wall = [r["run_s"] for r in runs]
        speeds = [r["run_speed"] for r in runs]
        values = {
            "setup_s": median([r["setup_s"] * r["setup_speed"] for r in setups]),
            "run_s": median([r["run_s"] * r["run_speed"] for r in runs]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        }
        units = end_to_end
        lines.append(f"  run wall seconds: {' '.join('%.4f' % w for w in wall)}")
        lines.append(f"  CPU speed in each: {' '.join('%.3f' % s for s in speeds)}")
        lines.append(
            f"  wall medians: set-up {median([r['setup_s'] for r in setups]):.4f} s "
            f"(of {len(setups)}), run {median(wall):.4f} s (of {len(runs)}); "
            f"speed sampler took {median([r['sampler_share'] for r in runs]):.2%} of a run"
        )
    lines += [f"  FAILED: {error}" for error in errors]
    for name, unit in units.items():
        lines.append(f"  {name:<32} {values[name]:.6g} {unit}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.WORKLOAD_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result, lines = bench(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        except BenchmarkError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
