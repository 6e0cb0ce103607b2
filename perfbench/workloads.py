"""The benchmark's four workloads: inputs, timed operation and output check.

Each workload is one way of using one of the two simulation engines, and
each way runs its own code path:

* ``price-heavy`` and ``price-light`` are cold price evaluations on the
  scalar engine (``experiments.fig17_heavy.run`` and
  ``experiments.fig11_price_26.run``): calibration stress points, solo
  profiles, the co-run and the Litmus quotes.
* ``fleet-sweep`` is ``FleetSweep.run("vector")`` on a 5,760-invocation
  grid: the plain vector drive loop, where NumPy array work dominates.
* ``stream-billing`` replays a small metered, faulted fleet through
  ``StreamPipeline`` in 500 chunks with periodic checkpoints and one
  stop/``load_checkpoint``/resume cycle: per-epoch fixed cost, billing
  deltas and checkpoint pickling dominate.

BENCHMARK.json drives ``price-light`` and ``stream-billing``, which
between them call every layer.  The other two stay runnable by hand
(``run.py --workload price-heavy|fleet-sweep``).  One cold
``price-heavy`` run takes 35-50 s of wall time on a two-vCPU x86 VM, so
each run of the benchmark would hold a single sample; ``price-light``
calls every one of its layers.  ``fleet-sweep`` is left out so that each
of the benchmark's runs can measure for about twice as long, which
narrows the run-to-run spread of ``run_s`` on a shared host whose speed
drifts by 20-40% within minutes.

The benchmark's ``--seed`` picks the workload seed (the price configs'
``ExperimentConfig.seed``, the scenario seed of the vector specs) from
:data:`WORKLOAD_SEEDS`, whose outputs all have references.  2024 is the
paper configuration: its price references are the repository's own
``results/fig17.txt`` and ``results/fig11.txt``.

Nothing here imports ``repro`` at module level, so the orchestrator can
use the metadata and the checks without paying for the library import.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_DIR = BENCH_DIR / "specs"
REFERENCE_DIR = BENCH_DIR / "reference"

#: Workload seeds with committed references; any other ``--seed`` wraps
#: into this range, so the same seed always gives the same inputs.
WORKLOAD_SEEDS = (2024, 2025, 2026, 2027, 2028)

#: The documented agreement of the vector engine with the scalar oracle.
VECTOR_RTOL = 1e-9

#: stream-billing pacing: 10 epochs per chunk, a checkpoint every 20
#: chunks (so about 5% of the chunk intervals carry one and p98 lands
#: among them), and a stop plus resume halfway through the plan.
STREAM_CHUNK_EPOCHS = 10
STREAM_CHECKPOINT_EVERY = 20

#: ``--tiny`` (the self-test) divides the vector workloads' horizon by this.
TINY_HORIZON_DIVISOR = 20


@dataclass(frozen=True)
class Workload:
    """Why a workload is in the benchmark and what it should show."""

    name: str
    why: str
    #: The layer with the largest share of ``run_s``.
    dominant: str
    #: Layers whose change is predicted to leave this workload unchanged.
    unmoved_by: Tuple[str, ...]
    #: The speed probe (``worker.PROBES``) that does this workload's kind
    #: of work: ``python`` for the scalar engine, ``numpy`` for the vector one.
    probe: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "price-heavy",
            "the paper's congested headline (Figure 17, 320 co-runners, "
            "Method 2) and the repo's hottest path; the fixed point is "
            "recomputed on almost every stepped epoch",
            "core.calibration (about 1/2 of run_s, inclusive); by self time "
            "platform.engine, then hardware.contention",
            ("platform.batch", "serve", "scenarios", "platform.oracle", "core.pricing"),
            "python",
        ),
        Workload(
            "price-light",
            "Figure 11, one function per core: the engine's skip-ahead "
            "covers a large share of the calibration epochs, so a "
            "fixed-point change that costs the fast path shows here",
            "core.calibration (about 7/8 of run_s, inclusive); by self time "
            "platform.engine, then hardware.contention",
            ("platform.batch", "serve", "scenarios", "core.pricing"),
            "python",
        ),
        Workload(
            "fleet-sweep",
            "5,760 concurrent invocations on the vector engine: NumPy array "
            "work at about 1 us per invocation-epoch, plain drive loop",
            "platform.batch (VectorEngine.run_epoch)",
            (
                "core.calibration",
                "platform.engine",
                "hardware.contention",
                "platform.oracle",
                "core.pricing",
                "diskcache",
                "serve",
            ),
            "numpy",
        ),
        Workload(
            "stream-billing",
            "72 metered invocations streamed in 500 chunks with checkpoints "
            "and a resume: fixed per-epoch cost, billing deltas and "
            "checkpoint pickling instead of array math",
            "platform.batch (run_epoch) under serve (ingest, checkpoint)",
            (
                "core.calibration",
                "platform.engine",
                "hardware.contention",
                "platform.oracle",
                "core.pricing",
                "diskcache",
            ),
            "numpy",
        ),
    )
}

#: Price workloads: figure module and the config preset it defaults to.
_PRICE = {
    "price-heavy": ("fig17_heavy", "heavy_320", "fig17"),
    "price-light": ("fig11_price_26", "one_per_core", "fig11"),
}


def workload_seed(seed: int) -> int:
    """The workload seed the benchmark's ``--seed`` selects."""
    return WORKLOAD_SEEDS[(seed - WORKLOAD_SEEDS[0]) % len(WORKLOAD_SEEDS)]


# --------------------------------------------------------------------- #
# Set-up and the timed operation
# --------------------------------------------------------------------- #
class PublishClock:
    """stream-billing's publish sink: times the gap between publishes.

    Ingest stays ahead of the simulator, so the gap between two billing
    publishes is the service time of one chunk.
    """

    def __init__(self) -> None:
        self.intervals: List[float] = []
        self.records = 0
        self._last: Optional[float] = None

    def __call__(self, result: Any) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.intervals.append(now - self._last)
        self._last = now
        self.records += len(result.records)

    def restart(self) -> None:
        """Forget the last publish (a new pipeline starts)."""
        self._last = None


@dataclass
class StreamRun:
    """What one stream-billing operation produced."""

    result: Any
    clock: PublishClock


def _compiled(name: str, seed: int, tiny: bool):
    import repro.scenarios as scenarios

    spec = scenarios.load_spec(SPEC_DIR / f"{name}.toml")
    spec = replace(spec, seed=seed)
    if tiny:
        spec = replace(spec, horizon_seconds=spec.horizon_seconds / TINY_HORIZON_DIVISOR)
    return scenarios.compile_spec(spec)


def prepare(
    name: str,
    seed: int,
    work_dir: Path,
    *,
    tiny: bool = False,
    pipeline_tracing: Callable[[], Mapping[str, Any]] = dict,
) -> Callable[[], Any]:
    """Set a workload up and return its timed operation.

    Everything a user pays once before the first call happens here:
    imports, the registry and config, compiling the spec and constructing
    the ``StreamReplay``.  ``pipeline_tracing`` supplies extra
    ``StreamPipeline`` arguments (the traced run's tracer).
    """
    if name in _PRICE:
        module_name, preset, _ = _PRICE[name]
        from repro.experiments import config as configs
        from repro.experiments.harness import registry_for

        module = importlib.import_module(f"repro.experiments.{module_name}")
        config = getattr(configs, preset)(seed=seed)
        registry_for(config)
        return lambda: module.run(config)

    if name == "fleet-sweep":
        sweep = _compiled(name, seed, tiny).sweep()
        return lambda: sweep.run("vector")

    if name == "stream-billing":
        import repro.serve as serve
        from repro.scenarios import chunk_plan

        replay = serve.StreamReplay(_compiled(name, seed, tiny))
        plan = chunk_plan(replay.epochs_total, STREAM_CHUNK_EPOCHS)
        checkpoint = serve.checkpoint_path(work_dir, replay.fingerprint)

        def stream() -> StreamRun:
            clock = PublishClock()
            serve.StreamPipeline(
                replay,
                plan,
                publish=clock,
                checkpoint_to=checkpoint,
                checkpoint_every=STREAM_CHECKPOINT_EVERY,
                max_chunks=len(plan) // 2,
                finalize=False,
                **pipeline_tracing(),
            ).run()
            clock.restart()
            resumed = serve.load_checkpoint(
                checkpoint, expect_fingerprint=replay.fingerprint
            )
            serve.StreamPipeline(
                resumed,
                plan[resumed.chunks_ingested :],
                publish=clock,
                checkpoint_to=checkpoint,
                checkpoint_every=STREAM_CHECKPOINT_EVERY,
                **pipeline_tracing(),
            ).run()
            return StreamRun(resumed.result(), clock)

        return stream

    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")


def reference_output(name: str, seed: int, work_dir: Path, *, tiny: bool = False) -> str:
    """Compute a workload's reference output on the oracle path.

    ``fleet-sweep`` runs the same grid on the scalar engine;
    ``stream-billing`` runs the batch ``FleetSweep(meter=True)`` of the
    same spec; the price workloads run the figure itself (their committed
    references come from this).
    """
    if name == "fleet-sweep":
        return output_text(name, _compiled(name, seed, tiny).sweep().run("scalar"))
    if name == "stream-billing":
        sweep = _compiled(name, seed, tiny).sweep(meter=True)
        return output_text(name, sweep.run("vector"))
    return output_text(name, prepare(name, seed, work_dir)())


# --------------------------------------------------------------------- #
# Outputs and their checks
# --------------------------------------------------------------------- #
def output_text(name: str, value: Any) -> str:
    """A workload's output as text: the rendered figure, or the sweep's
    per-scenario results as JSON (floats round-trip exactly)."""
    if name in _PRICE:
        return value.render() + "\n"
    from repro.diskcache import canonical

    result = value.result if isinstance(value, StreamRun) else value
    scenarios = []
    for scenario in result.scenarios:
        fields = canonical(scenario)
        fields.pop("backend")
        scenarios.append(fields)
    return json.dumps(scenarios, sort_keys=True, indent=1) + "\n"


def reference_path(name: str, seed: int) -> Optional[Path]:
    """The committed reference of ``(workload, seed)``; ``None`` when the
    reference is computed at run time (stream-billing)."""
    if name == "stream-billing":
        return None
    if name in _PRICE:
        figure = _PRICE[name][2]
        if seed == WORKLOAD_SEEDS[0]:
            return ROOT / "results" / f"{figure}.txt"
        return REFERENCE_DIR / f"{name}-{seed}.txt"
    return REFERENCE_DIR / f"{name}-{seed}.json"


def _worst_relative_error(output: Any, reference: Any, where: str) -> float:
    """Largest relative float error; raises ValueError on any other mismatch,
    a NaN or an infinity among them."""
    if isinstance(reference, float) and isinstance(output, (int, float)):
        if output == reference:
            return 0.0
        if not (math.isfinite(output) and math.isfinite(reference)):
            raise ValueError(f"{where}: {output!r} != {reference!r}")
        # Both finite and unequal, so the larger magnitude is not zero.
        return abs(output - reference) / max(abs(reference), abs(output))
    if isinstance(reference, dict) and isinstance(output, dict):
        if sorted(output) != sorted(reference):
            raise ValueError(f"{where}: keys differ")
        return max(
            (_worst_relative_error(output[k], reference[k], f"{where}.{k}") for k in reference),
            default=0.0,
        )
    if isinstance(reference, list) and isinstance(output, list):
        if len(output) != len(reference):
            raise ValueError(f"{where}: {len(output)} entries, expected {len(reference)}")
        return max(
            (
                _worst_relative_error(o, r, f"{where}[{i}]")
                for i, (o, r) in enumerate(zip(output, reference))
            ),
            default=0.0,
        )
    if output != reference or type(output) is not type(reference):
        raise ValueError(f"{where}: {output!r} != {reference!r}")
    return 0.0


def check(name: str, output: str, reference: str) -> Tuple[Optional[str], float]:
    """Compare one run's output with its reference.

    Returns ``(error, worst_relative_error)``; ``error`` is ``None`` when
    the output is correct.  Price figures and the stream replay must match
    exactly; ``fleet-sweep`` (vector) against its scalar reference must
    match counts exactly and floats within :data:`VECTOR_RTOL`.
    """
    if name != "fleet-sweep":
        if output == reference:
            return None, 0.0
        out_lines, ref_lines = output.splitlines(), reference.splitlines()
        for number, (got, want) in enumerate(zip(out_lines, ref_lines), start=1):
            if got != want:
                return f"line {number}: {got.strip()[:60]!r} != {want.strip()[:60]!r}", math.inf
        return f"{len(out_lines)} lines, expected {len(ref_lines)}", math.inf
    try:
        worst = _worst_relative_error(json.loads(output), json.loads(reference), "scenarios")
    except ValueError as error:
        return str(error), math.inf
    if not worst <= VECTOR_RTOL:
        return f"relative error {worst:.3g} exceeds rtol {VECTOR_RTOL:g}", worst
    return None, worst


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def extras(name: str, value: Any) -> Dict[str, float]:
    """Simulated statistics and service timings beside ``run_s``.

    Price workloads: ``price_gap_pct``, the absolute gap between the
    average Litmus and ideal discounts (the paper's headline), and
    ``price_error_pct``, the geomean of the absolute per-function price
    errors, so errors that cancel in the gap still show.  stream-billing:
    the publish-to-publish chunk interval at p50 and p98, and the number of
    billing records.
    """
    if name in _PRICE:
        return {
            "price_gap_pct": abs(value.summary["discount_gap"]) * 100.0,
            "price_error_pct": value.summary["abs_error_geomean"] * 100.0,
        }
    if isinstance(value, StreamRun):
        intervals = value.clock.intervals
        return {
            "chunk_ms_p50": percentile(intervals, 50) * 1e3,
            "chunk_ms_p98": percentile(intervals, 98) * 1e3,
            "chunks_timed": float(len(intervals)),
            "records": float(value.clock.records),
        }
    return {}
