"""Shared experiment machinery.

Two kinds of runs cover almost every figure in the paper:

* a **characterization run** (Figures 2-4): all 27 benchmarks co-run and
  their slowdowns / time splits are measured against the solo oracle;
* a **price evaluation run** (Figures 11-13 and 15-21): the 14 test
  functions are priced with Litmus while co-runner churn keeps the target
  congestion level, and the Litmus price is compared against the ideal and
  commercial prices.

Both return plain-data results that the ``figXX_*`` modules and the
benchmarks render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import diskcache
from repro.analysis.errors import PriceErrorBreakdown, price_error_breakdown
from repro.analysis.reporting import format_table
from repro.analysis.stats import geometric_mean
from repro.core import calibration as core_calibration
from repro.core.calibration import CalibrationResult, calibrate_cached
from repro.core.estimator import CongestionEstimator
from repro.core.pricing import IdealPricing, LitmusPricingEngine, PriceQuote
from repro.core.sharing import Method1Adjustment
from repro.experiments.config import ChurnPool, ExperimentConfig, PricingMethod
from repro.hardware.cpu import CPU
from repro.platform.churn import ChurnManager
from repro.platform.drivers import RepeatingSubmitter, SubmitterGroup
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.invoker import Invocation
from repro.platform.metering import measure_invocation
from repro.platform.oracle import SoloOracle, SoloProfile
from repro.platform.scheduler import LeastOccupancyScheduler
from repro.workloads.function import FunctionSpec
from repro.workloads.registry import FunctionRegistry, default_registry
from repro.workloads.synthetic import WorkloadMixer


# --------------------------------------------------------------------- #
# Result containers
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FigureResult:
    """A regenerated figure/table: rows of data plus a summary."""

    name: str
    description: str
    columns: Tuple[str, ...]
    rows: Tuple[Mapping[str, object], ...]
    summary: Mapping[str, float]

    def render(self) -> str:
        """Plain-text rendering (what the benchmark harness prints)."""
        table = format_table(list(self.rows), list(self.columns), title=self.description)
        summary_lines = [f"  {key} = {value:.4f}" for key, value in self.summary.items()]
        return "\n".join([table, "summary:"] + summary_lines)


@dataclass(frozen=True)
class FunctionCharacterization:
    """Per-function slowdowns of a characterization run."""

    function: str
    total_slowdown: float
    private_slowdown: float
    shared_slowdown: float
    solo_shared_fraction: float
    congested_shared_fraction: float


@dataclass(frozen=True)
class CharacterizationResult:
    """Figures 2-4: slowdowns and time splits of all benchmarks co-running."""

    config_name: str
    functions: Tuple[FunctionCharacterization, ...]

    @property
    def gmean_total_slowdown(self) -> float:
        return geometric_mean(f.total_slowdown for f in self.functions)

    @property
    def gmean_private_slowdown(self) -> float:
        return geometric_mean(f.private_slowdown for f in self.functions)

    @property
    def gmean_shared_slowdown(self) -> float:
        return geometric_mean(f.shared_slowdown for f in self.functions)

    @property
    def max_total_slowdown(self) -> float:
        return max(f.total_slowdown for f in self.functions)


@dataclass(frozen=True)
class PriceComparisonRow:
    """One test function's prices under the three schemes."""

    function: str
    litmus_normalized_price: float
    ideal_normalized_price: float
    estimated_private_slowdown: float
    estimated_shared_slowdown: float
    actual_private_slowdown: float
    actual_shared_slowdown: float
    errors: PriceErrorBreakdown

    @property
    def litmus_discount(self) -> float:
        return 1.0 - self.litmus_normalized_price

    @property
    def ideal_discount(self) -> float:
        return 1.0 - self.ideal_normalized_price


@dataclass(frozen=True)
class PriceEvaluationResult:
    """A full price-evaluation run (one of Figures 11, 15-21)."""

    config_name: str
    rows: Tuple[PriceComparisonRow, ...]

    @property
    def gmean_litmus_price(self) -> float:
        return geometric_mean(r.litmus_normalized_price for r in self.rows)

    @property
    def gmean_ideal_price(self) -> float:
        return geometric_mean(r.ideal_normalized_price for r in self.rows)

    @property
    def average_litmus_discount(self) -> float:
        return 1.0 - self.gmean_litmus_price

    @property
    def average_ideal_discount(self) -> float:
        return 1.0 - self.gmean_ideal_price

    @property
    def discount_gap(self) -> float:
        """Signed gap between the Litmus and ideal average discounts."""
        return self.average_litmus_discount - self.average_ideal_discount

    @property
    def abs_error_geomean(self) -> float:
        return geometric_mean(
            max(row.errors.absolute_total_error, 1e-6) for row in self.rows
        )

    @property
    def max_abs_error(self) -> float:
        return max(row.errors.absolute_total_error for row in self.rows)


# --------------------------------------------------------------------- #
# Shared environment plumbing
# --------------------------------------------------------------------- #
_REGISTRY_CACHE: Dict[float, FunctionRegistry] = {}


def registry_for(config: ExperimentConfig) -> FunctionRegistry:
    """The (body-scaled) registry used by a configuration."""
    scale = config.registry_scale
    if scale not in _REGISTRY_CACHE:
        registry = default_registry()
        _REGISTRY_CACHE[scale] = registry if scale == 1.0 else registry.scaled(scale)
    return _REGISTRY_CACHE[scale]


def oracle_for(config: ExperimentConfig, *, contention_parameters=None) -> SoloOracle:
    """The solo oracle for a configuration's machine and epoch length.

    ``contention_parameters`` selects a recalibrated model fit; the
    default ``None`` keeps the as-shipped coefficients.  The oracle holds
    no state: its profiles are memoized under an identity that covers the
    full machine topology and the fit, so figures mixing nominal and
    recalibrated tables never cross-contaminate solo baselines.
    """
    return SoloOracle(
        config.machine,
        contention_parameters=contention_parameters,
        engine_config=EngineConfig(epoch_seconds=config.epoch_seconds),
    )


def calibration_for(
    config: ExperimentConfig, *, contention_parameters=None
) -> CalibrationResult:
    """The calibration tables a configuration's pricing method relies on.

    Passing ``contention_parameters`` rebuilds the tables under a
    recalibrated model fit.  The continuous-calibration service's published
    fits enter the figure pipeline here::

        from repro.calibrate import fitted_profile

        fitted = fitted_profile(nominal_profile, calibration_config)
        calibration_for(config, contention_parameters=fitted.contention)

    ``fitted_profile`` falls back to the nominal coefficients when no fit
    is published or the stored one fails its fingerprint guard.
    """
    return calibrate_cached(
        config.machine,
        config.calibration_scenario,
        registry=registry_for(config),
        stress_levels=config.calibration_levels,
        engine_config=EngineConfig(epoch_seconds=config.epoch_seconds),
        oracle=oracle_for(config, contention_parameters=contention_parameters),
    )


#: Figure/table name -> factory for the default ExperimentConfig whose
#: calibration tables it needs.  Only calibration-dependent jobs appear;
#: jobs absent from this map simply aren't warmed.  Kept in sync with the
#: ``config or <factory>()`` defaults in the figure modules (a regression
#: test cross-checks the distinct-calibration count).
def _calibration_config_factories() -> Dict[str, Any]:
    from repro.experiments.config import (
        heavy_320,
        icelake_70,
        one_per_core,
        sharing_160,
        sharing_240_reused,
        smt_160,
        unfixed_frequency_160,
    )

    def sharing_method1() -> ExperimentConfig:
        return sharing_160(PricingMethod.METHOD1)

    def sharing_method2() -> ExperimentConfig:
        return sharing_160(PricingMethod.METHOD2)

    return {
        "fig05": one_per_core,
        "fig07": one_per_core,
        "fig08": one_per_core,
        "fig09": one_per_core,
        "fig10": one_per_core,
        "fig11": one_per_core,
        "fig12": one_per_core,
        "fig13": one_per_core,
        "fig15": sharing_method1,
        "fig16": sharing_method2,
        "fig17": heavy_320,
        "fig18": unfixed_frequency_160,
        "fig19": icelake_70,
        "fig20": sharing_240_reused,
        "fig21": smt_160,
        "ablation-rate-split": one_per_core,
        "ablation-interpolation": one_per_core,
        "ablation-reference-count": one_per_core,
    }


def calibration_identity(config: ExperimentConfig) -> Tuple[object, ...]:
    """What makes two configs share one calibration: its memo identity."""
    return core_calibration.calibration_identity(
        config.machine,
        config.calibration_scenario,
        registry=registry_for(config),
        stress_levels=config.calibration_levels,
        engine_config=EngineConfig(epoch_seconds=config.epoch_seconds),
    )


def warm_shared_calibrations(names: Sequence[str]) -> int:
    """Calibrate every distinct configuration ``names`` will need, once.

    The parallel figure runner calls this in the parent process *before*
    fanning jobs out: workers start at the same moment, so on a cold cache
    each would otherwise redo the same expensive calibration sweeps
    concurrently (the ``jobs=2`` regression: 137.6s vs ~50s sequential).
    Warming in the parent persists each calibration to the disk cache
    exactly once; workers then start warm.  Returns the number of
    calibrations computed-or-loaded (the distinct-identity count).
    """
    factories = _calibration_config_factories()
    seen: Dict[Tuple[object, ...], ExperimentConfig] = {}
    for name in names:
        factory = factories.get(name)
        if factory is None:
            continue
        config = factory()
        seen.setdefault(calibration_identity(config), config)
    for config in seen.values():
        calibration_for(config)
    return len(seen)


def pricing_engine_for(
    config: ExperimentConfig, calibration: Optional[CalibrationResult] = None
) -> LitmusPricingEngine:
    """Build the Litmus pricing engine a configuration prescribes."""
    calibration = calibration or calibration_for(config)
    estimator = CongestionEstimator(calibration)
    method1 = None
    if config.method is PricingMethod.METHOD1:
        method1 = Method1Adjustment(functions_per_thread=config.functions_per_thread)
    return LitmusPricingEngine(estimator, method1=method1)


def _churn_pool(config: ExperimentConfig, registry: FunctionRegistry) -> List[FunctionSpec]:
    if config.churn_pool is ChurnPool.MEMORY_INTENSIVE:
        return registry.memory_intensive()
    return registry.all()


def build_environment(
    config: ExperimentConfig,
    test_specs: Sequence[FunctionSpec],
    backend: str = "scalar",
) -> Tuple["SimulationEngine | VectorEngine", SubmitterGroup]:  # noqa: F821
    """Create the evaluation engine with test submitters and churn attached.

    ``backend`` selects the simulation engine: ``"scalar"`` is the bit-exact
    reference (:class:`SimulationEngine`); ``"vector"`` runs the same
    environment on the NumPy fleet backend
    (:class:`repro.platform.batch.VectorEngine`) — the drivers and churn are
    reused unchanged, and results agree with the scalar engine to float
    rounding noise (the property tests assert rtol=1e-9).
    """
    registry = registry_for(config)
    if backend == "vector":
        if config.smt_enabled:
            raise ValueError(
                "the vector backend does not support SMT sharing domains; "
                "use backend='scalar'"
            )
        from repro.platform.batch import VectorEngine, VectorEngineConfig

        engine = VectorEngine(
            config.machine,
            machines=1,
            config=VectorEngineConfig(epoch_seconds=config.epoch_seconds),
            frequency_policy=config.frequency_policy,
        )
    elif backend == "scalar":
        cpu = CPU(
            config.machine,
            smt_enabled=config.smt_enabled,
            frequency_policy=config.frequency_policy,
        )
        engine = SimulationEngine(
            cpu,
            LeastOccupancyScheduler(
                allowed_threads=config.eval_thread_ids(),
                max_per_thread=config.functions_per_thread,
            ),
            config=EngineConfig(epoch_seconds=config.epoch_seconds),
        )
    else:
        raise ValueError(f"unknown backend {backend!r}; expected 'scalar' or 'vector'")

    thread_ids = list(config.eval_thread_ids())
    submitters: List[RepeatingSubmitter] = []
    for index, spec in enumerate(test_specs):
        thread_id = thread_ids[index % len(thread_ids)]
        submitters.append(
            RepeatingSubmitter(
                spec, repetitions=config.repetitions, thread_id=thread_id
            )
        )
    group = SubmitterGroup(submitters)
    group.attach(engine)

    churn_count = max(config.total_functions - len(test_specs), 0)
    if churn_count > 0:
        mixer = WorkloadMixer(_churn_pool(config, registry), seed=config.seed)
        churn = ChurnManager(mixer, churn_count, thread_ids=thread_ids)
        churn.attach(engine)
    return engine, group


# --------------------------------------------------------------------- #
# Characterization runs (Figures 2-4)
# --------------------------------------------------------------------- #
def run_characterization(
    config: ExperimentConfig, backend: str = "scalar"
) -> CharacterizationResult:
    """Co-run every benchmark and measure its slowdown and time split."""
    registry = registry_for(config)
    oracle = oracle_for(config)
    specs = registry.all()
    engine, group = build_environment(config, specs, backend=backend)
    finished = engine.run_until(lambda eng: group.done, max_seconds=config.max_seconds)
    if not finished:
        raise RuntimeError(
            f"characterization run {config.name!r} did not finish within "
            f"{config.max_seconds} simulated seconds"
        )

    functions: List[FunctionCharacterization] = []
    for spec in specs:
        invocations = group.completed_by_spec()[spec.abbreviation]
        measurements = [measure_invocation(inv) for inv in invocations]
        solo = oracle.profile(spec)
        total = geometric_mean(
            m.t_total_seconds / solo.t_total_seconds for m in measurements
        )
        private = geometric_mean(
            m.t_private_seconds / solo.t_private_seconds for m in measurements
        )
        shared = geometric_mean(
            m.t_shared_seconds / max(solo.t_shared_seconds, 1e-12)
            for m in measurements
        )
        congested_fraction = sum(m.shared_fraction for m in measurements) / len(
            measurements
        )
        functions.append(
            FunctionCharacterization(
                function=spec.abbreviation,
                total_slowdown=total,
                private_slowdown=private,
                shared_slowdown=shared,
                solo_shared_fraction=solo.execution.shared_fraction,
                congested_shared_fraction=congested_fraction,
            )
        )
    return CharacterizationResult(config_name=config.name, functions=tuple(functions))


# --------------------------------------------------------------------- #
# Price evaluation runs (Figures 11-13, 15-21)
# --------------------------------------------------------------------- #
def run_price_evaluation(
    config: ExperimentConfig, backend: str = "scalar"
) -> PriceEvaluationResult:
    """Price the 14 test functions under a configuration's environment."""
    registry = registry_for(config)
    oracle = oracle_for(config)
    calibration = calibration_for(config)
    pricer = pricing_engine_for(config, calibration)
    ideal = IdealPricing()

    test_specs = registry.test_functions()
    engine, group = build_environment(config, test_specs, backend=backend)
    finished = engine.run_until(lambda eng: group.done, max_seconds=config.max_seconds)
    if not finished:
        raise RuntimeError(
            f"price evaluation {config.name!r} did not finish within "
            f"{config.max_seconds} simulated seconds"
        )

    rows: List[PriceComparisonRow] = []
    for spec in test_specs:
        invocations = group.completed_by_spec()[spec.abbreviation]
        solo = oracle.profile(spec)
        rows.append(_compare_prices(spec, invocations, solo, pricer, ideal))
    return PriceEvaluationResult(config_name=config.name, rows=tuple(rows))


def _price_evaluation_from_dict(payload: Mapping[str, Any]) -> PriceEvaluationResult:
    rows = tuple(
        PriceComparisonRow(
            function=row["function"],
            litmus_normalized_price=row["litmus_normalized_price"],
            ideal_normalized_price=row["ideal_normalized_price"],
            estimated_private_slowdown=row["estimated_private_slowdown"],
            estimated_shared_slowdown=row["estimated_shared_slowdown"],
            actual_private_slowdown=row["actual_private_slowdown"],
            actual_shared_slowdown=row["actual_shared_slowdown"],
            errors=PriceErrorBreakdown(**row["errors"]),
        )
        for row in payload["rows"]
    )
    return PriceEvaluationResult(config_name=payload["config_name"], rows=rows)


def price_evaluation_cached(
    config: ExperimentConfig, backend: str = "scalar"
) -> PriceEvaluationResult:
    """Run (or reuse) the price evaluation for a configuration.

    Several figures present different views of the same run — e.g. Figures
    11, 12 and 13 all come from the one-function-per-core evaluation — so
    results go through :func:`repro.diskcache.memoized`, and neither one
    process nor parallel figure workers and repeated sweeps re-simulate
    the same environment.  The identity is the complete configuration
    (machine topology, seed and epoch length included) plus the scaled
    registry contents; vector-backend results get their own identity so
    they can never leak into the bit-exact scalar figures.
    """
    identity: Tuple[object, ...] = (
        config,
        diskcache.registry_fingerprint(registry_for(config).all()),
    )
    if backend != "scalar":
        identity += (f"backend={backend}",)
    return diskcache.memoized(
        "price-eval",
        identity,
        lambda: run_price_evaluation(config, backend=backend),
        diskcache.canonical,
        _price_evaluation_from_dict,
    )


def clear_experiment_caches() -> None:
    """Forget scaled registries and every memoized artefact (for tests)."""
    _REGISTRY_CACHE.clear()
    diskcache.forget()


def _compare_prices(
    spec: FunctionSpec,
    invocations: Sequence[Invocation],
    solo: SoloProfile,
    pricer: LitmusPricingEngine,
    ideal: IdealPricing,
) -> PriceComparisonRow:
    quotes: List[PriceQuote] = [pricer.quote(inv) for inv in invocations]
    ideal_price = ideal.price(spec.memory_gb, solo)

    litmus_normalized = geometric_mean(q.normalized_price for q in quotes)
    ideal_normalized = geometric_mean(
        ideal_price.total / q.commercial.total for q in quotes
    )
    estimated_private = geometric_mean(q.estimate.private_slowdown for q in quotes)
    estimated_shared = geometric_mean(q.estimate.shared_slowdown for q in quotes)
    actual_private = geometric_mean(
        q.components.t_private_seconds / solo.t_private_seconds for q in quotes
    )
    actual_shared = geometric_mean(
        q.components.t_shared_seconds / max(solo.t_shared_seconds, 1e-12)
        for q in quotes
    )

    mean_litmus_private = sum(q.litmus.private for q in quotes) / len(quotes)
    mean_litmus_shared = sum(q.litmus.shared for q in quotes) / len(quotes)
    errors = price_error_breakdown(
        function=spec.abbreviation,
        litmus_private=mean_litmus_private,
        litmus_shared=mean_litmus_shared,
        ideal_private=ideal_price.private,
        ideal_shared=ideal_price.shared,
    )
    return PriceComparisonRow(
        function=spec.abbreviation,
        litmus_normalized_price=litmus_normalized,
        ideal_normalized_price=ideal_normalized,
        estimated_private_slowdown=estimated_private,
        estimated_shared_slowdown=estimated_shared,
        actual_private_slowdown=actual_private,
        actual_shared_slowdown=actual_shared,
        errors=errors,
    )


def price_rows_for_figure(result: PriceEvaluationResult) -> List[Mapping[str, object]]:
    """Render a price-evaluation result as figure rows (one per function)."""
    rows: List[Mapping[str, object]] = []
    for row in result.rows:
        rows.append(
            {
                "function": row.function,
                "litmus_price": row.litmus_normalized_price,
                "ideal_price": row.ideal_normalized_price,
                "litmus_discount": row.litmus_discount,
                "ideal_discount": row.ideal_discount,
            }
        )
    rows.append(
        {
            "function": "gmean",
            "litmus_price": result.gmean_litmus_price,
            "ideal_price": result.gmean_ideal_price,
            "litmus_discount": result.average_litmus_discount,
            "ideal_discount": result.average_ideal_discount,
        }
    )
    return rows


def price_figure_result(
    name: str, description: str, result: PriceEvaluationResult
) -> FigureResult:
    """Package a price-evaluation result as a standard figure result."""
    return FigureResult(
        name=name,
        description=description,
        columns=("function", "litmus_price", "ideal_price", "litmus_discount", "ideal_discount"),
        rows=tuple(price_rows_for_figure(result)),
        summary={
            "average_litmus_discount": result.average_litmus_discount,
            "average_ideal_discount": result.average_ideal_discount,
            "discount_gap": result.discount_gap,
            "abs_error_geomean": result.abs_error_geomean,
            "max_abs_error": result.max_abs_error,
        },
    )
