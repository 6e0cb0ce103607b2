"""Provider-side calibration: building the congestion and performance tables.

Calibration is the offline step of Section 6 (steps 1 and 2).  For every
traffic generator (CT-Gen, MB-Gen) and stress level the calibrator:

1. launches the generator's threads on their own cores,
2. runs the three language-runtime startup probes and records their
   private/shared slowdowns (against the solo startup baseline) plus the
   machine-wide L3 misses observed during each probe window — these fill the
   **congestion table**, and
3. runs the provider's reference functions under the same stress and records
   the geometric mean of their private/shared/total slowdowns — these fill
   the **performance table**.

The *scenario* describes the environment the tables are built for: the
paper's Section 7.1 tables use dedicated cores (one function per hardware
thread); the Method 2 tables of Section 7.2 are rebuilt in a temporally
shared environment (50 functions over 5 cores, i.e. 10 per core); the SMT
study rebuilds them again with SMT enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import diskcache
from repro.analysis.stats import geometric_mean
from repro.core.litmus_test import LitmusProbe, StartupBaseline, probe_spec
from repro.core.tables import (
    CongestionObservation,
    CongestionTable,
    PerformanceObservation,
    PerformanceTable,
)
from repro.hardware.contention import ContentionParameters
from repro.hardware.cpu import CPU
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.topology import MachineSpec
from repro.platform.churn import ChurnManager
from repro.platform.drivers import WorkQueueDriver
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.metering import measure_invocation
from repro.platform.oracle import SoloOracle, SoloProfile
from repro.platform.scheduler import LeastOccupancyScheduler
from repro.workloads.function import FunctionSpec
from repro.workloads.registry import FunctionRegistry, default_registry
from repro.workloads.runtimes import Language
from repro.workloads.synthetic import WorkloadMixer
from repro.workloads.traffic import GeneratorKind, TrafficGenerator, generator

#: Safety bound (simulated seconds) for one calibration run.
_MAX_RUN_SECONDS = 300.0

#: The traffic generators every calibration sweeps, in table order.
_GENERATORS = (GeneratorKind.CT, GeneratorKind.MB)

#: Base seed of a stress point's background churn (plus the stress level).
_CHURN_SEED = 1337


@dataclass(frozen=True)
class CalibrationScenario:
    """The sharing environment the tables are built for."""

    name: str
    function_thread_count: int
    functions_per_thread: int = 1
    smt_enabled: bool = False
    #: Number of long-lived background co-runners kept alive on the function
    #: threads while probes and references are measured.  ``None`` derives
    #: the value that keeps the function threads fully occupied:
    #: ``(functions_per_thread - 1) * function_thread_count``.
    background_functions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.function_thread_count < 1:
            raise ValueError("function_thread_count must be >= 1")
        if self.functions_per_thread < 1:
            raise ValueError("functions_per_thread must be >= 1")
        if self.background_functions is not None and self.background_functions < 0:
            raise ValueError("background_functions must be >= 0")

    @property
    def resolved_background_functions(self) -> int:
        if self.background_functions is not None:
            return self.background_functions
        return (self.functions_per_thread - 1) * self.function_thread_count

    @classmethod
    def dedicated(cls, function_thread_count: int = 14) -> "CalibrationScenario":
        """One function per hardware thread (Section 7.1 tables)."""
        return cls(
            name=f"dedicated-{function_thread_count}",
            function_thread_count=function_thread_count,
            functions_per_thread=1,
        )

    @classmethod
    def shared(
        cls, function_thread_count: int = 5, functions_per_thread: int = 10
    ) -> "CalibrationScenario":
        """Temporal sharing (Method 2 tables: 50 functions over 5 cores)."""
        return cls(
            name=f"shared-{function_thread_count}x{functions_per_thread}",
            function_thread_count=function_thread_count,
            functions_per_thread=functions_per_thread,
        )

    @classmethod
    def smt(
        cls, physical_cores: int = 5, functions_per_thread: int = 5
    ) -> "CalibrationScenario":
        """SMT-enabled sharing (Figure 21 tables)."""
        return cls(
            name=f"smt-{physical_cores}x{functions_per_thread}",
            function_thread_count=physical_cores * 2,
            functions_per_thread=functions_per_thread,
            smt_enabled=True,
        )


@dataclass
class CalibrationResult:
    """Everything the pricing engine needs from the offline calibration."""

    machine: MachineSpec
    scenario: CalibrationScenario
    stress_levels: Tuple[int, ...]
    generators: Tuple[GeneratorKind, ...]
    startup_baselines: Dict[Language, StartupBaseline]
    reference_baselines: Dict[str, SoloProfile]
    congestion_table: CongestionTable
    performance_table: PerformanceTable
    #: Per-(generator, level) per-reference-function slowdown triples
    #: (private, shared, total); kept for the characterization figures.
    reference_slowdowns: Dict[Tuple[GeneratorKind, int], Dict[str, Tuple[float, float, float]]]

    def probe(self) -> LitmusProbe:
        """A Litmus probe configured with this calibration's solo baselines."""
        return LitmusProbe(self.startup_baselines)

    def languages(self) -> List[Language]:
        return list(self.startup_baselines)


class Calibrator:
    """Builds congestion/performance tables for one machine and scenario."""

    def __init__(
        self,
        machine: MachineSpec,
        registry: Optional[FunctionRegistry] = None,
        scenario: Optional[CalibrationScenario] = None,
        *,
        stress_levels: Sequence[int] = (2, 6, 10, 14, 18),
        reference_repetitions: int = 1,
        probe_repetitions: int = 1,
        engine_config: Optional[EngineConfig] = None,
        contention_parameters: Optional[ContentionParameters] = None,
        oracle: Optional[SoloOracle] = None,
    ) -> None:
        if not stress_levels:
            raise ValueError("at least one stress level is required")
        if reference_repetitions < 1 or probe_repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self._machine = machine
        self._registry = registry or default_registry()
        self._scenario = scenario or CalibrationScenario.dedicated()
        self._stress_levels = tuple(sorted(set(int(level) for level in stress_levels)))
        self._reference_repetitions = reference_repetitions
        self._probe_repetitions = probe_repetitions
        self._engine_config = engine_config or EngineConfig()
        self._contention_parameters = contention_parameters
        self._oracle = oracle or SoloOracle(
            machine,
            contention_parameters=contention_parameters,
            engine_config=self._engine_config,
        )
        self._validate_topology()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def calibrate(self) -> CalibrationResult:
        """Run the full sweep and return the populated tables."""
        startup_baselines = self._collect_startup_baselines()
        reference_baselines = {
            spec.abbreviation: self._oracle.profile(spec)
            for spec in self._registry.reference_functions()
        }
        probe = LitmusProbe(startup_baselines)

        congestion = CongestionTable()
        performance = PerformanceTable()
        reference_slowdowns: Dict[
            Tuple[GeneratorKind, int], Dict[str, Tuple[float, float, float]]
        ] = {}

        for kind in _GENERATORS:
            for level in self._stress_levels:
                run = self._run_stress_point(kind, level, probe, reference_baselines)
                for observation in run.congestion_observations:
                    congestion.add(observation)
                performance.add(run.performance_observation)
                reference_slowdowns[(kind, level)] = run.per_reference_slowdowns

        return CalibrationResult(
            machine=self._machine,
            scenario=self._scenario,
            stress_levels=self._stress_levels,
            generators=_GENERATORS,
            startup_baselines=startup_baselines,
            reference_baselines=reference_baselines,
            congestion_table=congestion,
            performance_table=performance,
            reference_slowdowns=reference_slowdowns,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _validate_topology(self) -> None:
        cores = self._machine.cores
        function_cores = (
            self._scenario.function_thread_count // 2
            if self._scenario.smt_enabled
            else self._scenario.function_thread_count
        )
        max_level = max(self._stress_levels)
        if function_cores + max_level > cores:
            raise ValueError(
                f"scenario {self._scenario.name!r} needs {function_cores} function "
                f"cores plus up to {max_level} generator cores, but the machine "
                f"only has {cores} cores"
            )

    def _function_thread_ids(self, cpu: CPU) -> List[int]:
        if not self._scenario.smt_enabled:
            return list(range(self._scenario.function_thread_count))
        physical = self._scenario.function_thread_count // 2
        core_count = self._machine.cores
        ids = list(range(physical)) + [core_count + i for i in range(physical)]
        return ids

    def _generator_thread_ids(self, cpu: CPU, level: int) -> List[int]:
        if not self._scenario.smt_enabled:
            start = self._scenario.function_thread_count
        else:
            start = self._scenario.function_thread_count // 2
        return list(range(start, start + level))

    def _collect_startup_baselines(self) -> Dict[Language, StartupBaseline]:
        baselines: Dict[Language, StartupBaseline] = {}
        for language in Language:
            profile = self._oracle.profile(probe_spec(language))
            if profile.startup is None:
                raise RuntimeError(
                    f"solo probe run for {language.value} produced no startup window"
                )
            baselines[language] = StartupBaseline.from_measurement(profile.startup)
        return baselines

    def _run_stress_point(
        self,
        kind: GeneratorKind,
        level: int,
        probe: LitmusProbe,
        reference_baselines: Mapping[str, SoloProfile],
    ) -> "_StressPointResult":
        cpu = CPU(
            self._machine,
            smt_enabled=self._scenario.smt_enabled,
            frequency_policy=FrequencyPolicy.FIXED,
            contention_parameters=self._contention_parameters,
        )
        engine = SimulationEngine(
            cpu,
            LeastOccupancyScheduler(max_per_thread=self._scenario.functions_per_thread),
            config=self._engine_config,
        )
        function_threads = self._function_thread_ids(cpu)
        generator_threads = self._generator_thread_ids(cpu, level)

        traffic: TrafficGenerator = generator(kind, level)
        for spec, thread_id in zip(traffic.thread_specs(), generator_threads):
            engine.submit(spec, thread_id=thread_id, tags={"role": "generator"})

        background = self._scenario.resolved_background_functions
        if background > 0:
            mixer = WorkloadMixer(self._registry.all(), seed=_CHURN_SEED + level)
            churn = ChurnManager(mixer, background, thread_ids=function_threads)
            churn.attach(engine)

        # Stage 1: startup probes.  They are measured against the traffic
        # generator (plus, in shared scenarios, the resident co-runners) so
        # the congestion table reflects the stress level itself rather than
        # interference between calibration workloads.
        probe_items: List[FunctionSpec] = []
        for language in Language:
            probe_items.extend([probe_spec(language)] * self._probe_repetitions)
        probe_driver = WorkQueueDriver(
            probe_items,
            allowed_threads=function_threads[:1],
            max_per_thread=self._scenario.functions_per_thread,
        )
        probe_driver.attach(engine)
        finished = engine.run_until(
            lambda eng: probe_driver.done, max_seconds=_MAX_RUN_SECONDS
        )
        if not finished:
            raise RuntimeError(
                f"calibration probes (generator={kind.value}, level={level}) did "
                f"not finish within {_MAX_RUN_SECONDS} simulated seconds"
            )

        # Stage 2: reference functions.  In the dedicated scenario they run
        # one at a time so each only competes with the generator; in shared
        # scenarios they spread across the function threads on top of the
        # resident co-runners, matching how the Method 2 tables are built.
        reference_items: List[FunctionSpec] = []
        for spec in self._registry.reference_functions():
            reference_items.extend([spec] * self._reference_repetitions)
        reference_threads = (
            function_threads[:1]
            if self._scenario.functions_per_thread == 1
            else function_threads
        )
        reference_driver = WorkQueueDriver(
            reference_items,
            allowed_threads=reference_threads,
            max_per_thread=self._scenario.functions_per_thread,
        )
        reference_driver.attach(engine)
        finished = engine.run_until(
            lambda eng: reference_driver.done, max_seconds=_MAX_RUN_SECONDS
        )
        if not finished:
            raise RuntimeError(
                f"calibration references (generator={kind.value}, level={level}) "
                f"did not finish within {_MAX_RUN_SECONDS} simulated seconds"
            )
        return self._summarize_run(
            kind, level, probe_driver, reference_driver, probe, reference_baselines
        )

    def _summarize_run(
        self,
        kind: GeneratorKind,
        level: int,
        probe_driver: WorkQueueDriver,
        reference_driver: WorkQueueDriver,
        probe: LitmusProbe,
        reference_baselines: Mapping[str, SoloProfile],
    ) -> "_StressPointResult":
        probes_by_spec = probe_driver.completed_by_spec()
        by_spec = reference_driver.completed_by_spec()

        congestion_observations: List[CongestionObservation] = []
        for language in Language:
            abbr = probe_spec(language).abbreviation
            invocations = probes_by_spec.get(abbr, [])
            if not invocations:
                raise RuntimeError(
                    f"no completed probe for {language.value} at level {level}"
                )
            observations = [probe.observe(inv) for inv in invocations]
            congestion_observations.append(
                CongestionObservation(
                    generator=kind,
                    stress_level=level,
                    language=language,
                    private_slowdown=geometric_mean(
                        o.private_slowdown for o in observations
                    ),
                    shared_slowdown=geometric_mean(
                        o.shared_slowdown for o in observations
                    ),
                    total_slowdown=geometric_mean(o.total_slowdown for o in observations),
                    machine_l3_misses=sum(o.machine_l3_misses for o in observations)
                    / len(observations),
                )
            )

        per_reference: Dict[str, Tuple[float, float, float]] = {}
        for spec in self._registry.reference_functions():
            invocations = by_spec.get(spec.abbreviation, [])
            if not invocations:
                raise RuntimeError(
                    f"no completed reference run for {spec.abbreviation} at level {level}"
                )
            baseline = reference_baselines[spec.abbreviation]
            private = geometric_mean(
                measure_invocation(inv).t_private_seconds / baseline.t_private_seconds
                for inv in invocations
            )
            shared = geometric_mean(
                measure_invocation(inv).t_shared_seconds
                / max(baseline.t_shared_seconds, 1e-12)
                for inv in invocations
            )
            total = geometric_mean(
                measure_invocation(inv).t_total_seconds / baseline.t_total_seconds
                for inv in invocations
            )
            per_reference[spec.abbreviation] = (private, shared, total)

        performance = PerformanceObservation(
            generator=kind,
            stress_level=level,
            private_slowdown=geometric_mean(v[0] for v in per_reference.values()),
            shared_slowdown=geometric_mean(v[1] for v in per_reference.values()),
            total_slowdown=geometric_mean(v[2] for v in per_reference.values()),
        )
        return _StressPointResult(
            congestion_observations=congestion_observations,
            performance_observation=performance,
            per_reference_slowdowns=per_reference,
        )


@dataclass(frozen=True)
class _StressPointResult:
    congestion_observations: List[CongestionObservation]
    performance_observation: PerformanceObservation
    per_reference_slowdowns: Dict[str, Tuple[float, float, float]]


# --------------------------------------------------------------------- #
# Calibrations memoized in process and on disk (repro.diskcache)
# --------------------------------------------------------------------- #
def calibration_identity(
    machine: MachineSpec,
    scenario: CalibrationScenario,
    *,
    registry: Optional[FunctionRegistry] = None,
    stress_levels: Sequence[int] = (2, 6, 10, 14, 18),
    reference_repetitions: int = 1,
    probe_repetitions: int = 1,
    engine_config: Optional[EngineConfig] = None,
    contention_parameters: Optional[ContentionParameters] = None,
) -> Tuple[object, ...]:
    """Everything :func:`calibrate_cached`'s tables are a pure function of.

    It is the calibration's memo identity and, fingerprinted, its disk
    key: the full CPU topology and scenario, the distinct stress levels,
    the registry contents (phases included), the repetitions, the engine
    configuration and the contention parameters.
    """
    engine_config = engine_config or EngineConfig()
    return (
        machine,
        scenario,
        tuple(sorted(set(int(level) for level in stress_levels))),
        diskcache.registry_fingerprint((registry or default_registry()).all()),
        reference_repetitions,
        probe_repetitions,
        engine_config.epoch_seconds,
        engine_config.fixed_point_iterations,
        contention_parameters,
    )


def calibrate_cached(
    machine: MachineSpec,
    scenario: CalibrationScenario,
    *,
    registry: Optional[FunctionRegistry] = None,
    stress_levels: Sequence[int] = (2, 6, 10, 14, 18),
    reference_repetitions: int = 1,
    probe_repetitions: int = 1,
    engine_config: Optional[EngineConfig] = None,
    oracle: Optional[SoloOracle] = None,
) -> CalibrationResult:
    """Calibrate once per :func:`calibration_identity` — ever.

    Calibration sweeps are the most expensive part of the study, so they
    go through :func:`repro.diskcache.memoized`: every Method 2 pricing
    figure in one process reuses the same sharing-scenario tables, exactly
    as a provider would, and parallel figure workers and repeated sweeps
    (CI runs, staleness checks) calibrate each configuration once per
    machine rather than once per process.
    """
    # Imported here: persistence imports this module at top level.
    from repro.core.persistence import calibration_from_dict, calibration_to_dict

    registry = registry or default_registry()
    # A custom oracle carries its own contention parameters into the solo
    # baselines, so they are part of the identity.  They must also drive
    # the stress-point CPUs: without that a recalibrated profile's tables
    # would mix the new solo baselines with default-coefficient congestion
    # measurements.
    contention_parameters = None if oracle is None else oracle.contention_parameters
    identity = calibration_identity(
        machine,
        scenario,
        registry=registry,
        stress_levels=stress_levels,
        reference_repetitions=reference_repetitions,
        probe_repetitions=probe_repetitions,
        engine_config=engine_config,
        contention_parameters=contention_parameters,
    )

    def calibrate() -> CalibrationResult:
        return Calibrator(
            machine,
            registry,
            scenario,
            stress_levels=stress_levels,
            reference_repetitions=reference_repetitions,
            probe_repetitions=probe_repetitions,
            engine_config=engine_config,
            contention_parameters=contention_parameters,
            oracle=oracle,
        ).calibrate()

    return diskcache.memoized(
        "calibration",
        identity,
        calibrate,
        calibration_to_dict,
        # The identity binds the whole spec, so the entry's machine is
        # ``machine`` itself, whether or not the machine table knows it.
        lambda payload: calibration_from_dict(payload, machine),
    )
