"""Temporal-sharing support: the switching-overhead curve and Method 1.

When functions temporally share a CPU (Section 7.2), a switched-out
function's cached state is evicted by whoever runs next, inflating its
``T_private`` by an amount that grows with the number of co-located
functions and saturates around 20 of them (Figure 14).

The paper offers two ways to price in this environment:

* **Method 1** keeps the tables built on dedicated cores but (a) removes the
  switching overhead from the probe's ``T_private`` reading before looking
  up the tables and (b) adds the overhead back as an extra discount factor
  on the private charging rate.
* **Method 2** simply rebuilds the tables in the shared environment — that
  is handled by running the :class:`repro.core.calibration.Calibrator` with
  a shared :class:`repro.core.calibration.CalibrationScenario`, so this
  module only provides Method 1 plus the measurement harness for the
  switching curve itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.analysis.stats import geometric_mean
from repro.core.litmus_test import LitmusObservation
from repro.hardware.cpu import CPU
from repro.hardware.topology import MachineSpec
from repro.platform.drivers import RepeatingSubmitter, SubmitterGroup
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.metering import measure_invocation
from repro.platform.oracle import SoloOracle
from repro.platform.scheduler import LeastOccupancyScheduler, SwitchingOverheadModel
from repro.workloads.function import FunctionSpec
from repro.workloads.registry import FunctionRegistry, default_registry

#: Safety bound (simulated seconds) for one switching-curve measurement run.
_MAX_RUN_SECONDS = 300.0

#: The functions whose ``T_private`` inflation the switching curve averages.
_MEASURED_FUNCTIONS = ("auth-py", "aes-go", "cur-nj")


@dataclass(frozen=True)
class Method1Adjustment:
    """Calibrates Litmus pricing for temporal sharing without new tables."""

    #: Average number of functions sharing a hardware thread in the target
    #: environment (10 in the paper's Section 7.2 configuration).
    functions_per_thread: float
    #: The switching-overhead curve; defaults to the platform's model.
    overhead_model: SwitchingOverheadModel = SwitchingOverheadModel()

    def __post_init__(self) -> None:
        if self.functions_per_thread < 1:
            raise ValueError("functions_per_thread must be >= 1")

    @property
    def switching_factor(self) -> float:
        """The T_private inflation expected from sharing alone (e.g. ~1.025)."""
        return self.overhead_model.factor(self.functions_per_thread)

    def adjust_observation(self, observation: LitmusObservation) -> LitmusObservation:
        """Remove the switching overhead from the probe's private slowdown.

        The dedicated-core congestion table knows nothing about context
        switching, so the probe reading must be mapped back onto the
        conditions the table was built under before it is used as an index.
        """
        factor = self.switching_factor
        return replace(
            observation,
            private_slowdown=max(observation.private_slowdown / factor, 1e-6),
            total_slowdown=max(observation.total_slowdown / factor, 1e-6),
        )


@dataclass(frozen=True)
class SwitchingCurvePoint:
    """One point of the Figure 14 curve."""

    functions_per_thread: int
    t_private_inflation: float


def measure_switching_curve(
    machine: MachineSpec,
    counts: Sequence[int] = (1, 2, 4, 6, 8, 10, 15, 20, 25),
    *,
    registry: Optional[FunctionRegistry] = None,
    repetitions: int = 1,
    engine_config: Optional[EngineConfig] = None,
    backend: str = "scalar",
) -> List[SwitchingCurvePoint]:
    """Measure ``T_private`` inflation versus co-located function count.

    For every count ``n`` the harness pins ``n`` functions onto a single
    hardware thread of an otherwise idle machine and measures how much the
    probe functions' per-invocation ``T_private`` grows relative to running
    alone — the experiment behind Figure 14 and behind Method 1's
    calibration factor.  ``backend="vector"`` runs the co-located stints on
    the NumPy fleet engine instead of the scalar reference (the solo oracle
    always stays scalar).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    registry = registry or default_registry()
    specs: List[FunctionSpec] = [registry.get(abbr) for abbr in _MEASURED_FUNCTIONS]
    engine_config = engine_config or EngineConfig()
    oracle = SoloOracle(machine, engine_config=engine_config)

    points: List[SwitchingCurvePoint] = []
    for count in counts:
        if count < 1:
            raise ValueError("co-located counts must be >= 1")
        inflations = _measure_inflation_at_count(
            machine,
            specs,
            count,
            repetitions,
            engine_config,
            oracle,
            backend,
        )
        points.append(
            SwitchingCurvePoint(
                functions_per_thread=count,
                t_private_inflation=geometric_mean(inflations),
            )
        )
    return points


def _measure_inflation_at_count(
    machine: MachineSpec,
    specs: Sequence[FunctionSpec],
    count: int,
    repetitions: int,
    engine_config: EngineConfig,
    oracle: SoloOracle,
    backend: str = "scalar",
) -> List[float]:
    if backend == "vector":
        from repro.platform.batch import VectorEngine, VectorEngineConfig

        engine = VectorEngine(
            machine,
            machines=1,
            config=VectorEngineConfig(
                epoch_seconds=engine_config.epoch_seconds,
                fixed_point_iterations=engine_config.fixed_point_iterations,
            ),
        )
    elif backend == "scalar":
        cpu = CPU(machine, smt_enabled=False)
        engine = SimulationEngine(
            cpu,
            LeastOccupancyScheduler(max_per_thread=max(count, 1)),
            config=engine_config,
        )
    else:
        raise ValueError(f"unknown backend {backend!r}; expected 'scalar' or 'vector'")
    submitters: List[RepeatingSubmitter] = []
    # Fill the single shared thread with `count` co-located functions by
    # cycling through the measurement specs.
    for slot in range(count):
        spec = specs[slot % len(specs)]
        submitters.append(
            RepeatingSubmitter(spec, repetitions=repetitions, thread_id=0, role="switching")
        )
    group = SubmitterGroup(submitters)
    group.attach(engine)
    finished = engine.run_until(lambda eng: group.done, max_seconds=_MAX_RUN_SECONDS)
    if not finished:
        raise RuntimeError(
            f"switching-curve run with {count} co-located functions did not finish"
        )

    inflations: List[float] = []
    for submitter in submitters[: len(specs)]:
        solo = oracle.profile(submitter.spec)
        solo_private_per_instruction = (
            solo.execution.t_private_seconds / solo.execution.instructions
        )
        for invocation in submitter.completed:
            measurement = measure_invocation(invocation)
            private_per_instruction = (
                measurement.t_private_seconds / measurement.instructions
            )
            inflations.append(private_per_instruction / solo_private_per_instruction)
    return inflations
