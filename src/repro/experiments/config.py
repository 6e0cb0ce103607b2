"""Named experiment configurations matching the paper's evaluation setups.

Every configuration bundles the evaluation environment (machine, how many
functions co-run, how many hardware threads they share, SMT, frequency
policy), which pricing method is used (plain Litmus, Method 1 or Method 2 of
Section 7.2) and which calibration scenario/levels feed the tables.

The ``registry_scale`` knob shortens every function's *body* (never the
startup probe window) so the whole study runs in seconds on a laptop;
slowdowns and prices are ratios of rates, so scaling lengths leaves the
results essentially unchanged.  Presets default to the quick scale; pass
``registry_scale=1.0`` for full-length runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.core.calibration import CalibrationScenario
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.topology import CASCADE_LAKE_5218, ICE_LAKE_4314, MachineSpec


class PricingMethod(enum.Enum):
    """Which Litmus variant prices the invocations."""

    #: Dedicated-core tables used directly (Section 7.1).
    PLAIN = "plain"
    #: Dedicated-core tables plus the switching-overhead calibration of
    #: Section 7.2, Method 1.
    METHOD1 = "method1"
    #: Tables rebuilt in the shared environment (Section 7.2, Method 2).
    METHOD2 = "method2"


class ChurnPool(enum.Enum):
    """Which functions the co-runner churn draws from."""

    ALL = "all"
    MEMORY_INTENSIVE = "memory-intensive"


@dataclass(frozen=True)
class ExperimentConfig:
    """One evaluation environment plus its pricing configuration."""

    name: str
    machine: MachineSpec = CASCADE_LAKE_5218
    #: Total number of co-running functions kept alive (tests + churn).
    total_functions: int = 27
    #: Physical cores hosting functions during the evaluation.
    eval_physical_cores: int = 27
    #: Functions per hardware thread (1 = dedicated, 10 = Section 7.2).
    functions_per_thread: int = 1
    smt_enabled: bool = False
    frequency_policy: FrequencyPolicy = FrequencyPolicy.FIXED
    churn_pool: ChurnPool = ChurnPool.ALL
    method: PricingMethod = PricingMethod.PLAIN
    calibration_scenario: CalibrationScenario = field(
        default_factory=CalibrationScenario.dedicated
    )
    calibration_levels: Tuple[int, ...] = (4, 10, 14, 18)
    repetitions: int = 2
    registry_scale: float = 0.4
    epoch_seconds: float = 1e-3
    seed: int = 2024
    max_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.total_functions < 1:
            raise ValueError("total_functions must be >= 1")
        if self.eval_physical_cores < 1:
            raise ValueError("eval_physical_cores must be >= 1")
        if self.eval_physical_cores > self.machine.cores:
            raise ValueError(
                f"config {self.name!r} asks for {self.eval_physical_cores} cores "
                f"but {self.machine.name} has only {self.machine.cores}"
            )
        if self.functions_per_thread < 1:
            raise ValueError("functions_per_thread must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.registry_scale <= 0:
            raise ValueError("registry_scale must be positive")

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #
    def eval_thread_ids(self) -> Tuple[int, ...]:
        """The hardware-thread ids functions run on during the evaluation.

        Thread ids follow the Linux-style numbering used by the CPU model:
        the SMT-sibling of core ``c`` is ``machine.cores + c``.
        """
        cores = range(self.eval_physical_cores)
        if not self.smt_enabled:
            return tuple(cores)
        return tuple(cores) + tuple(self.machine.cores + c for c in cores)

    @property
    def co_runners(self) -> int:
        """Co-running functions seen by each test invocation."""
        return self.total_functions - 1

    def quick(self, repetitions: int = 1, registry_scale: float = 0.25) -> "ExperimentConfig":
        """A cheaper copy of this config for smoke tests."""
        return replace(
            self, repetitions=repetitions, registry_scale=registry_scale
        )

    def full(self) -> "ExperimentConfig":
        """A full-length copy (paper-scale bodies, more repetitions)."""
        return replace(self, registry_scale=1.0, repetitions=5)


# --------------------------------------------------------------------- #
# Presets: one per evaluation setup in the paper
# --------------------------------------------------------------------- #
def one_per_core(**overrides) -> ExperimentConfig:
    """Section 7.1 / Figures 11-13: 27 functions, one per core."""
    return replace(
        ExperimentConfig(
            name="one-per-core-27",
            total_functions=27,
            eval_physical_cores=27,
            functions_per_thread=1,
            method=PricingMethod.PLAIN,
            calibration_scenario=CalibrationScenario.dedicated(),
        ),
        **overrides,
    )


def sharing_160(method: PricingMethod = PricingMethod.METHOD2, **overrides) -> ExperimentConfig:
    """Section 7.2 / Figures 15-16: 160 functions over 16 cores."""
    scenario = (
        CalibrationScenario.dedicated()
        if method is not PricingMethod.METHOD2
        else CalibrationScenario.shared()
    )
    return replace(
        ExperimentConfig(
            name=f"sharing-160-{method.value}",
            total_functions=160,
            eval_physical_cores=16,
            functions_per_thread=10,
            method=method,
            calibration_scenario=scenario,
        ),
        **overrides,
    )


def heavy_320(**overrides) -> ExperimentConfig:
    """Figure 17: 320 co-running functions, memory-intensive churn mix."""
    return replace(
        ExperimentConfig(
            name="heavy-320",
            total_functions=320,
            eval_physical_cores=16,
            functions_per_thread=20,
            churn_pool=ChurnPool.MEMORY_INTENSIVE,
            method=PricingMethod.METHOD2,
            calibration_scenario=CalibrationScenario.shared(),
        ),
        **overrides,
    )


def unfixed_frequency_160(**overrides) -> ExperimentConfig:
    """Figure 18: the 160-function setup with Turbo left enabled."""
    return replace(
        sharing_160(PricingMethod.METHOD2),
        name="sharing-160-turbo",
        frequency_policy=FrequencyPolicy.TURBO,
        **overrides,
    )


def icelake_70(**overrides) -> ExperimentConfig:
    """Figure 19: Xeon Silver 4314 (Ice Lake), 70 functions over 7 cores."""
    return replace(
        ExperimentConfig(
            name="icelake-70",
            machine=ICE_LAKE_4314,
            total_functions=70,
            eval_physical_cores=7,
            functions_per_thread=10,
            method=PricingMethod.METHOD2,
            calibration_scenario=CalibrationScenario.shared(),
            calibration_levels=(3, 6, 9, 11),
        ),
        **overrides,
    )


def sharing_240_reused(**overrides) -> ExperimentConfig:
    """Figure 20: 240 functions (15 per core) reusing the 10-per-core tables."""
    return replace(
        ExperimentConfig(
            name="sharing-240-reused-tables",
            total_functions=240,
            eval_physical_cores=16,
            functions_per_thread=15,
            method=PricingMethod.METHOD2,
            calibration_scenario=CalibrationScenario.shared(),
        ),
        **overrides,
    )


def smt_160(**overrides) -> ExperimentConfig:
    """Figure 21: SMT enabled, 160 functions over 8 physical cores."""
    return replace(
        ExperimentConfig(
            name="smt-160",
            total_functions=160,
            eval_physical_cores=8,
            functions_per_thread=10,
            smt_enabled=True,
            method=PricingMethod.METHOD2,
            calibration_scenario=CalibrationScenario.smt(),
        ),
        **overrides,
    )
