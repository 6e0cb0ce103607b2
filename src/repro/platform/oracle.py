"""Solo-execution oracle.

Several parts of the study need to know how a function performs when it has
the machine to itself:

* the **ideal price** discounts a tenant exactly by the slowdown it
  experienced, which requires its interference-free execution time;
* the **charging rates** (Equation 3) are defined against solo times;
* the Litmus probe's slowdown is the measured startup time relative to the
  startup's solo time.

On the real system the paper obtains these numbers by profiling functions in
isolation offline.  Here the :class:`SoloOracle` simply runs the function
alone on a private engine instance; runs are deterministic, so one
execution per identity suffices.

Profiles are memoized in process and on disk (:func:`repro.diskcache.memoized`)
under the machine topology, the contention parameters, the engine
configuration and the full function spec — so every figure of a sweep, in
any process, profiles each function once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

from repro import diskcache

from repro.hardware.cpu import CPU
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.contention import ContentionParameters
from repro.hardware.topology import MachineSpec
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.metering import (
    InvocationMeasurement,
    StartupMeasurement,
    measure_invocation,
    measure_startup,
)
from repro.platform.scheduler import DedicatedCoreScheduler
from repro.workloads.function import FunctionSpec

#: Safety bound on how long (simulated seconds) a solo run may take.
_MAX_SOLO_SECONDS = 600.0


@dataclass(frozen=True)
class SoloProfile:
    """Interference-free measurements of one function."""

    execution: InvocationMeasurement
    startup: Optional[StartupMeasurement]

    @property
    def t_private_seconds(self) -> float:
        return self.execution.t_private_seconds

    @property
    def t_shared_seconds(self) -> float:
        return self.execution.t_shared_seconds

    @property
    def t_total_seconds(self) -> float:
        return self.execution.t_total_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-encodable form (floats round-trip exactly)."""
        return {
            "execution": asdict(self.execution),
            "startup": None if self.startup is None else asdict(self.startup),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SoloProfile":
        startup = payload.get("startup")
        return cls(
            execution=InvocationMeasurement(**payload["execution"]),
            startup=None if startup is None else StartupMeasurement(**startup),
        )


class SoloOracle:
    """Runs functions alone on the machine; their measurements are memoized."""

    def __init__(
        self,
        machine: MachineSpec,
        *,
        contention_parameters: Optional[ContentionParameters] = None,
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        self._machine = machine
        self._contention_parameters = contention_parameters
        self._engine_config = engine_config or EngineConfig()

    @property
    def machine(self) -> MachineSpec:
        return self._machine

    @property
    def contention_parameters(self) -> Optional[ContentionParameters]:
        """The contention coefficients the oracle profiles under (None = defaults)."""
        return self._contention_parameters

    def profile(self, spec: FunctionSpec) -> SoloProfile:
        """Return (possibly memoized) solo measurements for ``spec``."""
        # The fast path changes no output bit, so it is deliberately left
        # out of the identity: profiles computed with it on and off are
        # interchangeable.
        identity = (
            self._machine,
            self._contention_parameters,
            self._engine_config.epoch_seconds,
            self._engine_config.fixed_point_iterations,
            spec,
        )
        return diskcache.memoized(
            "solo",
            identity,
            lambda: self._run_solo(spec),
            SoloProfile.to_dict,
            SoloProfile.from_dict,
        )

    def _run_solo(self, spec: FunctionSpec) -> SoloProfile:
        if spec.is_traffic_generator:
            raise ValueError("traffic generators are never billed or profiled solo")
        cpu = CPU(
            self._machine,
            smt_enabled=False,
            frequency_policy=FrequencyPolicy.FIXED,
            contention_parameters=self._contention_parameters,
        )
        engine = SimulationEngine(
            cpu, DedicatedCoreScheduler(), config=self._engine_config
        )
        invocation = engine.submit(spec, tags={"role": "solo"})
        completed = engine.run_until(
            lambda eng: invocation.is_completed, max_seconds=_MAX_SOLO_SECONDS
        )
        if not completed:
            raise RuntimeError(
                f"solo run of {spec.abbreviation} did not complete within "
                f"{_MAX_SOLO_SECONDS} simulated seconds"
            )
        startup = measure_startup(invocation) if invocation.startup_recorded else None
        return SoloProfile(execution=measure_invocation(invocation), startup=startup)
