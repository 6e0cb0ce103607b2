"""The Litmus test: probing congestion through runtime startups.

A Litmus test measures the system's congestion state during the startup of a
tenant function, at zero additional cost: the startup is work the function
performs anyway, and because every function of a given language runs a
nearly identical startup routine, its counters can be compared against the
same routine's interference-free baseline.

Three readings make up an observation (Section 6):

* the startup's ``T_private`` slowdown against the solo baseline,
* the startup's ``T_shared`` slowdown against the solo baseline, and
* the machine-wide L3 miss count during the startup window, which tells
  CT-Gen-like congestion (on-chip, few L3 misses) apart from MB-Gen-like
  congestion (bandwidth bound, many L3 misses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.platform.invoker import Invocation
from repro.platform.metering import StartupMeasurement, measure_startup
from repro.workloads.function import FunctionSpec
from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.runtimes import Language


@dataclass(frozen=True)
class LitmusObservation:
    """One Litmus-test reading, ready for the congestion estimator."""

    function: str
    language: Language
    private_slowdown: float
    shared_slowdown: float
    total_slowdown: float
    machine_l3_misses: float
    startup_wall_seconds: float

    def __post_init__(self) -> None:
        if self.private_slowdown <= 0 or self.shared_slowdown <= 0:
            raise ValueError("slowdowns must be positive")
        if self.machine_l3_misses < 0:
            raise ValueError("machine_l3_misses must be >= 0")


@dataclass(frozen=True)
class StartupBaseline:
    """Solo (interference-free) startup readings for one language."""

    language: Language
    private_seconds: float
    shared_seconds: float
    machine_l3_misses: float

    @property
    def total_seconds(self) -> float:
        return self.private_seconds + self.shared_seconds

    @classmethod
    def from_measurement(cls, measurement: StartupMeasurement) -> "StartupBaseline":
        return cls(
            language=Language(measurement.language),
            private_seconds=measurement.t_private_seconds,
            shared_seconds=measurement.t_shared_seconds,
            machine_l3_misses=measurement.machine_l3_misses,
        )


class LitmusProbe:
    """Turns raw startup measurements into slowdown observations.

    The probe holds the per-language solo startup baselines (collected once
    by the provider during calibration) and divides every observed startup's
    private/shared occupancy by the corresponding baseline.
    """

    def __init__(self, baselines: Mapping[Language, StartupBaseline]) -> None:
        if not baselines:
            raise ValueError("at least one language baseline is required")
        self._baselines: Dict[Language, StartupBaseline] = dict(baselines)

    def baseline(self, language: Language) -> StartupBaseline:
        try:
            return self._baselines[language]
        except KeyError:
            raise KeyError(
                f"no startup baseline for language {language.value!r}"
            ) from None

    def observe_measurement(self, measurement: StartupMeasurement) -> LitmusObservation:
        """Build an observation from a startup measurement."""
        language = Language(measurement.language)
        baseline = self.baseline(language)
        if baseline.private_seconds <= 0 or baseline.shared_seconds <= 0:
            raise ValueError(
                f"the solo startup baseline for {language.value} has a zero "
                "component; the probe cannot compute slowdowns"
            )
        private_slowdown = measurement.t_private_seconds / baseline.private_seconds
        shared_slowdown = measurement.t_shared_seconds / baseline.shared_seconds
        total_slowdown = measurement.t_total_seconds / baseline.total_seconds
        return LitmusObservation(
            function=measurement.function,
            language=language,
            private_slowdown=max(private_slowdown, 1e-6),
            shared_slowdown=max(shared_slowdown, 1e-6),
            total_slowdown=max(total_slowdown, 1e-6),
            machine_l3_misses=measurement.machine_l3_misses,
            startup_wall_seconds=measurement.wall_seconds,
        )

    def observe(self, invocation: Invocation) -> LitmusObservation:
        """Build an observation directly from a (possibly running) invocation.

        The invocation must have completed its startup window; it does not
        need to have finished — the whole point of the Litmus test is to read
        the system state at the *beginning* of the execution.
        """
        return self.observe_measurement(measure_startup(invocation))


#: Body size of the dedicated probe functions used during calibration.  The
#: body only exists so the spec is a valid function; it is kept tiny so a
#: probe run is dominated by the startup phases being measured.
_PROBE_BODY_INSTRUCTIONS = 1e6

_PROBE_BODY_PROFILE = ResourceProfile(
    cpi_base=0.5,
    l2_mpki=0.5,
    working_set_mb=1.0,
    solo_l3_hit_fraction=0.9,
    mlp=4.0,
)


def probe_spec(language: Language) -> FunctionSpec:
    """A minimal function of ``language`` used as a pure startup probe.

    Calibration runs these against the traffic generators to fill the
    congestion table; their startup phases are identical to those of every
    real function of the same language, which is what makes the table
    transferable to unknown tenant functions.
    """
    body = ExecutionPhase(
        name=f"probe-{language.value}-body",
        kind=PhaseKind.BODY,
        instructions=_PROBE_BODY_INSTRUCTIONS,
        profile=_PROBE_BODY_PROFILE,
    )
    return FunctionSpec(
        name=f"Litmus probe ({language.value})",
        abbreviation=f"probe-{language.short}",
        language=language,
        suite="litmus-probe",
        memory_mb=128.0,
        body_phases=(body,),
        is_reference=False,
    )
