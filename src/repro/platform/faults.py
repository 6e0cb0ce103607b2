"""Deterministic fault injection for fleet sweeps.

Real serverless fleets are not healthy: traffic spikes, noisy neighbors,
thermally throttled hosts, and lossy metering pipelines all perturb the
measurements Litmus prices from.  This module defines the *fault axis* a
scenario spec can declare (``[[faults]]`` tables, parsed by
:mod:`repro.scenarios.faults`) and the small value objects the sweep
engines use to apply and account for them.

Five fault types exist (:data:`FAULT_TYPES`):

``churn-spike``
    A windowed traffic surge: ``count`` extra invocations drawn from the
    scenario's own mix are kept alive on every machine for the window.
``noisy-neighbor``
    Like a spike, but the burst pool is a *different* mix — by default the
    memory-intensive subset, the worst co-runners for LLC contention.
``freq-throttle``
    Every machine of the scenario runs at ``factor`` × its governed
    frequency for the window (thermal capping / power braking).
``meter-drop`` / ``meter-dup``
    The metering pipeline loses (or double-delivers) each completion event
    with probability ``probability`` — billing noise, not engine noise.

Every fault is seeded: burst draws come from a mixer seeded by
``fault.seed`` plus the machine's index within its scenario, and metering
faults consume one per-machine ``random.Random`` stream per fault — so a
faulted sweep is exactly as deterministic and shard-invariant as a healthy
one.  Faults take effect at the first epoch boundary at or after their
window start; both backends segment time identically, so the schedule is
backend-consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Optional, Tuple

#: Every declarable fault type, in documentation order.
FAULT_TYPES = (
    "churn-spike",
    "noisy-neighbor",
    "freq-throttle",
    "meter-drop",
    "meter-dup",
)

#: Faults that perturb the simulation itself (windowed).
ENGINE_FAULT_TYPES = ("churn-spike", "noisy-neighbor", "freq-throttle")

#: Faults that perturb only the metering/billing pipeline.
METER_FAULT_TYPES = ("meter-drop", "meter-dup")

#: Tag value stamped on burst invocations so steady churn ignores them.
FAULT_ROLE = "fault"


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault, matched against scenarios by name glob.

    Only the fields meaningful for ``type`` are consulted; the spec parser
    (:func:`repro.scenarios.faults.parse_faults`) rejects entries that set
    the others.  ``duration_seconds=None`` means "until the horizon".
    """

    type: str
    #: ``fnmatch``-style glob over scenario names (``*`` = every scenario).
    scenario: str = "*"
    start_seconds: float = 0.0
    duration_seconds: Optional[float] = None
    #: Extra invocations per machine (churn-spike / noisy-neighbor).
    count: int = 0
    #: Frequency multiplier in (0, 1] (freq-throttle).
    factor: float = 1.0
    #: Per-event probability in [0, 1] (meter-drop / meter-dup).
    probability: float = 0.0
    #: Burst pool for noisy-neighbor; empty = the memory-intensive mix.
    functions: Tuple[str, ...] = ()
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.type not in FAULT_TYPES:
            raise ValueError(
                f"unknown fault type {self.type!r}; valid choices: "
                f"{', '.join(FAULT_TYPES)}"
            )
        if self.start_seconds < 0:
            raise ValueError("start_seconds must be >= 0")
        if self.duration_seconds is not None and self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.type in ("churn-spike", "noisy-neighbor") and self.count < 1:
            raise ValueError(f"{self.type} requires count >= 1")
        if self.type == "freq-throttle" and not 0.0 < self.factor <= 1.0:
            raise ValueError("freq-throttle requires factor in (0, 1]")
        if self.type in METER_FAULT_TYPES and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"{self.type} requires probability in [0, 1]")

    @property
    def is_engine_fault(self) -> bool:
        return self.type in ENGINE_FAULT_TYPES

    def window(self, horizon_seconds: float) -> Optional[Tuple[float, float]]:
        """The fault's active ``(start, end)`` clipped to the horizon.

        Returns ``None`` for meter faults (always on) and for windows that
        never open within the horizon.
        """
        if not self.is_engine_fault:
            return None
        if self.start_seconds >= horizon_seconds:
            return None
        end = (
            horizon_seconds
            if self.duration_seconds is None
            else self.start_seconds + self.duration_seconds
        )
        return self.start_seconds, min(end, horizon_seconds)

    def matches(self, scenario_name: str) -> bool:
        return fnmatchcase(scenario_name, self.scenario)


def faults_for_scenario(
    faults: Iterable[FaultSpec], scenario_name: str
) -> Tuple[FaultSpec, ...]:
    """The subset of ``faults`` whose glob matches ``scenario_name``."""
    return tuple(f for f in faults if f.matches(scenario_name))


@dataclass(frozen=True)
class FaultStats:
    """Per-scenario accounting of what the fault axis actually did."""

    #: churn-spike submissions / completions (burst invocations only).
    spike_submissions: int = 0
    spike_completions: int = 0
    #: noisy-neighbor submissions / completions.
    neighbor_submissions: int = 0
    neighbor_completions: int = 0
    #: machine-epochs spent under a frequency throttle.
    throttled_machine_epochs: int = 0
    #: metering events observed / dropped / duplicated.
    meter_events: int = 0
    meter_dropped: int = 0
    meter_duplicated: int = 0

    @property
    def injections(self) -> int:
        """Burst invocations injected on top of the steady workload."""
        return self.spike_submissions + self.neighbor_submissions

    @property
    def empty(self) -> bool:
        return self == FaultStats()


@dataclass
class FaultCounters:
    """Mutable accumulator behind :class:`FaultStats` (one per scenario)."""

    spike_submissions: int = 0
    spike_completions: int = 0
    neighbor_submissions: int = 0
    neighbor_completions: int = 0
    throttled_machine_epochs: int = 0
    meter_events: int = 0
    meter_dropped: int = 0
    meter_duplicated: int = 0

    def count_burst_submit(self, fault_type: str, n: int = 1) -> None:
        if fault_type == "churn-spike":
            self.spike_submissions += n
        else:
            self.neighbor_submissions += n

    def count_burst_finish(self, fault_type: str, n: int = 1) -> None:
        if fault_type == "churn-spike":
            self.spike_completions += n
        else:
            self.neighbor_completions += n

    def freeze(self) -> FaultStats:
        return FaultStats(
            spike_submissions=self.spike_submissions,
            spike_completions=self.spike_completions,
            neighbor_submissions=self.neighbor_submissions,
            neighbor_completions=self.neighbor_completions,
            throttled_machine_epochs=self.throttled_machine_epochs,
            meter_events=self.meter_events,
            meter_dropped=self.meter_dropped,
            meter_duplicated=self.meter_duplicated,
        )
