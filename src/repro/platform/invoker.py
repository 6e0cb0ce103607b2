"""Invocation lifecycle tracking.

An :class:`Invocation` is the platform's record of one function execution:
which spec is running, where it was placed, how far it has progressed, and —
crucially for Litmus — its private performance counters plus the snapshots
taken when its startup window (the Litmus-probe window) completed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.pmu import CounterSnapshot, PMUCounters
from repro.platform.sandbox import Sandbox
from repro.workloads.function import FunctionSpec, PhaseCursor


class InvocationState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class Invocation:
    """One in-flight or completed function execution."""

    invocation_id: int
    spec: FunctionSpec
    sandbox: Sandbox
    submit_time: float
    tags: Dict[str, str] = field(default_factory=dict)

    state: InvocationState = InvocationState.PENDING
    thread_id: Optional[int] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None

    cursor: PhaseCursor = field(init=False)
    counters: PMUCounters = field(init=False)

    # Litmus-probe window (startup) measurements, filled by the engine when
    # the last STARTUP phase retires.
    startup_end_time: Optional[float] = None
    startup_counters: Optional[CounterSnapshot] = None
    machine_counters_at_start: Optional[CounterSnapshot] = None
    machine_counters_at_startup_end: Optional[CounterSnapshot] = None

    # Average number of invocations sharing this invocation's hardware
    # thread while it ran (used by Method 1's switching-overhead calibration):
    # the sum of occupancy times seconds, and the seconds.  Public so that
    # the engines can update them without a checked call per lane-epoch.
    occupancy_weighted_sum: float = 0.0
    occupancy_weight: float = 0.0

    def __post_init__(self) -> None:
        self.cursor = PhaseCursor(self.spec)
        self.counters = PMUCounters()

    # ------------------------------------------------------------------ #
    # State transitions (driven by the engine)
    # ------------------------------------------------------------------ #
    def mark_started(self, thread_id: int, time_seconds: float) -> None:
        if self.state is not InvocationState.PENDING:
            raise ValueError(
                f"invocation {self.invocation_id} cannot start from {self.state}"
            )
        self.state = InvocationState.RUNNING
        self.thread_id = thread_id
        self.start_time = time_seconds

    def mark_finished(self, time_seconds: float) -> None:
        if self.state is not InvocationState.RUNNING:
            raise ValueError(
                f"invocation {self.invocation_id} cannot finish from {self.state}"
            )
        self.state = InvocationState.COMPLETED
        self.finish_time = time_seconds

    def record_startup_completion(
        self,
        time_seconds: float,
        machine_counters_at_startup_end: CounterSnapshot,
    ) -> None:
        """Capture the probe-window snapshots once startup has retired."""
        if self.startup_counters is not None:
            raise ValueError(
                f"startup already recorded for invocation {self.invocation_id}"
            )
        self.startup_end_time = time_seconds
        self.startup_counters = self.counters.snapshot()
        self.machine_counters_at_startup_end = machine_counters_at_startup_end

    def observe_occupancy(self, occupancy: int, weight_seconds: float) -> None:
        """Accumulate the occupancy of the hosting thread over time."""
        if occupancy < 1:
            raise ValueError("occupancy must be >= 1 while running")
        if weight_seconds < 0:
            raise ValueError("weight_seconds must be >= 0")
        self.occupancy_weighted_sum += occupancy * weight_seconds
        self.occupancy_weight += weight_seconds

    def span_observe_occupancy(
        self, occupancy: int, weight_seconds: float, epochs: int
    ) -> None:
        """Replay ``epochs`` sequential :meth:`observe_occupancy` calls.

        Used by the engine's skip-ahead path; performs the same float
        additions one by one so the accumulated values match the
        epoch-by-epoch path bit for bit.
        """
        increment = occupancy * weight_seconds
        weighted = self.occupancy_weighted_sum
        weight = self.occupancy_weight
        for _ in range(epochs):
            weighted += increment
            weight += weight_seconds
        self.occupancy_weighted_sum = weighted
        self.occupancy_weight = weight

    def progress_key(self) -> tuple:
        """Everything stepping accumulates on this invocation, as one value:
        the cursor's phase and position, the seven counters and the two
        occupancy accumulators.  :meth:`take_progress` between invocations
        with equal keys changes nothing."""
        return (
            self.cursor.phase_index,
            *self.cursor.span_snapshot(),
            *vars(self.counters).values(),
            self.occupancy_weighted_sum,
            self.occupancy_weight,
        )

    def take_progress(self, other: "Invocation") -> None:
        """Copy ``other``'s progress (:meth:`progress_key`'s fields) onto this.

        For the engine's twin lanes, which catch up from their leader
        (:mod:`repro.platform.twins`).  The caller must guarantee that
        stepping this invocation would have computed exactly ``other``'s
        values, as :meth:`PhaseCursor.take_position` requires.
        """
        self.cursor.take_position(other.cursor)
        vars(self.counters).update(vars(other.counters))
        self.occupancy_weighted_sum = other.occupancy_weighted_sum
        self.occupancy_weight = other.occupancy_weight

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def is_completed(self) -> bool:
        return self.state is InvocationState.COMPLETED

    @property
    def is_traffic_generator(self) -> bool:
        return self.spec.is_traffic_generator

    @property
    def startup_recorded(self) -> bool:
        return self.startup_counters is not None

    @property
    def mean_thread_occupancy(self) -> float:
        """Average number of functions sharing the thread while this ran."""
        if self.occupancy_weight <= 0:
            return 1.0
        return self.occupancy_weighted_sum / self.occupancy_weight

    @property
    def occupied_seconds(self) -> float:
        """CPU time the invocation actually occupied (its billed time)."""
        return self.counters.elapsed_seconds

    def role(self) -> str:
        """The experiment role this invocation plays (test / churn / ...)."""
        return self.tags.get("role", "unspecified")
