"""Perf-like metering of completed invocations.

Litmus pricing needs two measurement windows per invocation:

* the **whole execution**: occupied time split into ``T_private`` and
  ``T_shared`` using the L2-miss stall-cycle counter (Section 5.2), and
* the **startup window** (the Litmus probe): the same split restricted to
  the language runtime's startup phases, plus the *machine-wide* L3 miss
  count observed during that window (Section 6, step 3).

Both are expressed here as value objects derived from an
:class:`repro.platform.invoker.Invocation`'s counters, mirroring how the
paper derives them from ``perf`` counter reads at phase boundaries.

The tail of the module is the *billing* side of metering: a
:class:`MeteringLedger` accumulates per-tenant GB-second charges from
completion events, and a :class:`MeterFaultInjector` models a lossy
delivery pipeline (each event independently dropped or double-delivered
with a seeded probability — the ``meter-drop`` / ``meter-dup`` fault
types of :mod:`repro.platform.faults`).  The ledger tracks the *true*
charge alongside the *billed* one, so a sweep can report exactly how much
billing error a metering fault introduces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.hardware.pmu import CounterSnapshot
from repro.platform.invoker import Invocation


@dataclass(frozen=True)
class InvocationMeasurement:
    """Billing-relevant measurements of one completed invocation."""

    function: str
    memory_gb: float
    occupied_seconds: float
    t_private_seconds: float
    t_shared_seconds: float
    instructions: float
    cycles: float
    l2_misses: float
    l3_misses: float
    mean_thread_occupancy: float

    @property
    def t_total_seconds(self) -> float:
        return self.t_private_seconds + self.t_shared_seconds

    @property
    def shared_fraction(self) -> float:
        if self.t_total_seconds <= 0:
            return 0.0
        return self.t_shared_seconds / self.t_total_seconds

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles


@dataclass(frozen=True)
class StartupMeasurement:
    """Litmus-probe window readings for one invocation."""

    function: str
    language: str
    instructions: float
    t_private_seconds: float
    t_shared_seconds: float
    private_cycles: float
    shared_cycles: float
    wall_seconds: float
    machine_l3_misses: float

    @property
    def t_total_seconds(self) -> float:
        return self.t_private_seconds + self.t_shared_seconds


def _split_seconds(snapshot: CounterSnapshot) -> tuple[float, float]:
    """Split a window's occupied seconds into (private, shared) components.

    The counters track cycles and the seconds the invocation occupied the
    processor; seconds are apportioned by the cycle split so the result is
    correct even when the clock frequency varied during the window.
    """
    if snapshot.cycles <= 0:
        return 0.0, 0.0
    shared_ratio = snapshot.shared_cycles / snapshot.cycles
    shared_seconds = snapshot.elapsed_seconds * shared_ratio
    private_seconds = snapshot.elapsed_seconds - shared_seconds
    return private_seconds, shared_seconds


def measure_invocation(invocation: Invocation) -> InvocationMeasurement:
    """Derive the billing measurements of a completed invocation."""
    if not invocation.is_completed:
        raise ValueError(
            f"invocation {invocation.invocation_id} has not completed; "
            "metering requires a finished execution"
        )
    snapshot = invocation.counters.snapshot()
    private_seconds, shared_seconds = _split_seconds(snapshot)
    return InvocationMeasurement(
        function=invocation.spec.abbreviation,
        memory_gb=invocation.spec.memory_gb,
        occupied_seconds=snapshot.elapsed_seconds,
        t_private_seconds=private_seconds,
        t_shared_seconds=shared_seconds,
        instructions=snapshot.instructions,
        cycles=snapshot.cycles,
        l2_misses=snapshot.l2_misses,
        l3_misses=snapshot.l3_misses,
        mean_thread_occupancy=invocation.mean_thread_occupancy,
    )


def measure_startup(invocation: Invocation) -> StartupMeasurement:
    """Derive the Litmus-probe readings from an invocation's startup window."""
    if invocation.startup_counters is None:
        raise ValueError(
            f"invocation {invocation.invocation_id} has no recorded startup window"
        )
    if (
        invocation.machine_counters_at_start is None
        or invocation.machine_counters_at_startup_end is None
    ):
        raise ValueError(
            f"invocation {invocation.invocation_id} is missing machine-wide "
            "counter snapshots for its startup window"
        )
    snapshot = invocation.startup_counters
    private_seconds, shared_seconds = _split_seconds(snapshot)
    machine_delta = invocation.machine_counters_at_startup_end.delta(
        invocation.machine_counters_at_start
    )
    wall_seconds = 0.0
    if invocation.startup_end_time is not None and invocation.start_time is not None:
        wall_seconds = invocation.startup_end_time - invocation.start_time
    return StartupMeasurement(
        function=invocation.spec.abbreviation,
        language=invocation.spec.language.value,
        instructions=snapshot.instructions,
        t_private_seconds=private_seconds,
        t_shared_seconds=shared_seconds,
        private_cycles=snapshot.private_cycles,
        shared_cycles=snapshot.shared_cycles,
        wall_seconds=wall_seconds,
        machine_l3_misses=machine_delta.l3_misses,
    )


@dataclass(frozen=True)
class TenantBilling:
    """Frozen per-tenant billing outcome of one scenario's metering stream.

    ``true_gb_seconds`` is what a perfect pipeline would have charged each
    function (tenant); ``billed_gb_seconds`` is what the possibly-faulty
    pipeline actually charged.  Both are sorted ``(function, gb_seconds)``
    tuples so the object is hashable, picklable, and bit-comparable across
    shard merges.
    """

    true_gb_seconds: Tuple[Tuple[str, float], ...] = ()
    billed_gb_seconds: Tuple[Tuple[str, float], ...] = ()
    events: int = 0
    dropped: int = 0
    duplicated: int = 0

    @property
    def true_total(self) -> float:
        return sum(v for _, v in self.true_gb_seconds)

    @property
    def billed_total(self) -> float:
        return sum(v for _, v in self.billed_gb_seconds)

    @property
    def billing_error_fraction(self) -> float:
        """Signed relative billing error: ``(billed - true) / true``."""
        true = self.true_total
        if true <= 0:
            return 0.0
        return (self.billed_total - true) / true


class MeterFaultInjector:
    """Seeded drop/duplicate perturbation of one metering stream.

    One injector serves one machine's completion stream: decisions are
    drawn from dedicated :class:`random.Random` streams (one per fault
    kind), so the outcome depends only on the seeds and the order of that
    machine's own completions — never on co-resident scenarios or shard
    membership.  A drop consumes the event before duplication is even
    considered, mirroring a pipeline where the event is lost upstream of
    the replaying delivery layer.
    """

    def __init__(
        self,
        *,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        drop_seed: int = 0,
        duplicate_seed: int = 1,
    ) -> None:
        for name, p in (
            ("drop_probability", drop_probability),
            ("duplicate_probability", duplicate_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        self._drop_probability = drop_probability
        self._duplicate_probability = duplicate_probability
        self._drop_rng = random.Random(drop_seed)
        self._duplicate_rng = random.Random(duplicate_seed)

    def copies(self) -> int:
        """Delivered copies of the next event: 0 (dropped), 1, or 2."""
        if self._drop_probability > 0.0:
            if self._drop_rng.random() < self._drop_probability:
                return 0
        if self._duplicate_probability > 0.0:
            if self._duplicate_rng.random() < self._duplicate_probability:
                return 2
        return 1


@dataclass
class MeteringLedger:
    """Accumulates true vs billed GB-seconds per tenant for one scenario.

    Callers observe each completion with the delivered-copy count decided
    by the (per-machine) :class:`MeterFaultInjector`; ``copies=1`` is the
    healthy pipeline.  GB-seconds follow the serverless convention:
    occupied seconds × configured memory.
    """

    _true: Dict[str, float] = field(default_factory=dict)
    _billed: Dict[str, float] = field(default_factory=dict)
    events: int = 0
    dropped: int = 0
    duplicated: int = 0
    #: Functions observed since the last :meth:`take_touched`.
    _touched: Set[str] = field(default_factory=set, compare=False, repr=False)

    def observe(
        self, function: str, memory_gb: float, occupied_seconds: float, copies: int = 1
    ) -> None:
        if copies not in (0, 1, 2):
            raise ValueError(f"copies must be 0, 1 or 2, got {copies!r}")
        gb_seconds = memory_gb * occupied_seconds
        self._true[function] = self._true.get(function, 0.0) + gb_seconds
        self._touched.add(function)
        self.events += 1
        if copies == 0:
            self.dropped += 1
            return
        if copies == 2:
            self.duplicated += 1
        self._billed[function] = self._billed.get(function, 0.0) + gb_seconds * copies

    @property
    def true_total(self) -> float:
        return sum(self._true.values())

    @property
    def billed_total(self) -> float:
        return sum(self._billed.values())

    def take_touched(self) -> List[Tuple[str, float, float]]:
        """``(function, true total, billed total)`` for each function
        observed since the previous call, in function order; then forgets
        them."""
        touched = [
            (function, self._true[function], self._billed.get(function, 0.0))
            for function in sorted(self._touched)
        ]
        self._touched.clear()
        return touched

    def freeze(self) -> TenantBilling:
        return TenantBilling(
            true_gb_seconds=tuple(sorted(self._true.items())),
            billed_gb_seconds=tuple(sorted(self._billed.items())),
            events=self.events,
            dropped=self.dropped,
            duplicated=self.duplicated,
        )
