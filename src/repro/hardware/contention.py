"""The combined shared-resource contention model.

This is the heart of the hardware substrate.  Every simulation epoch the
platform engine collects one :class:`WorkloadDemand` per active invocation
(its rate of L2 misses, its cache footprint and how memory-level parallel its
misses are) and asks the :class:`ContentionModel` what each workload
experiences in return:

* the fraction of its L3 lookups that still hit (capacity contention),
* the latency of those hits (ring/uncore congestion, CT-Gen territory),
* the latency of its L3 misses (memory-bandwidth congestion, MB-Gen
  territory), and
* a small inflation of its *private* execution (the paper observes ~4-5 %
  growth of ``T_private`` under heavy sharing, attributable to TLB/prefetch
  pollution and other second-order effects).

The model is deliberately analytic rather than cycle-accurate: Litmus only
consumes aggregate counters, so what matters is that the counters respond to
congestion with the shapes the paper reports (``T_shared`` highly sensitive,
``T_private`` barely, L3 misses separating on-chip from off-chip pressure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.hardware.cache import CacheDemand, SharedCacheModel
from repro.hardware.memory import MemoryBandwidthModel, MemoryLoad
from repro.hardware.topology import MachineSpec
from repro.hardware.uncore import RingBandwidthModel, RingLoad


@dataclass(frozen=True)
class ContentionParameters:
    """Tunable coefficients of the contention model.

    The defaults are calibrated so the characterization experiments
    reproduce the paper's aggregate numbers (Figures 2 and 3): a ~11.5 %
    geometric-mean slowdown with 26 co-runners, ``T_shared`` inflating by
    roughly 2.8x on average and ``T_private`` by only a few percent.
    """

    cache_utility_exponent: float = 0.40
    memory_queueing_coefficient: float = 0.55
    ring_queueing_coefficient: float = 0.35
    max_utilization: float = 0.97
    #: Peak ``T_private`` inflation caused by shared-domain pressure alone
    #: (excludes SMT and context-switch overheads, which the platform layer
    #: applies separately).
    private_pressure_sensitivity: float = 0.12


@dataclass(frozen=True)
class WorkloadDemand:
    """One workload's pressure on the shared domain during an epoch."""

    workload_id: int
    #: L2 misses per second, i.e. the rate of requests reaching the L3.
    l2_miss_rate: float
    #: Cache footprint in MB competing for L3 capacity.
    working_set_mb: float
    #: Fraction of L3 lookups that hit when the workload runs alone.
    solo_l3_hit_fraction: float
    #: Average memory-level parallelism of the workload's off-core accesses;
    #: the per-miss stall observed by the core is latency / mlp.
    mlp: float = 1.0

    def __post_init__(self) -> None:
        if self.l2_miss_rate < 0:
            raise ValueError("l2_miss_rate must be >= 0")
        if self.working_set_mb < 0:
            raise ValueError("working_set_mb must be >= 0")
        if not 0.0 <= self.solo_l3_hit_fraction <= 1.0:
            raise ValueError("solo_l3_hit_fraction must be in [0, 1]")
        if self.mlp <= 0:
            raise ValueError("mlp must be positive")


@dataclass(frozen=True)
class SharedResourcePenalty:
    """What one workload experiences from the shared domain this epoch."""

    workload_id: int
    l3_hit_fraction: float
    l3_hit_latency_cycles: float
    memory_latency_cycles: float
    ring_utilization: float
    bandwidth_utilization: float
    private_inflation: float

    def stall_cycles_per_l2_miss(self, mlp: float) -> float:
        """Average core-visible stall cycles caused by one L2 miss."""
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        hit = self.l3_hit_fraction * self.l3_hit_latency_cycles
        miss = (1.0 - self.l3_hit_fraction) * self.memory_latency_cycles
        return (hit + miss) / mlp


class ContentionResult:
    """One :meth:`ContentionModel.evaluate_tuples` evaluation, compactly.

    Every :class:`SharedResourcePenalty` of one evaluation carries the same
    five domain-wide values; only the L3 hit fraction differs per workload,
    and workloads that share a plan entry share it too.  This holds one hit
    fraction per entry of the evaluated :class:`ContentionPlan`, the plan's
    lane map and the five shared values once: workload ``w``'s penalty is
    ``SharedResourcePenalty(w, hit_fractions[w], l3_hit_latency_cycles,
    memory_latency_cycles, ring_utilization, bandwidth_utilization,
    private_inflation)``.  :attr:`hit_fractions`, the workload id -> hit
    fraction map, is built on first read; a caller that holds the plan
    reads ``hits`` by entry instead.
    """

    __slots__ = (
        "hits",
        "lanes",
        "workload_ids",
        "_hit_fractions",
        "l3_hit_latency_cycles",
        "memory_latency_cycles",
        "ring_utilization",
        "bandwidth_utilization",
        "private_inflation",
    )

    def __init__(
        self,
        hits,
        l3_hit_latency_cycles: float,
        memory_latency_cycles: float,
        ring_utilization: float,
        bandwidth_utilization: float,
        private_inflation: float,
        plan: Optional[ContentionPlan] = None,
    ) -> None:
        """``hits`` lists one L3 hit fraction per entry of ``plan``, or,
        without a plan, maps workload ids to hit fractions (one entry per
        workload)."""
        if plan is None:
            self._hit_fractions = hits
            hits = list(hits.values())
            self.lanes = tuple(range(len(hits)))
            self.workload_ids = tuple(self._hit_fractions)
        else:
            self._hit_fractions = None
            self.lanes = plan.lanes
            self.workload_ids = plan.workload_ids
        #: Per entry: the fraction of its L3 lookups that hit.
        self.hits = hits
        self.l3_hit_latency_cycles = l3_hit_latency_cycles
        self.memory_latency_cycles = memory_latency_cycles
        self.ring_utilization = ring_utilization
        self.bandwidth_utilization = bandwidth_utilization
        self.private_inflation = private_inflation

    @property
    def hit_fractions(self) -> dict[int, float]:
        """Workload id -> fraction of its L3 lookups that hit."""
        fractions = self._hit_fractions
        if fractions is None:
            hits = self.hits
            fractions = self._hit_fractions = dict(
                zip(self.workload_ids, [hits[position] for position in self.lanes])
            )
        return fractions

    def _shared(self) -> tuple:
        return (
            self.l3_hit_latency_cycles,
            self.memory_latency_cycles,
            self.ring_utilization,
            self.bandwidth_utilization,
            self.private_inflation,
        )

    def reproduces(self, previous: ContentionResult) -> bool:
        """True when every penalty here equals ``previous``'s for that workload.

        Decides exactly what comparing the two evaluations' penalty maps
        with :class:`SharedResourcePenalty` equality decides: each workload
        id here must be present in ``previous`` with an equal hit fraction
        and equal shared values (workloads only in ``previous`` do not
        matter, and an empty result trivially reproduces anything).  Two
        results of one lane map compare by entry, which decides the same
        because every entry stands for at least one lane; others compare
        through dict views.  Like the penalty comparison, both compare
        through lists, tuples or views, which treat an object as equal to
        itself.
        """
        if not self.lanes:
            return True
        if self.lanes is previous.lanes:
            return self.hits == previous.hits and self._shared() == previous._shared()
        return (
            self.hit_fractions.items() <= previous.hit_fractions.items()
            and self._shared() == previous._shared()
        )


class ContentionPlan:
    """Everything :meth:`ContentionModel.evaluate_tuples` reads but the rates.

    Built by :meth:`ContentionModel.plan` from each entry's workload id,
    cache footprint and solo hit fraction, plus the lane-to-entry map.  An
    entry stands for one or more workloads (*lanes*) with equal demands;
    without twins each entry is one lane.  The plan stays valid while the
    entries' footprints, solo hit fractions and the lane map do, so the
    simulation engine builds one per runnable set and phase and evaluates
    it once per fixed-point iteration.  Treat it as read-only.
    """

    __slots__ = (
        "lanes",
        "workload_ids",
        "needs",
        "footprint",
        "footprint_lanes",
        "solo_hits",
    )

    def __init__(
        self,
        lanes: Tuple[int, ...],
        workload_ids: Tuple[int, ...],
        needs: Tuple[float, ...],
        footprint: Tuple[int, ...],
        footprint_lanes: Optional[Tuple[int, ...]],
        solo_hits: Tuple[float, ...],
    ) -> None:
        #: For each lane, in workload order, the position of its entry.
        self.lanes = lanes
        #: The lanes' workload ids, in workload order.
        self.workload_ids = workload_ids
        #: Per entry: its footprint capped at the cache capacity.
        self.needs = needs
        #: The positions of the entries with a footprint, in entry order.
        self.footprint = footprint
        #: The lanes of ``footprint``'s entries, in workload order; ``None``
        #: when every lane's entry has a footprint.
        self.footprint_lanes = footprint_lanes
        #: Per entry: the fraction of its L3 lookups that hit when it runs
        #: alone.
        self.solo_hits = solo_hits


class ContentionModel:
    """Combines the cache, uncore and memory models for one sharing domain."""

    def __init__(
        self,
        machine: MachineSpec,
        parameters: ContentionParameters | None = None,
    ) -> None:
        self._machine = machine
        self._parameters = parameters or ContentionParameters()
        self._cache = SharedCacheModel(
            capacity_mb=machine.l3.size_mb,
            utility_exponent=self._parameters.cache_utility_exponent,
        )
        self._memory = MemoryBandwidthModel(
            peak_bandwidth_gbs=machine.memory_bandwidth_gbs,
            unloaded_latency_cycles=machine.memory_latency_cycles,
            queueing_coefficient=self._parameters.memory_queueing_coefficient,
            max_utilization=self._parameters.max_utilization,
        )
        self._ring = RingBandwidthModel(
            peak_accesses_per_us=machine.ring_peak_accesses_per_us,
            unloaded_latency_cycles=machine.l3.latency_cycles,
            queueing_coefficient=self._parameters.ring_queueing_coefficient,
            max_utilization=self._parameters.max_utilization,
        )

    @property
    def machine(self) -> MachineSpec:
        return self._machine

    @property
    def parameters(self) -> ContentionParameters:
        return self._parameters

    def evaluate(
        self, demands: Sequence[WorkloadDemand]
    ) -> Mapping[int, SharedResourcePenalty]:
        """Evaluate the shared domain for one epoch.

        Returns a mapping from workload id to the penalties it experiences.
        The computation is a single forward pass; the platform engine
        iterates it to a fixed point because the miss *rates* themselves
        depend on how fast each workload can run under the penalties.
        """
        cache_demands = [
            CacheDemand(
                workload_id=d.workload_id,
                request_rate=d.l2_miss_rate,
                working_set_mb=d.working_set_mb,
                solo_hit_fraction=d.solo_l3_hit_fraction,
            )
            for d in demands
        ]
        allocations = self._cache.allocate(cache_demands)

        total_l3_lookups = sum(d.l2_miss_rate for d in demands)
        total_dram_bytes = 0.0
        for d in demands:
            hit_fraction = allocations[d.workload_id].hit_fraction
            miss_rate = d.l2_miss_rate * (1.0 - hit_fraction)
            total_dram_bytes += miss_rate * self._machine.line_size_bytes

        ring_load = RingLoad(accesses_per_second=total_l3_lookups)
        memory_load = MemoryLoad(bytes_per_second=total_dram_bytes)

        l3_hit_latency = self._ring.effective_latency_cycles(ring_load)
        memory_latency = self._memory.effective_latency_cycles(memory_load)
        ring_utilization = self._ring.utilization(ring_load)
        bandwidth_utilization = self._memory.utilization(memory_load)
        private_inflation = 1.0 + self._parameters.private_pressure_sensitivity * max(
            ring_utilization, bandwidth_utilization
        )

        penalties: dict[int, SharedResourcePenalty] = {}
        for d in demands:
            allocation = allocations[d.workload_id]
            penalties[d.workload_id] = SharedResourcePenalty(
                workload_id=d.workload_id,
                l3_hit_fraction=allocation.hit_fraction,
                l3_hit_latency_cycles=l3_hit_latency,
                memory_latency_cycles=memory_latency,
                ring_utilization=ring_utilization,
                bandwidth_utilization=bandwidth_utilization,
                private_inflation=private_inflation,
            )
        return penalties

    def plan(
        self,
        entries: Sequence[tuple],
        classes: Sequence[int] | None = None,
        workload_ids: Sequence[int] | None = None,
    ) -> ContentionPlan:
        """The static half of an :meth:`evaluate_tuples` call.

        ``entries`` is a sequence of ``(workload_id, working_set_mb,
        solo_l3_hit_fraction)`` tuples.  Workloads with equal demands can
        share one entry: ``classes`` then gives, in workload order, the
        position of each workload's entry and ``workload_ids`` the
        workloads' ids.  Without ``classes`` each entry is one workload.
        """
        capacity_mb = self._cache.capacity_mb
        if classes is None:
            lanes = tuple(range(len(entries)))
            workload_ids = [entry[0] for entry in entries]
        else:
            lanes = tuple(classes)
        footprint = tuple(
            [position for position, entry in enumerate(entries) if entry[1] > 0]
        )
        footprint_lanes = None
        if len(footprint) < len(entries):
            with_footprint = set(footprint)
            footprint_lanes = tuple(
                [position for position in lanes if position in with_footprint]
            )
        return ContentionPlan(
            lanes,
            tuple(workload_ids),
            # min(working_set, capacity), as the builtin resolves it.
            tuple(
                [capacity_mb if capacity_mb < entry[1] else entry[1] for entry in entries]
            ),
            footprint,
            footprint_lanes,
            tuple([entry[2] for entry in entries]),
        )

    def refresh(self, plan: ContentionPlan, entries: Mapping[int, tuple]) -> ContentionPlan:
        """``plan`` with some entries replaced and its lane map kept.

        ``entries`` maps entry positions to new ``(workload_id,
        working_set_mb, solo_l3_hit_fraction)`` tuples (:meth:`plan`'s
        format; the workload id is not read).  A new entry must have a
        footprint exactly when the old one had, so the returned plan shares
        ``plan``'s lane map, workload ids and footprint lists, the same
        objects, and differs only in the replaced entries' capped needs and
        solo hit fractions.
        """
        capacity_mb = self._cache.capacity_mb
        needs = list(plan.needs)
        solo_hits = list(plan.solo_hits)
        for position, (_, working_set_mb, solo_hit_fraction) in entries.items():
            if (working_set_mb > 0) != (needs[position] > 0):
                raise ValueError(
                    f"entry {position} gains or loses its footprint; build a new plan"
                )
            needs[position] = capacity_mb if capacity_mb < working_set_mb else working_set_mb
            solo_hits[position] = solo_hit_fraction
        return ContentionPlan(
            plan.lanes,
            plan.workload_ids,
            tuple(needs),
            plan.footprint,
            plan.footprint_lanes,
            tuple(solo_hits),
        )

    def evaluate_tuples(
        self, rates: Sequence[float], plan: ContentionPlan
    ) -> ContentionResult:
        """Exact, allocation-light replica of :meth:`evaluate`.

        ``rates`` holds one L2-miss rate per entry of ``plan``
        (:meth:`plan`), which holds everything else a demand carries, so
        the simulation engine's fast path, which evaluates the same plan
        many times with new rates, builds only the rates per fixed-point
        iteration.  The result is what :meth:`evaluate` returns for the
        plan's workloads, in workload order, each with its entry's demand:
        one :class:`ContentionResult`, the per-entry hit fractions with the
        plan's lane map plus the five values every workload shares.  The
        arithmetic is the reference's — same operations, same order, the
        same reduction primitives (``sum()`` where it sums, a ``+=`` loop
        where it loops), bit-identical results (asserted by the fast-path
        property tests) — on lists indexed by entry position.  Behavioural changes must be
        made to :meth:`evaluate` (the reference implementation) and
        mirrored here.  ``min``/``max`` are written as the comparisons that
        return exactly what the builtins return.

        The water-fill gives equal demands equal shares, caps and hit
        fractions, so those are computed once per entry; every sum still
        adds one term per workload, in workload order.
        """
        lanes = plan.lanes
        needs = plan.needs
        lane_rates = [rates[position] for position in lanes]
        total_l3_lookups = sum(lane_rates)
        hits = list(plan.solo_hits)  # inactive workloads keep solo

        # --- SharedCacheModel.allocate, fused -------------------------- #
        # _water_fill on the active entries: those with a footprint and a
        # positive rate.  ``pending`` holds the active entries still being
        # filled, in entry order.  A pass's total adds the rate of every
        # workload still being filled, in workload order; zero rates add
        # nothing, so the first pass's total is the total L3 lookups when
        # every workload has a footprint.  Shares are computed where they
        # are used (the reference implementation computes the identical
        # expression in both of its loops, so recomputing it is exact).
        pending = active = [position for position in plan.footprint if rates[position] > 0]
        if active:
            footprint_lanes = plan.footprint_lanes
            if footprint_lanes is None:
                total_rate = total_l3_lookups
            else:
                total_rate = sum([rates[position] for position in footprint_lanes])
            allocations = [0.0] * len(hits)
            remaining_capacity = self._cache.capacity_mb
            for _ in range(len(active) + 1):
                if remaining_capacity <= 1e-12 or total_rate <= 0:
                    break
                capped = {
                    position
                    for position in pending
                    if remaining_capacity * rates[position] / total_rate
                    >= needs[position] - allocations[position]
                }
                if not capped:
                    for position in pending:
                        allocations[position] += (
                            remaining_capacity * rates[position] / total_rate
                        )
                    break
                # Every workload of a capped entry is granted the same,
                # subtracted once per workload in workload order; only
                # workloads still being filled have a capped entry.
                for position in lanes:
                    if position in capped:
                        remaining_capacity -= needs[position] - allocations[position]
                for position in capped:
                    allocations[position] = needs[position]
                pending = [position for position in pending if position not in capped]
                if not pending:
                    break
                filling = set(pending)
                total_rate = sum(
                    [rates[position] for position in lanes if position in filling]
                )

            utility_exponent = self._cache.utility_exponent
            for position in active:
                # An active entry has a footprint, so its need is positive.
                coverage = allocations[position] / needs[position]
                if 0.0 > coverage:
                    coverage = 0.0
                if 1.0 < coverage:
                    coverage = 1.0
                hits[position] = hits[position] * coverage**utility_exponent

        # --- aggregate loads ------------------------------------------- #
        line_size = self._machine.line_size_bytes
        dram_bytes = [
            rate * (1.0 - hit_fraction) * line_size
            for rate, hit_fraction in zip(rates, hits)
        ]
        total_dram_bytes = 0.0
        for position in lanes:
            total_dram_bytes += dram_bytes[position]

        ring = self._ring
        memory = self._memory
        ring_utilization = ring.utilization_at(total_l3_lookups)
        bandwidth_utilization = memory.utilization_at(total_dram_bytes)
        pressure = (
            bandwidth_utilization
            if bandwidth_utilization > ring_utilization
            else ring_utilization
        )
        return ContentionResult(
            hits,
            ring.latency_at(ring_utilization),
            memory.latency_at(bandwidth_utilization),
            ring_utilization,
            bandwidth_utilization,
            1.0 + self._parameters.private_pressure_sensitivity * pressure,
            plan,
        )
