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
from typing import Mapping, Sequence

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
    five domain-wide values; only the L3 hit fraction differs per workload.
    This holds the per-workload hit fractions plus the five shared values
    once: workload ``w``'s penalty is ``SharedResourcePenalty(w,
    hit_fractions[w], l3_hit_latency_cycles, memory_latency_cycles,
    ring_utilization, bandwidth_utilization, private_inflation)``.
    """

    __slots__ = (
        "hit_fractions",
        "l3_hit_latency_cycles",
        "memory_latency_cycles",
        "ring_utilization",
        "bandwidth_utilization",
        "private_inflation",
    )

    def __init__(
        self,
        hit_fractions: dict[int, float],
        l3_hit_latency_cycles: float,
        memory_latency_cycles: float,
        ring_utilization: float,
        bandwidth_utilization: float,
        private_inflation: float,
    ) -> None:
        #: Workload id -> fraction of its L3 lookups that hit.
        self.hit_fractions = hit_fractions
        self.l3_hit_latency_cycles = l3_hit_latency_cycles
        self.memory_latency_cycles = memory_latency_cycles
        self.ring_utilization = ring_utilization
        self.bandwidth_utilization = bandwidth_utilization
        self.private_inflation = private_inflation

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
        matter, and an empty result trivially reproduces anything).  Like
        that comparison, it compares values through tuples and dict views,
        which treat an object as equal to itself.
        """
        if not self.hit_fractions:
            return True
        return (
            self.hit_fractions.items() <= previous.hit_fractions.items()
            and self._shared() == previous._shared()
        )


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

    @property
    def cache(self) -> SharedCacheModel:
        return self._cache

    @property
    def memory(self) -> MemoryBandwidthModel:
        return self._memory

    @property
    def ring(self) -> RingBandwidthModel:
        return self._ring

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

    def evaluate_tuples(
        self,
        entries: Sequence[tuple],
        classes: Sequence[int] | None = None,
        workload_ids: Sequence[int] | None = None,
    ) -> ContentionResult:
        """Exact, allocation-light replica of :meth:`evaluate`.

        ``entries`` is a sequence of ``(workload_id, l2_miss_rate,
        working_set_mb, solo_l3_hit_fraction, mlp)`` tuples.  The simulation
        engine's fast path sits in a tight per-epoch loop where building one
        :class:`WorkloadDemand`, one :class:`CacheDemand` and one
        :class:`SharedResourcePenalty` per workload per fixed-point iteration
        dominates.  This method performs the identical arithmetic — same
        operations, same order, bit-identical results (asserted by the
        fast-path property tests) — on plain tuples and lists indexed by
        position, and returns one :class:`ContentionResult`: the per-workload
        hit fractions plus the five values every workload shares.
        Behavioural changes must be made to :meth:`evaluate` (the reference
        implementation) and mirrored here.  ``min``/``max`` are written as
        the comparisons that return exactly what the builtins return.

        Workloads with equal demands can share one entry.  ``classes`` then
        gives, in workload order, the position of each workload's entry and
        ``workload_ids`` the workloads' ids, and the result is what
        :meth:`evaluate` returns for the expanded demands in that order.
        The water-fill gives equal demands equal shares, caps and hit
        fractions, so those are computed once per entry; every sum still
        adds one term per workload, in workload order.  Without ``classes``
        each entry is one workload.
        """
        capacity_mb = self._cache.capacity_mb
        utility_exponent = self._cache.utility_exponent
        rates = [entry[1] for entry in entries]
        hits = [entry[3] for entry in entries]  # inactive workloads keep solo

        # --- SharedCacheModel.allocate, fused -------------------------- #
        # _water_fill on the active workloads, by entry position.  Shares
        # are computed once per pass (the reference implementation
        # recomputes the identical expression in its second loop, so
        # reusing the value is exact), and each workload's capped need —
        # ``min(working_set, capacity)`` of the same two floats everywhere
        # — once up front.  ``pending`` holds the active entries still
        # being filled and ``remaining`` their workloads in workload order:
        # the same list unless entries are shared.
        active = [
            position
            for position, entry in enumerate(entries)
            if entry[1] > 0 and entry[2] > 0
        ]
        needs = [
            capacity_mb if capacity_mb < entry[2] else entry[2] for entry in entries
        ]
        allocations = [0.0] * len(entries)
        pending = remaining = active
        if classes is not None:
            active_entries = set(active)
            remaining = [position for position in classes if position in active_entries]
        remaining_capacity = capacity_mb
        for _ in range(len(active) + 1):
            if not remaining or remaining_capacity <= 1e-12:
                break
            total_rate = sum([rates[position] for position in remaining])
            if total_rate <= 0:
                break
            shares = [
                remaining_capacity * rates[position] / total_rate
                for position in pending
            ]
            uncapped: list[int] = []
            capped: list[int] = []
            for position, share in zip(pending, shares):
                if share >= needs[position] - allocations[position]:
                    capped.append(position)
                else:
                    uncapped.append(position)
            if not capped:
                for position, share in zip(pending, shares):
                    allocations[position] += share
                remaining_capacity = 0.0
                break
            if classes is None:
                for position in capped:
                    need = needs[position]
                    grant = need - allocations[position]
                    allocations[position] = need
                    remaining_capacity -= grant
                remaining = uncapped
            else:
                # Every workload of a capped entry is granted the same,
                # subtracted once per workload in workload order.
                grants = {
                    position: needs[position] - allocations[position]
                    for position in capped
                }
                for position in remaining:
                    if position in grants:
                        remaining_capacity -= grants[position]
                for position in capped:
                    allocations[position] = needs[position]
                remaining = [position for position in remaining if position not in grants]
            pending = uncapped

        for position in active:
            need_mb = needs[position]
            if need_mb <= 0:
                continue
            coverage = allocations[position] / need_mb
            if 0.0 > coverage:
                coverage = 0.0
            if 1.0 < coverage:
                coverage = 1.0
            hits[position] = hits[position] * coverage**utility_exponent

        # --- aggregate loads ------------------------------------------- #
        line_size = self._machine.line_size_bytes
        total_dram_bytes = 0.0
        if classes is None:
            total_l3_lookups = sum(rates)
            for rate, hit_fraction in zip(rates, hits):
                total_dram_bytes += rate * (1.0 - hit_fraction) * line_size
            hit_fractions = dict(zip([entry[0] for entry in entries], hits))
        else:
            total_l3_lookups = sum([rates[position] for position in classes])
            dram_bytes = [
                rate * (1.0 - hit_fraction) * line_size
                for rate, hit_fraction in zip(rates, hits)
            ]
            for position in classes:
                total_dram_bytes += dram_bytes[position]
            hit_fractions = dict(zip(workload_ids, [hits[position] for position in classes]))

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
            hit_fractions,
            ring.latency_at(ring_utilization),
            memory.latency_at(bandwidth_utilization),
            ring_utilization,
            bandwidth_utilization,
            1.0 + self._parameters.private_pressure_sensitivity * pressure,
        )

    def solo_penalty(self, demand: WorkloadDemand) -> SharedResourcePenalty:
        """Penalties experienced when the workload runs alone on the machine."""
        return self.evaluate([demand])[demand.workload_id]
