"""On-chip interconnect (ring / mesh) and L3 access-port model.

CT-Gen stresses the path between the cores and the L3: it produces a flood of
L2 misses that *hit* in the L3, so the congestion it creates lives in the
uncore interconnect and the L3 access ports rather than in DRAM bandwidth.
This model inflates the L3 hit latency as the aggregate rate of L3 lookups
approaches the uncore's service capacity, with the same queueing-curve shape
as the memory model but its own (much higher) capacity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RingLoad:
    """Aggregate rate of L3 lookups during an epoch."""

    accesses_per_second: float

    def __post_init__(self) -> None:
        if self.accesses_per_second < 0:
            raise ValueError("accesses_per_second must be >= 0")


class RingBandwidthModel:
    """L3 hit-latency inflation as uncore traffic saturates."""

    def __init__(
        self,
        peak_accesses_per_us: float,
        unloaded_latency_cycles: float,
        queueing_coefficient: float = 0.35,
        max_utilization: float = 0.97,
    ) -> None:
        if peak_accesses_per_us <= 0:
            raise ValueError("peak_accesses_per_us must be positive")
        if unloaded_latency_cycles <= 0:
            raise ValueError("unloaded_latency_cycles must be positive")
        if queueing_coefficient < 0:
            raise ValueError("queueing_coefficient must be >= 0")
        if not 0.0 < max_utilization < 1.0:
            raise ValueError("max_utilization must be in (0, 1)")
        self._peak_accesses_per_second = peak_accesses_per_us * 1e6
        self._unloaded_latency_cycles = unloaded_latency_cycles
        self._queueing_coefficient = queueing_coefficient
        self._max_utilization = max_utilization

    @property
    def peak_accesses_per_us(self) -> float:
        return self._peak_accesses_per_second / 1e6

    def utilization_at(self, accesses_per_second: float) -> float:
        """Fraction of the lookup capacity used, clamped to the model maximum."""
        raw = accesses_per_second / self._peak_accesses_per_second
        # min(max(raw, 0.0), max_utilization), as the builtins resolve it.
        if 0.0 > raw:
            raw = 0.0
        return self._max_utilization if self._max_utilization < raw else raw

    def latency_at(self, utilization: float) -> float:
        """Loaded L3 hit latency in cycles at a :meth:`utilization_at` value."""
        inflation = 1.0 + self._queueing_coefficient * utilization / (1.0 - utilization)
        return self._unloaded_latency_cycles * inflation

    def utilization(self, load: RingLoad) -> float:
        return self.utilization_at(load.accesses_per_second)

    def effective_latency_cycles(self, load: RingLoad) -> float:
        return self.latency_at(self.utilization(load))
