"""Off-chip memory bandwidth and latency model.

Traffic that misses the L3 travels to DRAM.  Under light load an access pays
the unloaded DRAM latency; as the aggregate bandwidth demand approaches the
socket's peak, queueing delays inflate the effective latency sharply.  The
model is a standard open-queue latency/bandwidth curve:

    latency(u) = latency_unloaded * (1 + k * u / (1 - u))

with the utilisation ``u`` clamped below 1.  MB-Gen drives the system into
the steep right-hand side of this curve; CT-Gen barely registers on it, which
is exactly the distinction the Litmus test exploits through L3 miss counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryLoad:
    """Aggregate DRAM traffic during an epoch."""

    bytes_per_second: float

    def __post_init__(self) -> None:
        if self.bytes_per_second < 0:
            raise ValueError("bytes_per_second must be >= 0")


class MemoryBandwidthModel:
    """Latency inflation of DRAM accesses as bandwidth saturates."""

    def __init__(
        self,
        peak_bandwidth_gbs: float,
        unloaded_latency_cycles: float,
        queueing_coefficient: float = 0.55,
        max_utilization: float = 0.97,
    ) -> None:
        if peak_bandwidth_gbs <= 0:
            raise ValueError("peak_bandwidth_gbs must be positive")
        if unloaded_latency_cycles <= 0:
            raise ValueError("unloaded_latency_cycles must be positive")
        if queueing_coefficient < 0:
            raise ValueError("queueing_coefficient must be >= 0")
        if not 0.0 < max_utilization < 1.0:
            raise ValueError("max_utilization must be in (0, 1)")
        self._peak_bytes_per_second = peak_bandwidth_gbs * 1e9
        self._unloaded_latency_cycles = unloaded_latency_cycles
        self._queueing_coefficient = queueing_coefficient
        self._max_utilization = max_utilization

    def utilization_at(self, bytes_per_second: float) -> float:
        """Fraction of peak bandwidth consumed, clamped to the model maximum."""
        raw = bytes_per_second / self._peak_bytes_per_second
        # min(max(raw, 0.0), max_utilization), as the builtins resolve it.
        if 0.0 > raw:
            raw = 0.0
        return self._max_utilization if self._max_utilization < raw else raw

    def latency_at(self, utilization: float) -> float:
        """Loaded DRAM latency in cycles at a :meth:`utilization_at` value."""
        inflation = 1.0 + self._queueing_coefficient * utilization / (1.0 - utilization)
        return self._unloaded_latency_cycles * inflation

    def utilization(self, load: MemoryLoad) -> float:
        """Fraction of peak bandwidth consumed, clamped to the model maximum."""
        return self.utilization_at(load.bytes_per_second)

    def effective_latency_cycles(self, load: MemoryLoad) -> float:
        """Loaded DRAM latency in cycles for the given aggregate traffic."""
        return self.latency_at(self.utilization(load))
