"""Machine topology descriptions.

The paper evaluates Litmus on two Intel servers:

* a dual-socket Xeon Gold 5218 (Cascade Lake), 16 cores/socket, 1 MB L2 per
  core, 22 MB shared L3 per socket, 384 GB DRAM, pinned at 2.8 GHz;
* a Xeon Silver 4314 (Ice Lake) with 128 GB DRAM used in the sensitivity
  study (Figure 19).

Only the parameters that influence the contention model are captured here.
Everything is plain data so new machines can be described without touching
any simulator code.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheSpec:
    """Geometry and latency of one cache level.

    Sizes are in kibibytes; latencies are in CPU cycles for a hit in that
    level.  ``shared`` marks whether the cache is private to a core (L1/L2)
    or shared across the socket (L3).
    """

    level: str
    size_kb: float
    latency_cycles: float
    shared: bool = False

    def __post_init__(self) -> None:
        if self.size_kb <= 0:
            raise ValueError(f"cache size must be positive, got {self.size_kb}")
        if self.latency_cycles <= 0:
            raise ValueError(
                f"cache latency must be positive, got {self.latency_cycles}"
            )

    @property
    def size_mb(self) -> float:
        return self.size_kb / 1024.0


@dataclass(frozen=True)
class MachineSpec:
    """A socket-level description of the machine the platform runs on.

    The simulator treats one socket as the sharing domain (the paper pins
    its experiments to cores of a single socket and stresses that socket's
    L3 and memory bandwidth).  ``cores`` is therefore the number of physical
    cores in the sharing domain, not the whole box.
    """

    name: str
    architecture: str
    cores: int
    smt_ways: int
    base_frequency_ghz: float
    max_turbo_frequency_ghz: float
    l1d: CacheSpec
    l2: CacheSpec
    l3: CacheSpec
    memory_gb: float
    memory_latency_ns: float
    memory_bandwidth_gbs: float
    ring_peak_accesses_per_us: float
    line_size_bytes: int = 64
    smt_private_penalty: float = 1.55
    context_switch_cost_us: float = 3.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("machine must have at least one core")
        if self.smt_ways < 1:
            raise ValueError("smt_ways must be >= 1")
        if self.base_frequency_ghz <= 0:
            raise ValueError("base frequency must be positive")
        if self.max_turbo_frequency_ghz < self.base_frequency_ghz:
            raise ValueError("turbo frequency cannot be below base frequency")
        if not self.l3.shared:
            raise ValueError("the L3 cache must be marked shared")
        if self.memory_bandwidth_gbs <= 0:
            raise ValueError("memory bandwidth must be positive")

    @property
    def memory_latency_cycles(self) -> float:
        """Unloaded DRAM latency expressed in cycles at the base frequency."""
        return self.memory_latency_ns * self.base_frequency_ghz

    def scaled(self, **overrides: object) -> "MachineSpec":
        """Return a copy of this spec with selected fields replaced.

        Useful for sensitivity studies (e.g. a machine with a smaller L3 or
        less memory bandwidth) without redefining the whole topology.
        """
        values = {f: getattr(self, f) for f in self.__dataclass_fields__}
        values.update(overrides)
        return MachineSpec(**values)  # type: ignore[arg-type]


def _xeon_gold_5218() -> MachineSpec:
    return MachineSpec(
        name="xeon-gold-5218",
        architecture="cascade-lake",
        cores=32,
        smt_ways=2,
        base_frequency_ghz=2.8,
        max_turbo_frequency_ghz=3.9,
        l1d=CacheSpec(level="L1D", size_kb=32, latency_cycles=4),
        l2=CacheSpec(level="L2", size_kb=1024, latency_cycles=14),
        l3=CacheSpec(level="L3", size_kb=22 * 1024, latency_cycles=44, shared=True),
        memory_gb=384.0,
        memory_latency_ns=85.0,
        memory_bandwidth_gbs=105.0,
        ring_peak_accesses_per_us=950.0,
    )


def _xeon_silver_4314() -> MachineSpec:
    return MachineSpec(
        name="xeon-silver-4314",
        architecture="ice-lake",
        cores=16,
        smt_ways=2,
        base_frequency_ghz=2.4,
        max_turbo_frequency_ghz=3.4,
        l1d=CacheSpec(level="L1D", size_kb=48, latency_cycles=5),
        l2=CacheSpec(level="L2", size_kb=1280, latency_cycles=14),
        l3=CacheSpec(level="L3", size_kb=24 * 1024, latency_cycles=48, shared=True),
        memory_gb=128.0,
        memory_latency_ns=92.0,
        memory_bandwidth_gbs=76.0,
        ring_peak_accesses_per_us=700.0,
    )


#: The paper's primary testbed: dual-socket Xeon Gold 5218 (one socket is the
#: sharing domain used by the experiments, exposing 32 logical stress levels).
CASCADE_LAKE_5218 = _xeon_gold_5218()

#: The sensitivity-study machine of Figure 19.
ICE_LAKE_4314 = _xeon_silver_4314()

_MACHINES = {
    CASCADE_LAKE_5218.name: CASCADE_LAKE_5218,
    ICE_LAKE_4314.name: ICE_LAKE_4314,
    "cascade-lake": CASCADE_LAKE_5218,
    "ice-lake": ICE_LAKE_4314,
}


def machine_by_name(name: str) -> MachineSpec:
    """Look up a predefined machine by name or architecture alias."""
    try:
        return _MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(_MACHINES))
        raise KeyError(f"unknown machine {name!r}; known machines: {known}") from None
