"""CT-Gen and MB-Gen: the congestion-calibration traffic generators.

The paper defines congestion levels with two multi-threaded generators
(Section 3, Figure 1):

``CT-Gen``
    Each thread streams through a buffer sized to miss the L2 but fit in the
    L3, so the generated traffic hammers the core-to-L3 path without
    consuming DRAM bandwidth.  Congestion created this way is "on-chip".

``MB-Gen``
    Each thread streams through a buffer far larger than the L3, so nearly
    every access misses the L3, evicting resident blocks and saturating
    memory bandwidth.  Its own L2 miss *rate* is lower than CT-Gen's because
    the threads stall on their own DRAM accesses — the self-imposed
    bottleneck the paper points out.

The stress level is simply the number of threads (1–31 on the 32-core
socket), each pinned to its own core.  In this reproduction every generator
thread is a :class:`FunctionSpec` flagged ``is_traffic_generator`` with an
effectively infinite body, so the platform engine schedules it like any
other workload but never bills or finishes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.workloads.function import FunctionSpec
from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.runtimes import Language

#: Instruction budget for a generator thread.  Large enough that a generator
#: never completes within any experiment we run.
_GENERATOR_INSTRUCTIONS = 1e15


class GeneratorKind(enum.Enum):
    """Which shared-resource region the generator stresses."""

    CT = "ct-gen"
    MB = "mb-gen"


#: Per-thread resource profile of each generator.
_GENERATOR_PROFILES = {
    GeneratorKind.CT: ResourceProfile(
        cpi_base=0.30,
        l2_mpki=80.0,
        working_set_mb=0.6,
        solo_l3_hit_fraction=0.985,
        mlp=8.0,
    ),
    GeneratorKind.MB: ResourceProfile(
        cpi_base=0.30,
        l2_mpki=45.0,
        working_set_mb=26.0,
        solo_l3_hit_fraction=0.12,
        mlp=6.0,
    ),
}


@dataclass(frozen=True)
class TrafficGenerator:
    """A generator configuration: kind plus stress level (thread count)."""

    kind: GeneratorKind
    threads: int

    def __post_init__(self) -> None:
        if self.threads < 0:
            raise ValueError("threads must be >= 0")

    @property
    def stress_level(self) -> int:
        return self.threads

    @property
    def profile(self) -> ResourceProfile:
        return _GENERATOR_PROFILES[self.kind]

    def thread_specs(self) -> List[FunctionSpec]:
        """One continuous workload spec per generator thread."""
        specs: List[FunctionSpec] = []
        for index in range(self.threads):
            body = ExecutionPhase(
                name=f"{self.kind.value}-thread-{index}",
                kind=PhaseKind.BODY,
                instructions=_GENERATOR_INSTRUCTIONS,
                profile=self.profile,
            )
            specs.append(
                FunctionSpec(
                    name=f"{self.kind.value} thread {index}",
                    abbreviation=f"{self.kind.value}-{index}",
                    language=Language.GO,
                    suite="traffic-generator",
                    memory_mb=max(self.profile.working_set_mb, 1.0),
                    body_phases=(body,),
                    is_reference=False,
                    is_traffic_generator=True,
                )
            )
        return specs


def generator(kind: GeneratorKind, threads: int) -> TrafficGenerator:
    """Construct a generator of either kind at a stress level."""
    return TrafficGenerator(kind=kind, threads=threads)


def stress_levels(maximum: int = 31, step: int = 1) -> Tuple[int, ...]:
    """The ladder of stress levels 1..maximum used to build the tables."""
    if maximum < 1:
        raise ValueError("maximum must be >= 1")
    if step < 1:
        raise ValueError("step must be >= 1")
    return tuple(range(1, maximum + 1, step))
