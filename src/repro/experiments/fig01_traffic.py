"""Figure 1: CT-Gen and MB-Gen traffic characteristics.

The paper normalizes each generator's L2 and L3 miss counts (as thread count
grows from 1 to 31) by the average misses of the serverless benchmarks.  The
reproduction runs each generator alone on the machine for a fixed window and
reports the same normalized counts: CT-Gen's L2 misses grow linearly with
thread count while its L3 misses stay small; MB-Gen produces massive L3
misses but fewer L2 misses than CT-Gen because it throttles itself on DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.experiments.config import ExperimentConfig, one_per_core
from repro.experiments.harness import FigureResult, oracle_for, registry_for
from repro.hardware.cpu import CPU
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.scheduler import DedicatedCoreScheduler
from repro.workloads.traffic import GeneratorKind, generator

#: How long each generator configuration is observed (simulated seconds).
_OBSERVATION_WINDOW_SECONDS = 0.02

DEFAULT_LEVELS: Sequence[int] = (1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31)


@dataclass(frozen=True)
class GeneratorTrafficPoint:
    """Normalized L2/L3 misses of one generator at one stress level."""

    generator: str
    threads: int
    normalized_l2_misses: float
    normalized_l3_misses: float


def _average_application_misses(config: ExperimentConfig) -> tuple[float, float]:
    """Average solo L2/L3 misses per benchmark run (the normalization base)."""
    registry = registry_for(config)
    oracle = oracle_for(config)
    l2_total = 0.0
    l3_total = 0.0
    specs = registry.all()
    for spec in specs:
        execution = oracle.profile(spec).execution
        l2_total += execution.l2_misses
        l3_total += execution.l3_misses
    return l2_total / len(specs), l3_total / len(specs)


def _generator_misses(
    config: ExperimentConfig, kind: GeneratorKind, threads: int
) -> tuple[float, float]:
    cpu = CPU(config.machine)
    engine = SimulationEngine(
        cpu,
        DedicatedCoreScheduler(),
        config=EngineConfig(epoch_seconds=config.epoch_seconds),
    )
    for index, spec in enumerate(generator(kind, threads).thread_specs()):
        engine.submit(spec, thread_id=index, tags={"role": "generator"})
    engine.run_for(_OBSERVATION_WINDOW_SECONDS)
    counters = cpu.global_counters
    return counters.l2_misses, counters.l3_misses


def run(
    config: Optional[ExperimentConfig] = None,
    levels: Sequence[int] = DEFAULT_LEVELS,
) -> FigureResult:
    """Regenerate Figure 1 (normalized generator L2/L3 misses vs level)."""
    config = config or one_per_core()
    base_l2, base_l3 = _average_application_misses(config)
    points: List[GeneratorTrafficPoint] = []
    for kind in (GeneratorKind.CT, GeneratorKind.MB):
        for threads in levels:
            l2, l3 = _generator_misses(config, kind, threads)
            points.append(
                GeneratorTrafficPoint(
                    generator=kind.value,
                    threads=threads,
                    normalized_l2_misses=l2 / max(base_l2, 1e-9),
                    normalized_l3_misses=l3 / max(base_l3, 1e-9),
                )
            )

    rows: List[Mapping[str, object]] = [
        {
            "generator": p.generator,
            "threads": p.threads,
            "normalized_l2_misses": p.normalized_l2_misses,
            "normalized_l3_misses": p.normalized_l3_misses,
        }
        for p in points
    ]
    ct_max_l3 = max(
        p.normalized_l3_misses for p in points if p.generator == GeneratorKind.CT.value
    )
    mb_max_l3 = max(
        p.normalized_l3_misses for p in points if p.generator == GeneratorKind.MB.value
    )
    ct_max_l2 = max(
        p.normalized_l2_misses for p in points if p.generator == GeneratorKind.CT.value
    )
    mb_max_l2 = max(
        p.normalized_l2_misses for p in points if p.generator == GeneratorKind.MB.value
    )
    return FigureResult(
        name="fig01",
        description="Figure 1: normalized L2/L3 misses of CT-Gen and MB-Gen",
        columns=("generator", "threads", "normalized_l2_misses", "normalized_l3_misses"),
        rows=tuple(rows),
        summary={
            "ct_gen_max_normalized_l2": ct_max_l2,
            "mb_gen_max_normalized_l2": mb_max_l2,
            "ct_gen_max_normalized_l3": ct_max_l3,
            "mb_gen_max_normalized_l3": mb_max_l3,
            "l3_separation_ratio": mb_max_l3 / max(ct_max_l3, 1e-9),
        },
    )
