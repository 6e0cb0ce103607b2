"""The "measured" utilization stream the calibrator fits against.

One measurement window is a steady-churn co-location experiment on a
single machine — the same submission/resubmission idiom as
:class:`repro.platform.batch.FleetSweep`, per-machine mixer seeded the
same way — observed epoch-by-epoch: each epoch contributes the machine's
cumulative shared-stall fraction (stall cycles on shared-resource misses
over total cycles, totals since the window began).  That is the paper's
``T_shared`` share of execution — the one component the contention model
actually produces — so a wrong coefficient moves every reading instead
of being diluted by the private-execution baseline, and the cumulative
totals smooth churn phase noise that decorrelates per-epoch deltas.

Ground truth is the scalar :class:`repro.platform.engine.SimulationEngine`
(the repo's correctness oracle throughout); candidate fits replay the
identical window — same seed, same churn draws, same epoch count — under
their own coefficients, so a candidate matching the truth parameters
reproduces the measured series *bit for bit* and scores an exact 0 MAPE.
Mid-window hardware drift segments the window at each
:class:`repro.calibrate.drift.DriftEvent` boundary with the fault
machinery's :func:`repro.platform.batch.sweep.advance_to_boundary`
arithmetic, so the vector and scalar backends apply the drifted
coefficients at the same epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.calibrate.drift import DriftInjector
from repro.calibrate.profile import HardwareProfile
from repro.hardware.cpu import CPU
from repro.platform.batch.sweep import advance_to_boundary, resolve_mix
from repro.platform.batch.vector_engine import VectorEngine, VectorEngineConfig
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.scheduler import LeastOccupancyScheduler
from repro.workloads.registry import FunctionRegistry, default_registry
from repro.workloads.synthetic import WorkloadMixer

MEASURE_BACKENDS = ("scalar", "vector")


@dataclass(frozen=True)
class MeasureConfig:
    """Shape of one measurement window's co-location experiment."""

    #: Cores hosting functions (must not exceed the profile machine's cores).
    cores: int = 4
    #: Functions co-located per core.  The default leans heavy on purpose:
    #: more contention means the shared-stall signal responds more sharply
    #: to the coefficient under search.
    colocation: int = 4
    #: Traffic mix: ``all``, ``memory-intensive`` or ``abbr+abbr`` lists.
    mix: str = "memory-intensive"
    seed: int = 2024
    epoch_seconds: float = 1e-3
    #: Function-body scale (same fidelity/wall-clock dial as sweeps).
    registry_scale: float = 0.05

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.colocation < 1:
            raise ValueError("colocation must be >= 1")
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.registry_scale <= 0:
            raise ValueError("registry_scale must be positive")


def _registry_for(config: MeasureConfig) -> FunctionRegistry:
    base = default_registry()
    return base if config.registry_scale == 1.0 else base.scaled(config.registry_scale)


def measure_series(
    profile: HardwareProfile,
    config: MeasureConfig,
    epochs: int,
    *,
    backend: str = "scalar",
    start_seconds: float = 0.0,
    drift: Optional[DriftInjector] = None,
) -> List[float]:
    """Per-epoch cumulative shared-stall fraction over one measurement window.

    ``start_seconds`` places the window on the drift injector's absolute
    clock (the engine itself always starts cold at 0 — a window is a fresh
    controlled experiment, the way Litmus calibration runs are).  With no
    drift the series is a pure function of (profile, config, epochs,
    seed); both backends step the identical epochs and segment at the
    identical boundaries.
    """
    if backend not in MEASURE_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {MEASURE_BACKENDS}"
        )
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    machine = profile.machine
    if config.cores > machine.cores:
        raise ValueError(
            f"measure config wants {config.cores} cores but "
            f"{machine.name} has {machine.cores}"
        )
    pool = resolve_mix(config.mix, _registry_for(config))
    mixer = WorkloadMixer(pool, seed=config.seed)
    window_seconds = epochs * config.epoch_seconds
    parameters = (
        drift.profile_at(start_seconds) if drift is not None else profile
    ).contention

    series: List[float] = []
    fleet = config.cores * config.colocation

    if backend == "vector":
        engine = VectorEngine(
            machine,
            machines=1,
            config=VectorEngineConfig(epoch_seconds=config.epoch_seconds),
            contention_parameters=parameters,
            materialize_handles=False,
            initial_capacity=max(4 * fleet, 1024),
        )
        for thread in range(config.cores):
            for _ in range(config.colocation):
                engine.submit(mixer.next(), machine=0, thread_id=thread)

        def on_finish(index: object, eng: VectorEngine) -> None:
            thread = int(eng.gthread[index])
            eng.submit(mixer.next(), machine=0, thread_id=thread)

        engine.add_finish_listener(on_finish)

        def read_counters():
            snapshot = engine.machine_counters(0)
            return snapshot.cycles, snapshot.stall_cycles_l2_miss

    else:
        engine = SimulationEngine(
            CPU(machine, contention_parameters=parameters),
            LeastOccupancyScheduler(),
            config=EngineConfig(epoch_seconds=config.epoch_seconds),
        )
        for thread in range(config.cores):
            for _ in range(config.colocation):
                engine.submit(mixer.next(), thread_id=thread)

        def on_finish(invocation, eng) -> None:
            eng.submit(mixer.next(), thread_id=invocation.thread_id)

        engine.add_finish_listener(on_finish)

        def read_counters():
            counters = engine.cpu.global_counters
            return counters.cycles, counters.stall_cycles_l2_miss

    def record() -> None:
        cycles, stall = read_counters()
        series.append(stall / cycles if cycles > 0 else 0.0)

    boundaries = (
        drift.boundaries(start_seconds, start_seconds + window_seconds)
        if drift is not None
        else []
    )
    for when in boundaries:
        advance_to_boundary(engine, when - start_seconds, on_epoch=record)
        engine.set_contention_parameters(drift.profile_at(when).contention)
    advance_to_boundary(engine, window_seconds, on_epoch=record)
    return series
