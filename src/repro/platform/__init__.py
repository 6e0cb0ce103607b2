"""Serverless platform substrate.

This package provides the pieces of a FaaS platform that the paper's
evaluation needs: sandboxes, an invoker that tracks per-invocation state and
counters, placement schedulers (dedicated cores, temporal sharing, SMT), a
churn manager that keeps a target number of co-running functions alive, a
Perf-like metering layer, a solo-execution oracle (for ideal prices and
probe baselines) and the epoch-driven simulation engine that advances every
active invocation under the hardware contention model.
"""

from repro.platform.sandbox import Sandbox
from repro.platform.invoker import Invocation, InvocationState
from repro.platform.scheduler import (
    LeastOccupancyScheduler,
    DedicatedCoreScheduler,
    Scheduler,
    SwitchingOverheadModel,
)
from repro.platform.churn import ChurnManager
from repro.platform.drivers import RepeatingSubmitter, SubmitterGroup
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.metering import (
    InvocationMeasurement,
    StartupMeasurement,
    measure_invocation,
    measure_startup,
)
from repro.platform.oracle import SoloOracle, SoloProfile

__all__ = [
    "Sandbox",
    "Invocation",
    "InvocationState",
    "Scheduler",
    "LeastOccupancyScheduler",
    "DedicatedCoreScheduler",
    "SwitchingOverheadModel",
    "ChurnManager",
    "RepeatingSubmitter",
    "SubmitterGroup",
    "EngineConfig",
    "SimulationEngine",
    "InvocationMeasurement",
    "StartupMeasurement",
    "measure_invocation",
    "measure_startup",
    "SoloOracle",
    "SoloProfile",
]
