"""Batched (vectorized) fleet-simulation backend.

:class:`VectorEngine` advances an entire fleet of machines and invocations
per epoch with NumPy array operations; :class:`FleetSweep` simulates a grid
of scenarios (traffic mixes × machine counts × co-location levels) in one
batched run on one :class:`VectorDrive` (which :mod:`repro.serve` advances
a chunk at a time), and :func:`run_sharded` partitions such a grid across worker
processes — one fleet per shard, deterministic seeds, results merged
identical to the single-process run.  The scalar
:mod:`repro.platform.engine` remains the bit-exact reference backend for
the committed figures.

Scenario grids are usually *compiled*, not hand-built: declarative TOML or
JSON scenario specs live in :mod:`repro.scenarios` and turn into the
:class:`FleetScenario` lists these classes consume.  See
``docs/backends.md`` for how the two backends relate and
``docs/scenarios.md`` for the spec format.
"""

from repro.platform.batch.vector_engine import (
    VectorEngine,
    VectorEngineConfig,
    VectorEngineStats,
)
from repro.platform.batch.sweep import (
    FleetScenario,
    advance_to_boundary,
    FleetSweep,
    FleetSweepResult,
    NAMED_MIXES,
    ScenarioResult,
    VectorDrive,
    resolve_mix,
)
from repro.platform.batch.shard import (
    ShardTiming,
    ShardedSweepResult,
    partition_scenarios,
    run_sharded,
)
from repro.platform.faults import (
    FAULT_TYPES,
    FaultSpec,
    FaultStats,
    faults_for_scenario,
)
from repro.platform.metering import (
    MeterFaultInjector,
    MeteringLedger,
    TenantBilling,
)

__all__ = [
    "VectorEngine",
    "VectorEngineConfig",
    "VectorEngineStats",
    "FleetScenario",
    "advance_to_boundary",
    "FleetSweep",
    "FleetSweepResult",
    "NAMED_MIXES",
    "ScenarioResult",
    "VectorDrive",
    "resolve_mix",
    "ShardTiming",
    "ShardedSweepResult",
    "partition_scenarios",
    "run_sharded",
    "FAULT_TYPES",
    "FaultSpec",
    "FaultStats",
    "faults_for_scenario",
    "MeterFaultInjector",
    "MeteringLedger",
    "TenantBilling",
]
