"""Declarative scenario specs for fleet-scale sweeps.

This package makes simulation scenarios first-class *data*: a TOML or JSON
spec file describes a whole study — grid axes (traffic mixes × machine
counts × co-location levels), seeded churn-traffic generators, and engine
settings — and compiles into the :class:`repro.platform.batch.FleetSweep`
jobs the batched backend executes, optionally sharded across worker
processes (``python -m repro sweep --spec my-study.toml --shards 4``).

Entry points, in lifecycle order:

* :func:`load_spec` / :func:`load_spec_or_preset` / :func:`parse_spec_text`
  — read and schema-validate a spec (:class:`SpecError` on any problem,
  with the path of the offending field);
* :func:`expand_grid` — the spec's full scenario cross product;
* :func:`compile_spec` — resolve machine and function names into a
  runnable :class:`CompiledSweep`;
* :func:`list_presets` / :func:`load_preset` — the named example specs
  shipped under ``repro/scenarios/presets/``.

The spec format is documented with worked examples in
``docs/scenarios.md``; the architecture of the execution path it feeds is
in ``docs/backends.md``.
"""

from repro.scenarios.faults import (
    DegradationReport,
    ScenarioDegradation,
    parse_faults,
)
from repro.scenarios.schema import SpecError
from repro.scenarios.spec import (
    SPEC_TRAFFIC_POLICIES,
    CompiledSweep,
    MixDef,
    ScenarioSpec,
    compile_spec,
    expand_grid,
    list_presets,
    load_preset,
    load_spec,
    load_spec_or_preset,
    parse_spec,
    parse_spec_text,
    preset_path,
)
from repro.scenarios.trace import TraceChunk, chunk_plan, partition_plan

__all__ = [
    "DegradationReport",
    "ScenarioDegradation",
    "parse_faults",
    "SpecError",
    "SPEC_TRAFFIC_POLICIES",
    "CompiledSweep",
    "MixDef",
    "ScenarioSpec",
    "compile_spec",
    "expand_grid",
    "list_presets",
    "load_preset",
    "load_spec",
    "load_spec_or_preset",
    "parse_spec",
    "parse_spec_text",
    "preset_path",
    "TraceChunk",
    "chunk_plan",
    "partition_plan",
]
