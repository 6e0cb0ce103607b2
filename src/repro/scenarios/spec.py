"""Declarative scenario specs: parse, validate, expand, compile.

A *scenario spec* is a small TOML (or JSON) document that describes a fleet
study — the sweep grid, the churn-traffic policy, and the engine settings —
as data instead of CLI flags.  The full format is documented with worked
examples in ``docs/scenarios.md``; the shape is::

    name = "colocation-ladder"
    description = "How throughput degrades as co-location deepens."

    [sweep]
    horizon_seconds = 0.5
    registry_scale = 0.05

    [grid]
    mixes = ["all", "hot-graph"]
    machines = [1, 2]
    colocations = [1, 5, 10]
    cores_per_machine = 8

    [traffic]
    policy = "round-robin"

    [mixes.hot-graph]
    functions = ["bfs-py", "pager-py", "mst-py"]
    weights = [3.0, 1.0, 1.0]

The lifecycle is ``load → parse/validate → expand → compile → run``:

* :func:`load_spec` / :func:`parse_spec_text` / :func:`parse_spec` read a
  document and validate it against the schema, raising
  :class:`~repro.scenarios.schema.SpecError` with the path of the offending
  field on any problem;
* :func:`expand_grid` turns the validated spec into the full cross product
  of :class:`~repro.platform.batch.FleetScenario` cells (mixes × machine
  counts × co-location levels), attaching the spec's
  :class:`~repro.workloads.synthetic.TrafficModel` to every cell;
* :func:`compile_spec` resolves everything that needs the hardware and
  workload registries (machine name, function abbreviations) and returns a
  :class:`CompiledSweep`, whose :meth:`CompiledSweep.run` executes the grid
  in-process or sharded across workers
  (:func:`repro.platform.batch.run_sharded`).

Named presets ship inside the package (``repro/scenarios/presets/*.toml``);
:func:`list_presets` enumerates them and :func:`load_preset` parses one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, List, Mapping, Optional, Tuple

try:  # Python 3.11+; JSON specs keep working on older interpreters.
    import tomllib
except ImportError:  # pragma: no cover - py<3.11
    tomllib = None

from repro.hardware.topology import CASCADE_LAKE_5218, MachineSpec, machine_by_name
from repro.platform.batch.shard import ShardedSweepResult, run_sharded
from repro.platform.batch.sweep import (
    NAMED_MIXES,
    FleetScenario,
    FleetSweep,
    resolve_mix,
)
from repro.platform.faults import FaultSpec, faults_for_scenario
from repro.scenarios import schema
from repro.scenarios.faults import parse_faults
from repro.scenarios.schema import SpecError
from repro.workloads.registry import FunctionRegistry, default_registry
from repro.workloads.synthetic import TrafficModel

#: Traffic policies a spec's ``[traffic]`` table may name.  ``weighted`` is
#: not listed: weights are attached to individual ``[mixes.*]`` definitions,
#: which implies the weighted policy for scenarios using that mix.
SPEC_TRAFFIC_POLICIES = ("uniform", "round-robin", "trace")

_TOP_LEVEL_KEYS = ("name", "description", "sweep", "grid", "traffic", "mixes", "faults")
_SWEEP_KEYS = (
    "horizon_seconds",
    "epoch_seconds",
    "registry_scale",
    "machine",
    "backend",
    "shards",
)
_GRID_KEYS = ("mixes", "machines", "colocations", "cores_per_machine", "seed")
_BACKENDS = ("vector", "scalar")
_TRAFFIC_KEYS = ("policy", "trace")
_MIX_KEYS = ("functions", "weights")


@dataclass(frozen=True)
class MixDef:
    """A custom named mix: an explicit function pool, optionally weighted."""

    name: str
    functions: Tuple[str, ...]
    weights: Tuple[float, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """A parsed, schema-valid scenario spec (registry not yet consulted).

    Field defaults are the defaults of a spec document (:func:`parse_spec`
    reads them from here) and of ``python -m repro sweep``: without
    ``--spec`` the grid flags that were passed become a spec, so a spec
    only says what deviates.  Function abbreviations and the machine name
    are resolved later by :func:`compile_spec`, which raises
    :class:`SpecError` for what it resolves even in a spec built in memory
    (such a spec skips :func:`parse_spec`'s checks).
    """

    name: str
    description: str = ""
    #: Grid axes: mix names (built-in, custom, or ``+``-joined functions).
    mixes: Tuple[str, ...] = ("all",)
    machines: Tuple[int, ...] = (1,)
    colocations: Tuple[int, ...] = (1,)
    cores_per_machine: Optional[int] = None
    seed: int = 2024
    #: Engine settings.
    horizon_seconds: float = 2.0
    epoch_seconds: float = 1e-3
    registry_scale: float = 0.1
    machine: str = CASCADE_LAKE_5218.name
    backend: str = "vector"
    #: Default shard count for :meth:`CompiledSweep.run` (CLI ``--shards``
    #: overrides).
    shards: int = 1
    #: Churn-traffic policy applied to every scenario.
    traffic_policy: str = "uniform"
    trace: Tuple[str, ...] = ()
    #: Custom ``[mixes.*]`` definitions, usable from :attr:`mixes`.
    mix_definitions: Tuple[MixDef, ...] = ()
    #: Declared ``[[faults]]``, applied to matching scenarios at expansion
    #: (see docs/chaos.md).  Empty = healthy fleet.
    faults: Tuple[FaultSpec, ...] = ()

    @property
    def grid_size(self) -> int:
        """Number of scenarios the spec expands to."""
        return len(self.mixes) * len(self.machines) * len(self.colocations)


#: A spec that sets nothing but its name: every default of
#: :func:`parse_spec` is one of its fields.
_DEFAULT = ScenarioSpec(name="")


def parse_spec(document: Mapping[str, Any], *, origin: str = "<spec>") -> ScenarioSpec:
    """Validate a decoded spec document and return the typed spec.

    ``origin`` (the file path, or ``<spec>`` for in-memory documents)
    prefixes every :class:`SpecError` message.
    """
    top = schema.as_table(document, origin)
    schema.check_unknown_keys(top, _TOP_LEVEL_KEYS, origin)
    name = schema.get_str(top, "name", origin)
    description = schema.get_str(top, "description", origin, default=_DEFAULT.description)

    sweep = schema.as_table(top.get("sweep", {}), f"{origin}.sweep")
    schema.check_unknown_keys(sweep, _SWEEP_KEYS, f"{origin}.sweep")
    horizon = schema.get_number(
        sweep, "horizon_seconds", f"{origin}.sweep", default=_DEFAULT.horizon_seconds, positive=True
    )
    epoch = schema.get_number(
        sweep, "epoch_seconds", f"{origin}.sweep", default=_DEFAULT.epoch_seconds, positive=True
    )
    scale = schema.get_number(
        sweep, "registry_scale", f"{origin}.sweep", default=_DEFAULT.registry_scale, positive=True
    )
    machine = schema.get_str(sweep, "machine", f"{origin}.sweep", default=_DEFAULT.machine)
    backend = schema.get_str(
        sweep, "backend", f"{origin}.sweep", default=_DEFAULT.backend, choices=_BACKENDS
    )
    shards = schema.get_int(sweep, "shards", f"{origin}.sweep", default=_DEFAULT.shards, minimum=1)

    grid = schema.as_table(top.get("grid", {}), f"{origin}.grid")
    schema.check_unknown_keys(grid, _GRID_KEYS, f"{origin}.grid")
    mixes = schema.get_str_list(grid, "mixes", f"{origin}.grid", default=_DEFAULT.mixes)
    machines = schema.get_int_list(grid, "machines", f"{origin}.grid", default=_DEFAULT.machines)
    colocations = schema.get_int_list(
        grid, "colocations", f"{origin}.grid", default=_DEFAULT.colocations
    )
    cores = schema.get_int(
        grid, "cores_per_machine", f"{origin}.grid", default=_DEFAULT.cores_per_machine, minimum=1
    )
    seed = schema.get_int(grid, "seed", f"{origin}.grid", default=_DEFAULT.seed)

    traffic = schema.as_table(top.get("traffic", {}), f"{origin}.traffic")
    schema.check_unknown_keys(traffic, _TRAFFIC_KEYS, f"{origin}.traffic")
    policy = schema.get_str(
        traffic, "policy", f"{origin}.traffic", default=_DEFAULT.traffic_policy,
        choices=SPEC_TRAFFIC_POLICIES,
    )
    trace = schema.get_str_list(traffic, "trace", f"{origin}.traffic", default=_DEFAULT.trace)
    if policy == "trace" and not trace:
        schema.fail(f"{origin}.traffic", "'trace' policy requires a trace list")
    if policy != "trace" and trace:
        schema.fail(
            f"{origin}.traffic", f"a trace is only valid with policy = 'trace', not {policy!r}"
        )

    mix_definitions: List[MixDef] = []
    mixes_table = schema.as_table(top.get("mixes", {}), f"{origin}.mixes")
    for mix_name in mixes_table:
        path = f"{origin}.mixes.{mix_name}"
        if mix_name in NAMED_MIXES:
            schema.fail(path, f"cannot redefine the built-in mix {mix_name!r}")
        entry = schema.as_table(mixes_table[mix_name], path)
        schema.check_unknown_keys(entry, _MIX_KEYS, path)
        functions = schema.get_str_list(entry, "functions", path)
        weights = schema.get_number_list(entry, "weights", path, default=[])
        if weights:
            if len(weights) != len(functions):
                schema.fail(
                    path,
                    f"got {len(weights)} weights for {len(functions)} functions",
                )
            if not any(w > 0 for w in weights):
                schema.fail(path, "at least one weight must be positive")
            if policy != "uniform":
                schema.fail(
                    path,
                    f"weighted mixes require traffic.policy = 'uniform' "
                    f"(weights imply the draw policy), got {policy!r}",
                )
        mix_definitions.append(
            MixDef(
                name=mix_name,
                functions=schema.freeze_str(functions),
                weights=tuple(weights),
            )
        )
    defined = {d.name for d in mix_definitions}
    unused = sorted(defined - set(mixes))
    if unused:
        schema.fail(
            f"{origin}.mixes",
            f"defined but never used in grid.mixes: {', '.join(unused)}",
        )

    faults = parse_faults(top.get("faults", []), f"{origin}.faults")
    for position, fault in enumerate(faults):
        if fault.start_seconds >= horizon:
            schema.fail(
                f"{origin}.faults[{position}].start_seconds",
                f"fault starts at {fault.start_seconds:g}s but the sweep "
                f"horizon is {horizon:g}s",
            )

    return ScenarioSpec(
        name=name,
        description=description,
        mixes=schema.freeze_str(mixes),
        machines=tuple(machines),
        colocations=tuple(colocations),
        cores_per_machine=cores,
        seed=seed,
        horizon_seconds=horizon,
        epoch_seconds=epoch,
        registry_scale=scale,
        machine=machine,
        backend=backend,
        shards=shards,
        traffic_policy=policy,
        trace=schema.freeze_str(trace),
        mix_definitions=tuple(mix_definitions),
        faults=faults,
    )


def parse_spec_text(
    text: str, *, format: str = "toml", origin: str = "<spec>"
) -> ScenarioSpec:
    """Parse a spec from TOML or JSON source text."""
    if format == "toml":
        if tomllib is None:  # pragma: no cover - py<3.11
            raise SpecError(
                f"{origin}: TOML specs need Python 3.11+ (tomllib); "
                f"use a JSON spec instead"
            )
        try:
            document = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise SpecError(f"{origin}: invalid TOML: {error}") from None
    elif format == "json":
        try:
            document = json.loads(text)
        except ValueError as error:
            raise SpecError(f"{origin}: invalid JSON: {error}") from None
    else:
        raise SpecError(f"{origin}: unknown spec format {format!r} (toml or json)")
    return parse_spec(document, origin=origin)


def load_spec(path: "Path | str") -> ScenarioSpec:
    """Load a spec file; the format follows the suffix (.toml or .json)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise SpecError(
            f"{path}: unsupported spec suffix {suffix!r} (expected .toml or .json)"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise SpecError(f"{path}: cannot read spec: {error}") from None
    return parse_spec_text(text, format=suffix[1:], origin=str(path))


def _traffic_for(spec: ScenarioSpec, mix: str, defs: Mapping[str, MixDef]):
    """The TrafficModel one grid mix implies (None = default uniform)."""
    definition = defs.get(mix)
    try:
        if definition is not None:
            if definition.weights:
                return TrafficModel(
                    policy="weighted",
                    functions=definition.functions,
                    weights=definition.weights,
                )
            return TrafficModel(
                policy=spec.traffic_policy,
                functions=definition.functions,
                trace=spec.trace,
            )
        if spec.traffic_policy == "uniform":
            return None
        return TrafficModel(policy=spec.traffic_policy, trace=spec.trace)
    except ValueError as error:
        raise SpecError(f"{spec.name}: mix {mix!r}: {error}") from None


def expand_grid(spec: ScenarioSpec) -> List[FleetScenario]:
    """Expand the spec into its full scenario cross product.

    Returns ``spec.grid_size`` scenarios named ``{mix}-m{machines}-c{colo}``
    in deterministic (mix-major) order, every one carrying the spec's seed
    and traffic model.  Function names are *not* resolved here — that needs
    the registry and happens in :func:`compile_spec`.
    """
    defs = {d.name: d for d in spec.mix_definitions}
    scenarios: List[FleetScenario] = []
    for mix in spec.mixes:
        traffic = _traffic_for(spec, mix, defs)
        for machines in spec.machines:
            for colocation in spec.colocations:
                name = f"{mix}-m{machines}-c{colocation}"
                scenarios.append(
                    FleetScenario(
                        name=name,
                        mix=mix,
                        machines=machines,
                        colocation=colocation,
                        cores_per_machine=spec.cores_per_machine,
                        seed=spec.seed,
                        traffic=traffic,
                        faults=faults_for_scenario(spec.faults, name),
                    )
                )
    return scenarios


@dataclass(frozen=True)
class CompiledSweep:
    """A spec compiled against the hardware and workload registries.

    Holds the expanded scenario list, the resolved
    :class:`~repro.hardware.topology.MachineSpec`, and the registry the
    spec was validated against (``None`` = the default Table-1 registry);
    :meth:`sweep` builds the single-process
    :class:`~repro.platform.batch.FleetSweep` and :meth:`run` executes the
    grid, sharded when asked — both against that same registry.
    """

    spec: ScenarioSpec
    scenarios: Tuple[FleetScenario, ...]
    machine: MachineSpec
    registry: Optional[FunctionRegistry] = None

    @property
    def fleet_size(self) -> int:
        """Concurrent invocations across the whole grid."""
        return sum(s.fleet_size(self.machine) for s in self.scenarios)

    @property
    def has_faults(self) -> bool:
        """Whether any expanded scenario carries a declared fault."""
        return any(s.faults for s in self.scenarios)

    def without_faults(self) -> "CompiledSweep":
        """The same compiled grid with every fault stripped.

        This is the *baseline* the degradation report compares against:
        identical scenarios, seeds and traffic, healthy fleet.
        """
        stripped = tuple(replace(s, faults=()) for s in self.scenarios)
        return replace(self, scenarios=stripped)

    def sweep(self, *, meter: bool = False) -> FleetSweep:
        """The equivalent single-process :class:`FleetSweep`."""
        return FleetSweep(
            self.scenarios,
            machine=self.machine,
            horizon_seconds=self.spec.horizon_seconds,
            epoch_seconds=self.spec.epoch_seconds,
            registry=self.registry,
            registry_scale=self.spec.registry_scale,
            meter=meter,
        )

    def run(
        self,
        backend: Optional[str] = None,
        *,
        shards: Optional[int] = None,
        meter: bool = False,
    ) -> ShardedSweepResult:
        """Execute the compiled grid, partitioned over ``shards`` workers.

        ``backend``/``shards`` default to the spec's ``[sweep]`` values.
        Results are independent of the shard count (see
        :func:`repro.platform.batch.run_sharded`).
        """
        return run_sharded(
            self.sweep(meter=meter),
            shards=self.spec.shards if shards is None else shards,
            backend=backend or self.spec.backend,
        )


def compile_spec(
    spec: ScenarioSpec, registry: Optional[FunctionRegistry] = None
) -> CompiledSweep:
    """Resolve the spec against the registries into a runnable grid.

    Everything the schema cannot check alone is checked here: the machine
    name, every function abbreviation in mixes and traces, and core counts
    against the machine's topology.  So are the ``[sweep]`` settings, which
    a spec built in memory brings unchecked.  Raises :class:`SpecError`
    naming the spec and offending value on any failure.
    """
    # The schema's own checks, on the fields as a table.
    settings = {
        "horizon_seconds": spec.horizon_seconds,
        "epoch_seconds": spec.epoch_seconds,
        "registry_scale": spec.registry_scale,
        "backend": spec.backend,
        "shards": spec.shards,
    }
    where = f"{spec.name}: sweep"
    for key in ("horizon_seconds", "epoch_seconds", "registry_scale"):
        schema.get_number(settings, key, where, positive=True)
    schema.get_str(settings, "backend", where, choices=_BACKENDS)
    schema.get_int(settings, "shards", where, minimum=1)
    try:
        machine = machine_by_name(spec.machine)
    except KeyError as error:
        raise SpecError(f"{spec.name}: sweep.machine: {error.args[0]}") from None
    try:
        scenarios = expand_grid(spec)
        FleetSweep(
            scenarios,
            machine=machine,
            horizon_seconds=spec.horizon_seconds,
            epoch_seconds=spec.epoch_seconds,
            registry=registry or default_registry(),
            registry_scale=1.0,
        ).validate()
    except SpecError:
        raise
    except (ValueError, KeyError) as error:
        message = error.args[0] if error.args else error
        raise SpecError(f"{spec.name}: {message}") from None
    names = [s.name for s in scenarios]
    for position, fault in enumerate(spec.faults):
        if not any(fault.matches(name) for name in names):
            known = ", ".join(names)
            raise SpecError(
                f"{spec.name}: faults[{position}].scenario: pattern "
                f"{fault.scenario!r} matches no scenario; scenarios: {known}"
            )
        if fault.type == "noisy-neighbor" and fault.functions:
            try:
                resolve_mix("+".join(fault.functions), registry or default_registry())
            except ValueError as error:
                raise SpecError(
                    f"{spec.name}: faults[{position}].functions: {error}"
                ) from None
    return CompiledSweep(
        spec=spec, scenarios=tuple(scenarios), machine=machine, registry=registry
    )


# --------------------------------------------------------------------- #
# Named presets shipped with the package
# --------------------------------------------------------------------- #
def _presets_dir() -> Path:
    return Path(__file__).resolve().parent / "presets"


def list_presets() -> List[str]:
    """Names of the presets shipped under ``repro/scenarios/presets/``."""
    return sorted(path.stem for path in _presets_dir().glob("*.toml"))


def preset_path(name: str) -> Path:
    """Filesystem path of a named preset spec."""
    path = _presets_dir() / f"{name}.toml"
    if not path.is_file():
        known = ", ".join(list_presets()) or "<none>"
        raise SpecError(f"unknown preset {name!r}; available presets: {known}")
    return path


def load_preset(name: str) -> ScenarioSpec:
    """Parse a named preset into a :class:`ScenarioSpec`."""
    return load_spec(preset_path(name))


def load_spec_or_preset(target: "Path | str") -> ScenarioSpec:
    """Resolve ``target`` as a spec file path first, then as a preset name.

    This is what the CLI's ``--spec`` accepts: ``--spec studies/big.toml``
    or simply ``--spec smoke``.  Anything with a suffix, or naming an
    existing *file*, is treated as a path; a stray directory that happens
    to share a preset's name cannot shadow the preset.
    """
    path = Path(target)
    if path.suffix or path.is_file():
        return load_spec(path)
    return load_preset(str(target))
