"""Hardware profiles: the unit the continuous calibrator fits.

A :class:`HardwareProfile` bundles a machine topology
(:class:`repro.hardware.topology.MachineSpec`) with the contention-model
coefficients (:class:`repro.hardware.contention.ContentionParameters`)
calibrated for it.  Every numeric leaf of that bundle is addressable by a
dot path — ``contention.memory_queueing_coefficient``,
``machine.l3.size_kb`` — which is how the grid search of
:mod:`repro.calibrate.service` names the parameter it sweeps and how
:class:`repro.calibrate.drift.DriftInjector` names the one it perturbs.

Profiles are data, not code: alternate platforms ship as TOML files under
``repro/calibrate/profiles/`` (``sg2042-like``, ``icelake-like`` — the
RISC-V and Ice Lake characterizations the paper's Figure 19 sensitivity
study points at), loaded with the same path-qualified validation style as
scenario specs.  ``profile_by_name`` resolves shipped files and the two
built-in testbed machines alike.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.hardware.contention import ContentionParameters
from repro.hardware.topology import (
    CASCADE_LAKE_5218,
    ICE_LAKE_4314,
    CacheSpec,
    MachineSpec,
)

#: Directory the shipped profile data files live in (package data).
PROFILE_DIR = Path(__file__).resolve().parent / "profiles"


class ProfileError(ValueError):
    """A malformed profile file or an unknown parameter path."""


@dataclass(frozen=True)
class HardwareProfile:
    """One platform the model can be calibrated for."""

    name: str
    machine: MachineSpec
    contention: ContentionParameters = field(default_factory=ContentionParameters)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("profile name must not be empty")


def default_profile() -> HardwareProfile:
    """The paper's primary testbed with the as-shipped model coefficients."""
    return HardwareProfile(
        name="cascade-lake-5218",
        machine=CASCADE_LAKE_5218,
        contention=ContentionParameters(),
        description="Xeon Gold 5218 testbed (paper Section 7.1), default fit.",
    )


# --------------------------------------------------------------------- #
# Dot-path parameter addressing
# --------------------------------------------------------------------- #
def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_paths(root: Any, prefix: str = "") -> List[str]:
    """Every dot path addressing a numeric leaf field of ``root``.

    Nested dataclasses recurse (``machine.l3.latency_cycles``); strings,
    bools and other non-numeric leaves are skipped — they are identity,
    not calibratable quantities.
    """
    paths: List[str] = []
    for f in dataclasses.fields(root):
        value = getattr(root, f.name)
        key = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            paths.extend(numeric_paths(value, prefix=f"{key}."))
        elif _is_numeric(value):
            paths.append(key)
    return paths


def _walk(root: Any, path: str) -> Any:
    node = root
    for part in path.split("."):
        if not (dataclasses.is_dataclass(node) and not isinstance(node, type)):
            raise ProfileError(
                f"unknown parameter path {path!r}: {part!r} is not a field; "
                f"valid paths: {', '.join(numeric_paths(root))}"
            )
        names = {f.name for f in dataclasses.fields(node)}
        if part not in names:
            raise ProfileError(
                f"unknown parameter path {path!r}: no field {part!r}; "
                f"valid paths: {', '.join(numeric_paths(root))}"
            )
        node = getattr(node, part)
    return node


def get_param(profile: HardwareProfile, path: str) -> float:
    """Read the numeric parameter at ``path`` (e.g. ``contention.max_utilization``)."""
    value = _walk(profile, path)
    if not _is_numeric(value):
        raise ProfileError(
            f"parameter path {path!r} does not address a numeric leaf; "
            f"valid paths: {', '.join(numeric_paths(profile))}"
        )
    return value


def _replace_at(node: Any, parts: List[str], value: float) -> Any:
    name = parts[0]
    if len(parts) == 1:
        current = getattr(node, name)
        if isinstance(current, int) and not isinstance(current, bool):
            value = int(round(value))
        return dataclasses.replace(node, **{name: value})
    child = getattr(node, name)
    return dataclasses.replace(node, **{name: _replace_at(child, parts[1:], value)})


def set_param(profile: HardwareProfile, path: str, value: float) -> HardwareProfile:
    """A new profile with the parameter at ``path`` replaced by ``value``.

    Profiles are frozen all the way down, so this rebuilds the spine of
    dataclasses along the path (integer leaves are rounded to stay valid).
    The original profile is untouched — candidate evaluation in parallel
    workers depends on that.
    """
    get_param(profile, path)  # validates the path addresses a numeric leaf
    return _replace_at(profile, path.split("."), value)


def perturbed(profile: HardwareProfile, path: str, scale: float) -> HardwareProfile:
    """The profile with the parameter at ``path`` multiplied by ``scale``.

    The standard way to fabricate "drifted hardware" for smoke tests:
    the perturbed profile plays ground truth while the nominal one is the
    stale incumbent fit the calibrator must notice is wrong.
    """
    return set_param(profile, path, get_param(profile, path) * scale)


# --------------------------------------------------------------------- #
# TOML profile files
# --------------------------------------------------------------------- #
_MACHINE_SCALARS = (
    ("name", str),
    ("architecture", str),
    ("cores", int),
    ("smt_ways", int),
    ("base_frequency_ghz", float),
    ("max_turbo_frequency_ghz", float),
    ("memory_gb", float),
    ("memory_latency_ns", float),
    ("memory_bandwidth_gbs", float),
    ("ring_peak_accesses_per_us", float),
)

_MACHINE_OPTIONAL = (
    ("line_size_bytes", int),
    ("smt_private_penalty", float),
    ("context_switch_cost_us", float),
)


def _require(table: Dict[str, Any], key: str, kind: type, where: str) -> Any:
    if key not in table:
        raise ProfileError(f"{where}: missing required key {key!r}")
    value = table[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProfileError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    if kind is float and not math.isfinite(value):
        raise ProfileError(f"{where}.{key}: expected a finite number, got {value!r}")
    return value


def _cache_spec(table: Any, level: str, where: str) -> CacheSpec:
    if not isinstance(table, dict):
        raise ProfileError(f"{where}: expected a [{where}] table")
    return CacheSpec(
        level=level,
        size_kb=_require(table, "size_kb", float, where),
        latency_cycles=_require(table, "latency_cycles", float, where),
        shared=level == "L3",
    )


def load_profile(path: Path) -> HardwareProfile:
    """Parse and validate one profile TOML file.

    Errors are path-qualified (``machine.l3.size_kb: ...``) in the style
    of scenario-spec validation, so a typo in a data file names itself.
    """
    import tomllib

    path = Path(path)
    try:
        document = tomllib.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ProfileError(f"cannot read profile {path}: {error}") from None
    except tomllib.TOMLDecodeError as error:
        raise ProfileError(f"profile {path} is not valid TOML: {error}") from None

    name = _require(document, "name", str, path.stem)
    description = document.get("description", "")
    if not isinstance(description, str):
        raise ProfileError(f"{name}.description: expected a string")

    machine_table = document.get("machine")
    if not isinstance(machine_table, dict):
        raise ProfileError(f"{name}: missing required [machine] table")
    kwargs: Dict[str, Any] = {}
    for key, kind in _MACHINE_SCALARS:
        kwargs[key] = _require(machine_table, key, kind, f"{name}.machine")
    for key, kind in _MACHINE_OPTIONAL:
        if key in machine_table:
            kwargs[key] = _require(machine_table, key, kind, f"{name}.machine")
    for level, table_key in (("L1D", "l1d"), ("L2", "l2"), ("L3", "l3")):
        kwargs[table_key] = _cache_spec(
            machine_table.get(table_key), level, f"{name}.machine.{table_key}"
        )
    known = {key for key, _ in _MACHINE_SCALARS + _MACHINE_OPTIONAL} | {
        "l1d", "l2", "l3"
    }
    for key in machine_table:
        if key not in known:
            raise ProfileError(
                f"{name}.machine: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(known))}"
            )
    try:
        machine = MachineSpec(**kwargs)
    except ValueError as error:
        raise ProfileError(f"{name}.machine: {error}") from None

    contention_table = document.get("contention", {})
    if not isinstance(contention_table, dict):
        raise ProfileError(f"{name}: [contention] must be a table")
    contention_fields = {f.name for f in dataclasses.fields(ContentionParameters)}
    contention_kwargs: Dict[str, float] = {}
    for key, value in contention_table.items():
        if key not in contention_fields:
            raise ProfileError(
                f"{name}.contention: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(contention_fields))}"
            )
        contention_kwargs[key] = _require(
            contention_table, key, float, f"{name}.contention"
        )

    known_top = {"name", "description", "machine", "contention"}
    for key in document:
        if key not in known_top:
            raise ProfileError(
                f"{name}: unknown top-level key {key!r}; known keys: "
                f"{', '.join(sorted(known_top))}"
            )

    return HardwareProfile(
        name=name,
        machine=machine,
        contention=ContentionParameters(**contention_kwargs),
        description=description,
    )


def _builtin_profiles() -> Dict[str, HardwareProfile]:
    return {
        "cascade-lake-5218": default_profile(),
        "ice-lake-4314": HardwareProfile(
            name="ice-lake-4314",
            machine=ICE_LAKE_4314,
            contention=ContentionParameters(),
            description="Xeon Silver 4314 sensitivity machine (Figure 19).",
        ),
    }


def list_profiles() -> List[str]:
    """Names of every resolvable profile: built-ins plus shipped data files."""
    names = set(_builtin_profiles())
    if PROFILE_DIR.is_dir():
        names.update(p.stem for p in PROFILE_DIR.glob("*.toml"))
    return sorted(names)


def profile_by_name(name: str) -> HardwareProfile:
    """Resolve a profile by name, shipped file stem, or explicit file path."""
    as_path = Path(name)
    if as_path.suffix == ".toml" and as_path.exists():
        return load_profile(as_path)
    builtins = _builtin_profiles()
    if name in builtins:
        return builtins[name]
    shipped = PROFILE_DIR / f"{name}.toml"
    if shipped.exists():
        return load_profile(shipped)
    raise ProfileError(
        f"unknown profile {name!r}; known profiles: {', '.join(list_profiles())}"
    )
