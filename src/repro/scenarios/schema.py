"""Schema validation helpers for declarative scenario specs.

A deliberately small, dependency-free validation toolkit: every helper
extracts one typed field from a mapping and raises :class:`SpecError` with
the *path-qualified* field name (``grid.machines[1]: expected a positive
integer, got 0``) on any mismatch, so spec authors see exactly which line
of their TOML/JSON file to fix.  :mod:`repro.scenarios.spec` composes these
into the full scenario-spec schema.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional, Sequence, Tuple


class SpecError(ValueError):
    """A scenario spec failed validation.

    The message always starts with the spec origin (file path or
    ``<spec>``) and the dotted path of the offending field.
    """


_REQUIRED = object()


def fail(path: str, message: str) -> None:
    raise SpecError(f"{path}: {message}")


def as_table(value: Any, path: str) -> Mapping[str, Any]:
    """The value must be a mapping (a TOML table / JSON object)."""
    if not isinstance(value, Mapping):
        fail(path, f"expected a table, got {type(value).__name__}")
    return value


def check_unknown_keys(
    table: Mapping[str, Any], known: Sequence[str], path: str
) -> None:
    """Reject misspelled keys instead of silently ignoring them."""
    unknown = sorted(set(table) - set(known))
    if unknown:
        fail(
            path,
            f"unknown key(s) {', '.join(repr(k) for k in unknown)}; "
            f"valid keys: {', '.join(known)}",
        )


def get_str(
    table: Mapping[str, Any],
    key: str,
    path: str,
    default: Any = _REQUIRED,
    choices: Optional[Sequence[str]] = None,
) -> Any:
    if key not in table:
        if default is _REQUIRED:
            fail(path, f"missing required key {key!r}")
        return default
    value = table[key]
    field = f"{path}.{key}"
    if not isinstance(value, str) or not value.strip():
        fail(field, f"expected a non-empty string, got {value!r}")
    if choices is not None and value not in choices:
        fail(field, f"got {value!r}; valid choices: {', '.join(choices)}")
    return value


def _finite(value: Any, field: str) -> float:
    """``value`` as a finite float; NaN, infinities and huge ints fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(field, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        fail(field, f"expected a finite number, got {value!r}")
    return number


def get_number(
    table: Mapping[str, Any],
    key: str,
    path: str,
    default: Any = _REQUIRED,
    *,
    positive: bool = False,
) -> Any:
    if key not in table:
        if default is _REQUIRED:
            fail(path, f"missing required key {key!r}")
        return default
    field = f"{path}.{key}"
    value = _finite(table[key], field)
    if positive and value <= 0:
        fail(field, f"expected a positive number, got {table[key]!r}")
    return value


def get_int(
    table: Mapping[str, Any],
    key: str,
    path: str,
    default: Any = _REQUIRED,
    *,
    minimum: Optional[int] = None,
) -> Any:
    if key not in table:
        if default is _REQUIRED:
            fail(path, f"missing required key {key!r}")
        return default
    value = table[key]
    field = f"{path}.{key}"
    if isinstance(value, bool) or not isinstance(value, int):
        fail(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        fail(field, f"expected an integer >= {minimum}, got {value!r}")
    return value


def _get_list(table: Mapping[str, Any], key: str, path: str) -> List[Any]:
    value = table[key]
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        fail(f"{path}.{key}", f"expected a list, got {value!r}")
    if not value:
        fail(f"{path}.{key}", "expected a non-empty list")
    return list(value)


def get_str_list(
    table: Mapping[str, Any], key: str, path: str, default: Any = _REQUIRED
) -> Any:
    if key not in table:
        if default is _REQUIRED:
            fail(path, f"missing required key {key!r}")
        return default
    result: List[str] = []
    for position, item in enumerate(_get_list(table, key, path)):
        if not isinstance(item, str) or not item.strip():
            fail(f"{path}.{key}[{position}]", f"expected a non-empty string, got {item!r}")
        result.append(item)
    return result


def get_int_list(
    table: Mapping[str, Any], key: str, path: str, default: Any = _REQUIRED
) -> Any:
    """A non-empty list of integers, each at least 1."""
    if key not in table:
        if default is _REQUIRED:
            fail(path, f"missing required key {key!r}")
        return default
    result: List[int] = []
    for position, item in enumerate(_get_list(table, key, path)):
        if isinstance(item, bool) or not isinstance(item, int) or item < 1:
            fail(
                f"{path}.{key}[{position}]",
                f"expected an integer >= 1, got {item!r}",
            )
        result.append(item)
    return result


def get_number_list(
    table: Mapping[str, Any], key: str, path: str, default: Any = _REQUIRED
) -> Any:
    """A non-empty list of finite numbers, none negative."""
    if key not in table:
        if default is _REQUIRED:
            fail(path, f"missing required key {key!r}")
        return default
    result: List[float] = []
    for position, item in enumerate(_get_list(table, key, path)):
        field = f"{path}.{key}[{position}]"
        value = _finite(item, field)
        if value < 0:
            fail(field, f"expected a number >= 0, got {item!r}")
        result.append(value)
    return result


def freeze_str(values: Sequence[str]) -> Tuple[str, ...]:
    return tuple(str(v) for v in values)
