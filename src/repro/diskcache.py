"""Versioned on-disk cache for expensive, deterministic artefacts.

Calibration sweeps and solo profiles are the most expensive parts of a
figure run, and they are pure functions of the machine topology, the
workload registry and the engine configuration.  This module gives them a
process-independent cache so that a full figure sweep — whether sequential
or fanned out over worker processes — computes each artefact exactly once
and every later sweep starts warm.

Layout and guarantees:

* Entries live under ``$REPRO_CACHE_DIR`` (default
  ``~/.cache/repro-litmus``) as ``<kind>-<key>.json``, where ``key`` is a
  SHA-256 fingerprint of everything the artefact depends on (CPU topology,
  registry contents, scenario, engine config, ...).
* Every file embeds :data:`CACHE_VERSION`.  Bumping the version — done
  whenever the simulation's numerical behaviour changes — invalidates all
  old entries on load; they are simply recomputed and rewritten.
* Floats survive the JSON round trip exactly (``repr``-based encoding), so
  a figure regenerated from a cached artefact is byte-identical to one
  computed cold.
* Writes go through a temporary file plus :func:`os.replace`, so
  concurrent worker processes can race on the same entry safely — one of
  them wins, all of them read back identical data.

Artefacts go through :func:`memoized`, one memo with two layers: an
in-process dictionary keyed on the artefact's *identity* (a hashable
tuple of everything it is a pure function of) and the disk entry keyed on
``fingerprint(*identity)``.  :func:`forget` drops the in-process layer.

Set ``REPRO_DISK_CACHE=0`` to disable the disk layer entirely (every
lookup misses, nothing is written), which the determinism checks use to
compare cold and warm runs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, TypeVar

#: Bump when simulation semantics change so stale artefacts cannot leak
#: into freshly generated figures.
CACHE_VERSION = 1

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLED = "REPRO_DISK_CACHE"

T = TypeVar("T")

#: The in-process layer of :func:`memoized`: ``(kind, identity) -> artefact``.
_MEMO: Dict[Tuple[str, Tuple[Any, ...]], Any] = {}
_MISSING = object()


def cache_enabled() -> bool:
    """Whether the on-disk cache is active (``REPRO_DISK_CACHE=0`` disables)."""
    return os.environ.get(_ENV_ENABLED, "1") not in ("0", "false", "no", "off")


def cache_dir() -> Path:
    """The cache directory (not created until something is stored)."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-litmus"


def canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable primitives, deterministically.

    Dataclasses become field dicts, enums their values, mappings get their
    keys stringified, and sets/tuples become sorted/ordered lists — enough
    to fingerprint machine specs, scenarios, registries and configs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def fingerprint(*parts: Any) -> str:
    """SHA-256 fingerprint of the canonical JSON encoding of ``parts``."""
    blob = json.dumps([canonical(part) for part in parts], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _entry_path(kind: str, key: str) -> Path:
    return cache_dir() / f"{kind}-{key}.json"


def atomic_write_text(path: Path, text: str, *, prefix: str = ".atomic-") -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Concurrent writers can race on the same path safely: readers only ever
    observe a complete old or complete new file, never a torn one.  Used by
    the cache entries here and by the ``BENCH_engine.json`` trajectory,
    both of which parallel figure workers write concurrently.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=path.parent,
        prefix=prefix,
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except OSError:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def load(kind: str, key: str) -> Optional[Dict[str, Any]]:
    """Return a stored payload, or ``None`` on miss/corruption/version skew."""
    if not cache_enabled():
        return None
    path = _entry_path(kind, key)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or document.get("cache_version") != CACHE_VERSION:
        return None
    payload = document.get("payload")
    return payload if isinstance(payload, dict) else None


def store(kind: str, key: str, payload: Dict[str, Any]) -> Optional[Path]:
    """Atomically persist ``payload``; returns the path (None when disabled)."""
    if not cache_enabled():
        return None
    path = _entry_path(kind, key)
    document = {"cache_version": CACHE_VERSION, "kind": kind, "payload": payload}
    try:
        return atomic_write_text(
            path, json.dumps(document, sort_keys=True), prefix=f".{kind}-"
        )
    except OSError:
        return None


def registry_fingerprint(specs: Iterable[Any]) -> str:
    """Fingerprint a registry's full contents (phases included).

    A registry stands in an artefact's identity as this string, so it must
    capture everything that feeds the simulation: the whole spec
    (language, memory, startup scale and each phase's profile) goes into
    the hash.
    """
    return fingerprint(
        sorted(
            (canonical(spec) for spec in specs),
            key=lambda entry: entry["abbreviation"],
        )
    )


def memoized(
    kind: str,
    identity: Tuple[Any, ...],
    compute: Callable[[], T],
    encode: Callable[[T], Dict[str, Any]],
    decode: Callable[[Mapping[str, Any]], T],
) -> T:
    """Return the ``kind`` artefact named by ``identity``, computed at most once.

    ``identity`` holds everything the artefact is a pure function of —
    frozen dataclasses, numbers and strings — so equal identities name
    equal artefacts in this process and in any other.  The in-process
    layer keys on the tuple itself, so a hit costs one hash.  Only a miss
    computes ``fingerprint(*identity)`` and asks the disk layer; a stored
    entry that fails to ``decode`` is recomputed and rewritten like a
    missing one.
    """
    memo_key = (kind, identity)
    value = _MEMO.get(memo_key, _MISSING)
    if value is not _MISSING:
        return value
    key = fingerprint(*identity)
    payload = load(kind, key)
    if payload is not None:
        try:
            value = decode(payload)
        except (LookupError, TypeError, ValueError, AttributeError):
            pass  # schema drift or a damaged entry: recompute it
    if value is _MISSING:
        value = compute()
        store(kind, key, encode(value))
    _MEMO[memo_key] = value
    return value


def forget() -> None:
    """Drop the in-process layer of :func:`memoized`; the disk layer stays."""
    _MEMO.clear()
