"""Atomic, fingerprinted checkpoints for :class:`StreamReplay`.

A checkpoint is a JSON envelope around one compressed pickle of the whole
replay object.  Pickling everything in one blob is deliberate: the engine's
spec table and the churn mixers share ``FunctionSpec`` objects by identity,
and the pickle memo preserves that sharing, so a restored replay interns
specs exactly like the uninterrupted run.  The envelope carries the spec
fingerprint and enough plain-JSON metadata (``chunks_ingested``,
``epochs_done``, ``time_seconds``) for tooling to inspect a checkpoint
without unpickling it.

Writes go through :func:`repro.diskcache.atomic_write_text`, so a reader
never observes a torn checkpoint even if the service dies mid-write —
the resume guarantee the kill-and-resume tests exercise.

Checkpoints are trusted local state (same trust domain as the disk cache);
:func:`load_checkpoint` refuses version or fingerprint skew with
:class:`CheckpointError` before unpickling anything, and reports every
decode or unpickle failure of a damaged file as :class:`CheckpointError`
too.
"""

from __future__ import annotations

import base64
import json
import pickle
import zlib
from pathlib import Path
from typing import Optional

from repro.diskcache import atomic_write_text
from repro.serve.replay import StreamReplay

#: Bump whenever the replay's pickled layout changes incompatibly.  2: the
#: vector engine keeps per-invocation state in one float block and its
#: spec table in one flat profile table.  3: the replay holds its fleet in
#: one ``VectorDrive``.  4: the engine pickles only its used columns, and
#: each metering ledger keeps the tenants billed since the last drain.
#: 5: the engine no longer keeps submit and finish times or bare-index tags.
CHECKPOINT_VERSION = 5

_FORMAT = "repro-stream-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded (corrupt, stale, or mismatched)."""


def checkpoint_path(directory: Path, fingerprint: str) -> Path:
    """Where a replay with ``fingerprint`` checkpoints inside ``directory``."""
    return Path(directory) / f"stream-{fingerprint}.ckpt.json"


def save_checkpoint(path: Path, replay: StreamReplay) -> Path:
    """Atomically persist ``replay`` to ``path``; returns the path."""
    blob = base64.b64encode(
        # Level 1: the live-column pickle is small, and a higher level
        # costs more time than it saves bytes.
        zlib.compress(pickle.dumps(replay, protocol=pickle.HIGHEST_PROTOCOL), 1)
    ).decode("ascii")
    envelope = {
        "format": _FORMAT,
        "checkpoint_version": CHECKPOINT_VERSION,
        "fingerprint": replay.fingerprint,
        "chunks_ingested": replay.chunks_ingested,
        "epochs_done": replay.epochs_done,
        "time_seconds": replay.time_seconds,
        "state": blob,
    }
    return atomic_write_text(
        Path(path), json.dumps(envelope, sort_keys=True), prefix=".stream-"
    )


def load_checkpoint(
    path: Path, *, expect_fingerprint: Optional[str] = None
) -> StreamReplay:
    """Restore a replay from ``path``.

    ``expect_fingerprint`` (the fingerprint of the spec about to be
    resumed) guards against resuming the wrong study from a shared
    checkpoint directory.
    """
    path = Path(path)
    try:
        envelope = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from None
    except ValueError:
        raise CheckpointError(f"checkpoint {path} is not valid JSON") from None
    if not isinstance(envelope, dict) or envelope.get("format") != _FORMAT:
        raise CheckpointError(f"{path} is not a stream checkpoint")
    version = envelope.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    fingerprint = envelope.get("fingerprint")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise CheckpointError(
            f"checkpoint {path} was taken for spec fingerprint {fingerprint!r}, "
            f"not {expect_fingerprint!r}; refusing to resume a different study"
        )
    state = envelope.get("state")
    if not isinstance(state, str):
        raise CheckpointError(f"checkpoint {path} is corrupt: its state is not a string")
    try:
        blob = zlib.decompress(base64.b64decode(state))
    except (ValueError, zlib.error) as error:
        raise CheckpointError(f"checkpoint {path} is corrupt: {error}") from None
    try:
        replay = pickle.loads(blob)
    except Exception as error:
        # A damaged pickle fails in many ways: truncated or empty
        # (EOFError), bad opcodes (UnpicklingError), bogus lengths
        # (OverflowError, MemoryError), mangled names (AttributeError,
        # ImportError), and more.  Each means the same corrupt checkpoint.
        raise CheckpointError(f"checkpoint {path} is corrupt: {error!r}") from None
    if not isinstance(replay, StreamReplay):
        raise CheckpointError(f"checkpoint {path} did not contain a StreamReplay")
    return replay
