"""The resumable streaming replay state machine.

:class:`StreamReplay` advances the same
:class:`~repro.platform.batch.VectorDrive` as ``FleetSweep.run("vector")``,
a trace chunk at a time.  The drive can stop after any epoch and computes
each fault segment's float target once, on segment entry, so the epochs
and submissions are those of the batch run no matter where the chunk
boundaries fall.  Around the drive the replay adds the chunking, the
per-tenant billing deltas, its wall clock and checkpointing.

The whole object pickles (that is the checkpoint format — see
:mod:`repro.serve.checkpoint`): one pickle preserves object identity
between the mixer pools and the engine's spec table, so a restored run
continues bit-exact.  The drive leaves its progress callback out of the
pickle and re-attaches its finish listener on restore.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import diskcache
from repro.platform.batch.sweep import FleetSweepResult, ProgressCallback, VectorDrive
from repro.scenarios.spec import CompiledSweep
from repro.scenarios.trace import TraceChunk

#: The streamed backend label on emitted results and metrics payloads.
STREAM_BACKEND = "stream"


@dataclass(frozen=True)
class BillingRecord:
    """One per-tenant metering delta emitted while a chunk was ingested.

    ``true_gb_seconds`` / ``billed_gb_seconds`` are the *increments* over
    the previous chunk; summing a tenant's records over all chunks yields
    exactly the batch ledger entry (same floats, subtracted back out of
    the same cumulative sums).
    """

    chunk: int
    scenario: str
    function: str
    true_gb_seconds: float
    billed_gb_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "chunk": self.chunk,
            "scenario": self.scenario,
            "function": self.function,
            "true_gb_seconds": self.true_gb_seconds,
            "billed_gb_seconds": self.billed_gb_seconds,
        }


@dataclass(frozen=True)
class ChunkResult:
    """What one :meth:`StreamReplay.ingest` call produced."""

    chunk: int
    epochs: int
    time_seconds: float
    completions: int
    submissions: int
    done: bool
    records: Tuple[BillingRecord, ...]


class StreamReplay:
    """Incremental, checkpointable replay of one compiled sweep.

    Construction performs the batch sweep's full setup (a
    :class:`~repro.platform.batch.VectorDrive`) but steps zero epochs;
    :meth:`ingest` / :meth:`advance_epochs` move time forward.  ``meter``
    defaults to True — a billing service that does not meter is not
    billing — and matches the batch reference runs the differential tests
    compare against (``FleetSweep(meter=True)``).
    """

    def __init__(self, compiled: CompiledSweep, *, meter: bool = True) -> None:
        self._drive = VectorDrive(compiled.sweep(meter=meter), STREAM_BACKEND)
        self._fingerprint = diskcache.fingerprint(compiled.spec)
        self._chunks_ingested = 0
        self._wall_seconds = 0.0
        #: Cumulative per-tenant sums already emitted as BillingRecords.
        self._published: Dict[Tuple[int, str], Tuple[float, float]] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Fingerprint of the compiled spec (checkpoint compatibility key)."""
        return self._fingerprint

    @property
    def finished(self) -> bool:
        """Whether the replay has reached the horizon."""
        return self._drive.finished

    @property
    def time_seconds(self) -> float:
        """Simulated time reached so far."""
        return self._drive.time_seconds

    @property
    def epochs_done(self) -> int:
        """Epochs stepped so far."""
        return self._drive.epochs_done

    @property
    def epochs_total(self) -> int:
        """Nominal epoch count of the full horizon."""
        return self._drive.epochs_total

    @property
    def chunks_ingested(self) -> int:
        """Chunks consumed so far (restored checkpoints carry this on)."""
        return self._chunks_ingested

    @property
    def completions(self) -> int:
        """Steady-churn completions across every scenario."""
        return self._drive.completions

    @property
    def submissions(self) -> int:
        """Steady-churn submissions across every scenario."""
        return self._drive.submissions

    def set_progress(self, progress: Optional[ProgressCallback]) -> None:
        """Attach a progress callback (``repro.obs`` payload consumer).

        Deliberately not a constructor argument: callbacks are transient
        wiring, never checkpoint state, and restored replays start bare.
        """
        self._drive.progress = progress

    def progress_payload(self, *, done: bool = False) -> Dict[str, object]:
        """A ``repro.obs`` metrics payload describing the current state."""
        return self._drive.progress_payload(done=done)

    # ------------------------------------------------------------------ #
    # Chunks
    # ------------------------------------------------------------------ #
    def advance_epochs(self, max_epochs: int) -> int:
        """Step at most ``max_epochs`` epochs; returns the number stepped.

        Fewer are stepped only when the horizon is reached.  Boundary
        actions consume no epochs, exactly as in the batch loop.
        """
        start = time.perf_counter()
        stepped = self._drive.advance(max_epochs)
        self._wall_seconds += time.perf_counter() - start
        return stepped

    def _drain_records(self, chunk_index: int) -> Tuple[BillingRecord, ...]:
        records: List[BillingRecord] = []
        scenarios = self._drive.sweep.scenarios
        for s, billing in enumerate(self._drive.billing()):
            if billing is None:
                continue
            billed = dict(billing.billed_gb_seconds)
            for function, true_total in billing.true_gb_seconds:
                billed_total = billed.get(function, 0.0)
                seen_true, seen_billed = self._published.get((s, function), (0.0, 0.0))
                if true_total == seen_true and billed_total == seen_billed:
                    continue
                records.append(
                    BillingRecord(
                        chunk=chunk_index,
                        scenario=scenarios[s].name,
                        function=function,
                        true_gb_seconds=true_total - seen_true,
                        billed_gb_seconds=billed_total - seen_billed,
                    )
                )
                self._published[(s, function)] = (true_total, billed_total)
        return tuple(records)

    def _chunk_result(self, chunk_index: int, epochs: int) -> ChunkResult:
        return ChunkResult(
            chunk=chunk_index,
            epochs=epochs,
            time_seconds=self.time_seconds,
            completions=self.completions,
            submissions=self.submissions,
            done=self.finished,
            records=self._drain_records(chunk_index),
        )

    def ingest(self, chunk: TraceChunk) -> ChunkResult:
        """Consume one trace chunk: advance its epochs, emit the deltas."""
        epochs = self.advance_epochs(chunk.epochs)
        self._chunks_ingested += 1
        return self._chunk_result(chunk.index, epochs)

    def drain(self, *, chunk_index: int = -1) -> ChunkResult:
        """Run any residual epochs to the horizon and flush final deltas.

        The chunk plan is built from the *nominal* epoch count; float
        accumulation in the epoch clock can leave the true count one off
        either way, so completion is always decided by :attr:`finished`,
        never by epoch arithmetic.
        """
        epochs = 0
        while not self.finished:
            epochs += self.advance_epochs(1024)
        return self._chunk_result(chunk_index, epochs)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def result(self) -> FleetSweepResult:
        """The sweep result so far (bit-exact vs batch once finished).

        ``backend`` is :data:`STREAM_BACKEND` so streamed results are
        distinguishable, and the differential tests compare every other
        field.
        """
        return FleetSweepResult(
            backend=STREAM_BACKEND,
            scenarios=tuple(self._drive.results()),
            wall_seconds=self._wall_seconds,
            horizon_seconds=self._drive.sweep.horizon_seconds,
        )
