"""Per-epoch time-series telemetry with bounded, deterministic memory.

Cumulative :class:`~repro.obs.metrics.ProgressSnapshot`\\ s say how far a
run got; they cannot say *when* a fault window degraded throughput or how
the billing error grew.  A :class:`SeriesPoint` is one epoch-indexed
reading of the counters the engines already maintain — completions,
shared-stall fraction, fault injections, meter drops, billing error —
sampled inside the instrumented drive loops (vector sweep and stream
replay; the scalar backend advances machine-by-machine and keeps its
cumulative snapshots instead).

A week-long replay steps hundreds of millions of epochs, so raw
per-epoch retention is a non-starter.  :class:`SeriesBuffer` bounds the
series to a configurable point budget by *stride decimation*: when the
buffer fills, every other retained point is dropped and the sampling
stride doubles, so the kept points are exactly the epochs divisible by
the final stride.  The end state is a pure function of the epoch
sequence — never of wall-clock — so two identical runs downsample to
identical series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

__all__ = ["SeriesPoint", "SeriesBatch", "SeriesBuffer"]


@dataclass(frozen=True)
class SeriesPoint:
    """One epoch's reading of a run's live counters (queue-picklable)."""

    shard: str
    epoch: int
    time_seconds: float
    completions: int
    shared_stall_fraction: float
    fault_injections: int
    meter_dropped: int
    billing_error_fraction: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "epoch": self.epoch,
            "time_seconds": self.time_seconds,
            "completions": self.completions,
            "shared_stall_fraction": self.shared_stall_fraction,
            "fault_injections": self.fault_injections,
            "meter_dropped": self.meter_dropped,
            "billing_error_fraction": self.billing_error_fraction,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SeriesPoint":
        return cls(
            shard=str(payload.get("shard", "")),
            epoch=int(payload["epoch"]),
            time_seconds=float(payload.get("time_seconds", 0.0)),
            completions=int(payload.get("completions", 0)),
            shared_stall_fraction=float(payload.get("shared_stall_fraction", 0.0)),
            fault_injections=int(payload.get("fault_injections", 0)),
            meter_dropped=int(payload.get("meter_dropped", 0)),
            billing_error_fraction=float(payload.get("billing_error_fraction", 0.0)),
        )


@dataclass(frozen=True)
class SeriesBatch:
    """A shard's whole (downsampled) series, shipped over the queue once.

    Workers buffer points locally and flush a single batch with the final
    ``done`` snapshot — one queue message instead of one per epoch.
    """

    shard: str
    points: Tuple[SeriesPoint, ...]
    stride: int


class SeriesBuffer:
    """Epoch-series ring with deterministic stride decimation.

    ``budget`` caps retained points.  On overflow the buffer keeps every
    other point and doubles its stride, after which only epochs divisible
    by the new stride are accepted — so the retained set is always
    ``{epochs seen} ∩ {multiples of stride}``, truncated never by time,
    only by the budget.  Deterministic: identical epoch sequences yield
    identical buffers regardless of wall-clock or call timing.
    """

    def __init__(self, budget: int = 512) -> None:
        if budget < 2:
            raise ValueError("series budget must be >= 2")
        self._budget = budget
        self._stride = 1
        self._points: List[SeriesPoint] = []

    @property
    def stride(self) -> int:
        """Current epoch stride (1 until the first decimation)."""
        return self._stride

    @property
    def points(self) -> Tuple[SeriesPoint, ...]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def offer(self, point: SeriesPoint) -> bool:
        """Consider one epoch's point; returns whether it was retained."""
        if point.epoch % self._stride != 0:
            return False
        self._points.append(point)
        if len(self._points) >= self._budget:
            # Halve: keep epochs divisible by the doubled stride.  The
            # kept list stays epoch-sorted because offers arrive in
            # epoch order.
            self._stride *= 2
            self._points = [
                p for p in self._points if p.epoch % self._stride == 0
            ]
        return True

    def batch(self, shard: str = "") -> SeriesBatch:
        """Freeze the buffer into one queue-shippable batch."""
        points = self._points
        if shard:
            points = [
                SeriesPoint(**{**p.to_dict(), "shard": shard}) for p in points
            ]
        return SeriesBatch(shard=shard, points=tuple(points), stride=self._stride)
