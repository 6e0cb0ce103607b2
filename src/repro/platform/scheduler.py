"""Placement schedulers and the temporal-sharing overhead model.

Two placement regimes appear in the paper:

* **One function per core** (Section 7.1): every invocation gets a dedicated
  hardware thread for its whole lifetime, so there is no temporal sharing
  and no context switching.
* **Temporal CPU sharing** (Section 7.2): many functions share a pool of
  cores; whenever a function is switched out its cached state is evicted by
  the next one, adding a ``T_private`` overhead that grows with the number
  of co-located functions and saturates around 20 of them (Figure 14).

The schedulers here implement placement only; time multiplexing itself is
performed by the engine, which gives every invocation queued on a thread an
equal share of each epoch.  :class:`SwitchingOverheadModel` captures the
saturating overhead curve and is reused by Method 1 of the pricing scheme,
which needs to *remove* this overhead before consulting its tables.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.hardware.cpu import CPU
from repro.platform.invoker import Invocation


@dataclass(frozen=True)
class SwitchingOverheadModel:
    """Saturating ``T_private`` inflation caused by temporal sharing.

    ``factor(n)`` follows ``1 + amplitude * (1 - exp(-(n - 1) / scale))``:
    1.0 for a dedicated thread, rising quickly over the first handful of
    co-located functions and flattening near ``1 + amplitude`` — the shape
    of Figure 14, which stabilises around 20 co-runners at roughly +2.5 %.
    """

    amplitude: float = 0.028
    scale_functions: float = 5.0

    def factor(self, co_located_functions: float) -> float:
        """Overhead multiplier for ``co_located_functions`` sharing a thread."""
        if co_located_functions < 1:
            raise ValueError("co_located_functions must be >= 1")
        growth = 1.0 - math.exp(-(co_located_functions - 1.0) / self.scale_functions)
        return 1.0 + self.amplitude * growth


class Scheduler(ABC):
    """Chooses the hardware thread a newly started invocation runs on."""

    @abstractmethod
    def place(self, invocation: Invocation, cpu: CPU) -> int:
        """Return the id of the hardware thread to run ``invocation`` on.

        Raises :class:`RuntimeError` if no thread can accept the invocation.
        """


class LeastOccupancyScheduler(Scheduler):
    """Place each invocation on the least-loaded allowed hardware thread."""

    def __init__(
        self,
        allowed_threads: Optional[Sequence[int]] = None,
        max_per_thread: Optional[int] = None,
    ) -> None:
        if max_per_thread is not None and max_per_thread < 1:
            raise ValueError("max_per_thread must be >= 1")
        self._allowed_threads = (
            None if allowed_threads is None else tuple(allowed_threads)
        )
        self._max_per_thread = max_per_thread

    def candidate_threads(self, cpu: CPU) -> Sequence[int]:
        if self._allowed_threads is None:
            return [thread.thread_id for thread in cpu.threads]
        return self._allowed_threads

    def place(self, invocation: Invocation, cpu: CPU) -> int:
        best_thread: Optional[int] = None
        best_occupancy: Optional[int] = None
        for thread_id in self.candidate_threads(cpu):
            thread = cpu.thread(thread_id)
            occupancy = thread.occupancy
            if self._max_per_thread is not None and occupancy >= self._max_per_thread:
                continue
            if best_occupancy is None or occupancy < best_occupancy:
                best_thread = thread_id
                best_occupancy = occupancy
        if best_thread is None:
            raise RuntimeError(
                f"no hardware thread can accept invocation "
                f"{invocation.invocation_id} ({invocation.spec.abbreviation}); "
                "all allowed threads are at capacity"
            )
        return best_thread


class DedicatedCoreScheduler(LeastOccupancyScheduler):
    """One invocation per hardware thread — the Section 7.1 regime."""

    def __init__(self, allowed_threads: Optional[Sequence[int]] = None) -> None:
        super().__init__(allowed_threads=allowed_threads, max_per_thread=1)
