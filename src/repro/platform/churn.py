"""Co-runner churn.

The paper keeps the congestion level steady by maintaining a fixed number of
co-running functions: "whenever a function finishes, a new randomly-selected
function is launched".  :class:`ChurnManager` implements exactly that on top
of the engine: it owns a set of *churn* invocations, tops the set up to the
target count, and resubmits a fresh random workload whenever one of its
invocations completes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from repro.platform.faults import FAULT_ROLE
from repro.platform.invoker import Invocation
from repro.workloads.synthetic import Mixer, WorkloadMixer

#: Tag value the churn manager stamps on the invocations it owns.
CHURN_ROLE = "churn"


class ChurnManager:
    """Keeps ``target_count`` randomly selected co-runners alive."""

    def __init__(
        self,
        mixer: WorkloadMixer,
        target_count: int,
        thread_ids: Optional[Sequence[int]] = None,
    ) -> None:
        if target_count < 0:
            raise ValueError("target_count must be >= 0")
        self._mixer = mixer
        self._target_count = target_count
        self._thread_ids = None if thread_ids is None else list(thread_ids)
        self._active: Dict[int, Invocation] = {}
        self._launched = 0

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def launched_count(self) -> int:
        """Total number of churn invocations launched so far."""
        return self._launched

    def attach(self, engine: "SimulationEngine") -> None:  # noqa: F821
        """Register with an engine and launch the initial co-runners."""
        engine.add_finish_listener(self._on_finish)
        self.top_up(engine)

    def top_up(self, engine: "SimulationEngine") -> None:  # noqa: F821
        """Submit churn invocations until the target count is reached."""
        while len(self._active) < self._target_count:
            spec = self._mixer.next()
            thread_id = self._pick_thread(engine)
            invocation = engine.submit(
                spec, thread_id=thread_id, tags={"role": CHURN_ROLE}
            )
            self._active[invocation.invocation_id] = invocation
            self._launched += 1

    def _pick_thread(self, engine: "SimulationEngine") -> Optional[int]:  # noqa: F821
        if self._thread_ids is None:
            return None
        # Spread churn invocations across the allowed threads evenly.
        best_thread = None
        best_occupancy = None
        for thread_id in self._thread_ids:
            occupancy = engine.cpu.thread(thread_id).occupancy
            if best_occupancy is None or occupancy < best_occupancy:
                best_thread = thread_id
                best_occupancy = occupancy
        return best_thread

    def _on_finish(self, invocation: Invocation, engine: "SimulationEngine") -> None:  # noqa: F821
        if invocation.invocation_id not in self._active:
            return
        del self._active[invocation.invocation_id]
        self.top_up(engine)


class WindowedBurst:
    """Keeps ``count`` burst co-runners alive until ``end_seconds``.

    The scalar-engine driver behind the ``churn-spike`` and
    ``noisy-neighbor`` fault types (:mod:`repro.platform.faults`): at
    :meth:`attach` it launches ``count`` invocations drawn from its mixer
    (placed by the engine's scheduler) and, whenever one of them finishes
    before the window closes, launches a replacement.  After the window
    closes the burst simply drains.  Burst invocations are tagged with
    ``role=FAULT_ROLE`` so steady-churn listeners and metering skip them.
    """

    def __init__(self, mixer: Mixer, count: int, end_seconds: float) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self._mixer = mixer
        self._count = count
        self._end_seconds = end_seconds
        self._active: Set[int] = set()
        self._launched = 0
        self._completed = 0

    @property
    def launched_count(self) -> int:
        return self._launched

    @property
    def completed_count(self) -> int:
        return self._completed

    def attach(self, engine: "SimulationEngine") -> None:  # noqa: F821
        """Register with an engine and launch the initial burst."""
        engine.add_finish_listener(self._on_finish)
        for _ in range(self._count):
            self._launch(engine)

    def _launch(self, engine: "SimulationEngine") -> None:  # noqa: F821
        invocation = engine.submit(self._mixer.next(), tags={"role": FAULT_ROLE})
        self._active.add(invocation.invocation_id)
        self._launched += 1

    def _on_finish(self, invocation: Invocation, engine: "SimulationEngine") -> None:  # noqa: F821
        if invocation.invocation_id not in self._active:
            return
        self._active.discard(invocation.invocation_id)
        self._completed += 1
        if engine.time_seconds < self._end_seconds:
            self._launch(engine)
