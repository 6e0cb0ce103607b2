"""Workload drivers used by the measurement harnesses.

The paper measures a *test* function by running it back-to-back many times
on the platform while co-runner churn keeps the congestion level steady.
:class:`RepeatingSubmitter` implements the back-to-back part: it pins a
function spec to a hardware thread (or lets the scheduler place it), runs it
a fixed number of times, and collects the completed invocations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.platform.engine import SimulationEngine
from repro.platform.invoker import Invocation
from repro.workloads.function import FunctionSpec

#: Tag value stamped on invocations owned by a RepeatingSubmitter.
TEST_ROLE = "test"


class RepeatingSubmitter:
    """Runs one function spec back-to-back for a fixed number of repetitions."""

    def __init__(
        self,
        spec: FunctionSpec,
        repetitions: int,
        thread_id: Optional[int] = None,
        role: str = TEST_ROLE,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self._spec = spec
        self._repetitions = repetitions
        self._thread_id = thread_id
        self._role = role
        self._submitted = 0
        self._completed: List[Invocation] = []
        self._current: Optional[Invocation] = None

    @property
    def spec(self) -> FunctionSpec:
        return self._spec

    @property
    def repetitions(self) -> int:
        return self._repetitions

    @property
    def completed(self) -> List[Invocation]:
        return list(self._completed)

    @property
    def done(self) -> bool:
        return len(self._completed) >= self._repetitions

    def attach(self, engine: SimulationEngine) -> None:
        """Register with the engine and submit the first repetition."""
        engine.add_finish_listener(self._on_finish)
        self._submit_next(engine)

    def _submit_next(self, engine: SimulationEngine) -> None:
        if self._submitted >= self._repetitions:
            self._current = None
            return
        self._current = engine.submit(
            self._spec,
            thread_id=self._thread_id,
            tags={"role": self._role, "driver_spec": self._spec.abbreviation},
        )
        self._submitted += 1

    def _on_finish(self, invocation: Invocation, engine: SimulationEngine) -> None:
        if self._current is None:
            return
        if invocation.invocation_id != self._current.invocation_id:
            return
        self._completed.append(invocation)
        self._submit_next(engine)


class WorkQueueDriver:
    """Runs a fixed list of invocations across a pool of hardware threads.

    The calibration harness uses this to run the reference functions and
    startup probes against a traffic generator: all pending items are queued
    up front, every allowed thread is filled up to ``max_per_thread``
    concurrent invocations, and whenever one of the driver's invocations
    finishes the next pending item takes its place.
    """

    def __init__(
        self,
        items: List[FunctionSpec],
        allowed_threads: List[int],
        max_per_thread: int = 1,
    ) -> None:
        if not allowed_threads:
            raise ValueError("allowed_threads must not be empty")
        if max_per_thread < 1:
            raise ValueError("max_per_thread must be >= 1")
        self._pending: List[FunctionSpec] = list(items)
        self._allowed_threads = list(allowed_threads)
        self._max_per_thread = max_per_thread
        self._in_flight: Dict[int, Invocation] = {}
        self._completed: List[Invocation] = []

    @property
    def completed(self) -> List[Invocation]:
        return list(self._completed)

    @property
    def done(self) -> bool:
        return not self._pending and not self._in_flight

    def attach(self, engine: SimulationEngine) -> None:
        engine.add_finish_listener(self._on_finish)
        self._fill(engine)

    def completed_by_spec(self) -> Dict[str, List[Invocation]]:
        result: Dict[str, List[Invocation]] = {}
        for invocation in self._completed:
            result.setdefault(invocation.spec.abbreviation, []).append(invocation)
        return result

    def _fill(self, engine: SimulationEngine) -> None:
        while self._pending:
            thread_id = self._least_loaded_thread(engine)
            if thread_id is None:
                return
            spec = self._pending.pop(0)
            invocation = engine.submit(
                spec, thread_id=thread_id, tags={"role": "calibration"}
            )
            self._in_flight[invocation.invocation_id] = invocation

    def _least_loaded_thread(self, engine: SimulationEngine) -> Optional[int]:
        best_thread: Optional[int] = None
        best_occupancy: Optional[int] = None
        for thread_id in self._allowed_threads:
            occupancy = engine.cpu.thread(thread_id).occupancy
            if occupancy >= self._max_per_thread:
                continue
            if best_occupancy is None or occupancy < best_occupancy:
                best_thread = thread_id
                best_occupancy = occupancy
        return best_thread

    def _on_finish(self, invocation: Invocation, engine: SimulationEngine) -> None:
        if invocation.invocation_id not in self._in_flight:
            return
        del self._in_flight[invocation.invocation_id]
        self._completed.append(invocation)
        self._fill(engine)


class SubmitterGroup:
    """A collection of repeating submitters driven together.

    The harnesses place one submitter per test function (and, in the
    temporal-sharing configurations, additional submitters acting as pinned
    co-runners) and then run the engine until every submitter has finished
    its repetitions.
    """

    def __init__(self, submitters: List[RepeatingSubmitter]) -> None:
        self._submitters = list(submitters)

    def attach(self, engine: SimulationEngine) -> None:
        for submitter in self._submitters:
            submitter.attach(engine)

    @property
    def done(self) -> bool:
        return all(submitter.done for submitter in self._submitters)

    def completed_by_spec(self) -> Dict[str, List[Invocation]]:
        """Completed test invocations grouped by function abbreviation."""
        result: Dict[str, List[Invocation]] = {}
        for submitter in self._submitters:
            result.setdefault(submitter.spec.abbreviation, []).extend(
                submitter.completed
            )
        return result
