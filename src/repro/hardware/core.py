"""Cores and hardware threads.

These are lightweight bookkeeping objects: the scheduler in
``repro.platform.scheduler`` decides which sandboxes are attached to which
hardware thread, and the engine asks each thread which invocations are
runnable this epoch.  The objects themselves only track identity, SMT
siblings and occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional


@dataclass
class HardwareThread:
    """One logical CPU (SMT context) belonging to a physical core."""

    thread_id: int
    core_id: int
    smt_index: int
    #: Identifiers of the invocations currently queued on this thread.
    run_queue: List[int] = field(default_factory=list)

    @property
    def occupancy(self) -> int:
        """Number of invocations sharing this hardware thread."""
        return len(self.run_queue)

    @property
    def is_busy(self) -> bool:
        return bool(self.run_queue)

    def enqueue(self, invocation_id: int) -> None:
        if invocation_id in self.run_queue:
            raise ValueError(
                f"invocation {invocation_id} is already queued on thread "
                f"{self.thread_id}"
            )
        self.run_queue.append(invocation_id)

    def dequeue(self, invocation_id: int) -> None:
        try:
            self.run_queue.remove(invocation_id)
        except ValueError:
            raise ValueError(
                f"invocation {invocation_id} is not queued on thread "
                f"{self.thread_id}"
            ) from None


@dataclass
class Core:
    """One physical core holding ``smt_ways`` hardware threads."""

    core_id: int
    threads: List[HardwareThread]

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("a core needs at least one hardware thread")
        for thread in self.threads:
            if thread.core_id != self.core_id:
                raise ValueError(
                    f"thread {thread.thread_id} belongs to core {thread.core_id}, "
                    f"not {self.core_id}"
                )

    @property
    def smt_ways(self) -> int:
        return len(self.threads)

    @property
    def occupancy(self) -> int:
        """Total invocations queued across the core's hardware threads."""
        return sum(thread.occupancy for thread in self.threads)

    def sibling_of(self, thread: HardwareThread) -> Optional[HardwareThread]:
        """Return the other SMT context of a 2-way core, if any."""
        others = [t for t in self.threads if t.thread_id != thread.thread_id]
        if not others:
            return None
        if len(others) == 1:
            return others[0]
        raise ValueError("sibling_of is only defined for 2-way SMT cores")

    def __iter__(self) -> Iterator[HardwareThread]:
        return iter(self.threads)


def build_cores(core_count: int, smt_ways: int) -> List[Core]:
    """Construct ``core_count`` cores each with ``smt_ways`` hardware threads.

    Thread ids are assigned the way Linux numbers logical CPUs on Intel
    machines: the first ``core_count`` ids cover SMT index 0 of every core,
    the next ``core_count`` ids cover SMT index 1, and so on.
    """
    if core_count <= 0:
        raise ValueError("core_count must be positive")
    if smt_ways <= 0:
        raise ValueError("smt_ways must be positive")
    cores: List[Core] = []
    for core_id in range(core_count):
        threads = [
            HardwareThread(
                thread_id=smt_index * core_count + core_id,
                core_id=core_id,
                smt_index=smt_index,
            )
            for smt_index in range(smt_ways)
        ]
        cores.append(Core(core_id=core_id, threads=threads))
    return cores
