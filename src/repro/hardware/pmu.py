"""Performance-monitoring-unit bookkeeping.

Litmus pricing consumes a small set of counters that Linux perf exposes on
the paper's Intel machines:

* ``cycles`` and ``instructions`` (total work),
* ``cycle_activity.stalls_l2_miss`` — cycles stalled waiting for data that
  missed the L2; Litmus treats these as ``T_shared``,
* L2 and L3 miss counts (the L3 miss count is the supplementary Litmus-test
  metric used to decide whether congestion resembles CT-Gen or MB-Gen).

:class:`PMUCounters` is a mutable accumulator used for a hardware thread, an
invocation, or the whole machine; :class:`CounterSnapshot` is an immutable
point-in-time copy so metering windows can be expressed as differences of
two snapshots, exactly like a ``perf stat`` interval.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable copy of counter values at a point in (simulated) time."""

    cycles: float = 0.0
    instructions: float = 0.0
    stall_cycles_l2_miss: float = 0.0
    l2_misses: float = 0.0
    l3_misses: float = 0.0
    context_switches: float = 0.0
    elapsed_seconds: float = 0.0

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Return the counter difference ``self - earlier``.

        This mirrors reading counters at the start and end of a measurement
        window and subtracting, the way ``perf`` interval mode works.
        """
        return CounterSnapshot(
            cycles=self.cycles - earlier.cycles,
            instructions=self.instructions - earlier.instructions,
            stall_cycles_l2_miss=self.stall_cycles_l2_miss
            - earlier.stall_cycles_l2_miss,
            l2_misses=self.l2_misses - earlier.l2_misses,
            l3_misses=self.l3_misses - earlier.l3_misses,
            context_switches=self.context_switches - earlier.context_switches,
            elapsed_seconds=self.elapsed_seconds - earlier.elapsed_seconds,
        )

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the window (0 when no cycles ran)."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def private_cycles(self) -> float:
        """Cycles not stalled on L2 misses — the paper's ``T_private``."""
        return max(self.cycles - self.stall_cycles_l2_miss, 0.0)

    @property
    def shared_cycles(self) -> float:
        """Cycles stalled on L2 misses — the paper's ``T_shared``."""
        return self.stall_cycles_l2_miss

    def shared_fraction(self) -> float:
        """Fraction of cycles spent stalled on shared resources."""
        if self.cycles <= 0:
            return 0.0
        return min(max(self.stall_cycles_l2_miss / self.cycles, 0.0), 1.0)


@dataclass
class PMUCounters:
    """Mutable counter accumulator.

    One instance is attached to every invocation record and one to the CPU
    as a whole (the machine-wide view a Litmus test reads for L3 misses).
    """

    cycles: float = 0.0
    instructions: float = 0.0
    stall_cycles_l2_miss: float = 0.0
    l2_misses: float = 0.0
    l3_misses: float = 0.0
    context_switches: float = 0.0
    elapsed_seconds: float = 0.0

    def observe(
        self,
        *,
        cycles: float = 0.0,
        instructions: float = 0.0,
        stall_cycles_l2_miss: float = 0.0,
        l2_misses: float = 0.0,
        l3_misses: float = 0.0,
        context_switches: float = 0.0,
        elapsed_seconds: float = 0.0,
    ) -> None:
        """Accumulate one epoch's worth of activity.

        All arguments must be non-negative; the simulator never rolls
        counters backwards.
        """
        for name, value in (
            ("cycles", cycles),
            ("instructions", instructions),
            ("stall_cycles_l2_miss", stall_cycles_l2_miss),
            ("l2_misses", l2_misses),
            ("l3_misses", l3_misses),
            ("context_switches", context_switches),
            ("elapsed_seconds", elapsed_seconds),
        ):
            if value < 0:
                raise ValueError(f"counter increment {name} must be >= 0, got {value}")
        self.cycles += cycles
        self.instructions += instructions
        self.stall_cycles_l2_miss += stall_cycles_l2_miss
        self.l2_misses += l2_misses
        self.l3_misses += l3_misses
        self.context_switches += context_switches
        self.elapsed_seconds += elapsed_seconds

    def merge(self, other: "PMUCounters") -> None:
        """Add another accumulator's totals into this one."""
        self.observe(
            cycles=other.cycles,
            instructions=other.instructions,
            stall_cycles_l2_miss=other.stall_cycles_l2_miss,
            l2_misses=other.l2_misses,
            l3_misses=other.l3_misses,
            context_switches=other.context_switches,
            elapsed_seconds=other.elapsed_seconds,
        )

    def snapshot(self) -> CounterSnapshot:
        """Return an immutable copy of the current totals."""
        return CounterSnapshot(
            cycles=self.cycles,
            instructions=self.instructions,
            stall_cycles_l2_miss=self.stall_cycles_l2_miss,
            l2_misses=self.l2_misses,
            l3_misses=self.l3_misses,
            context_switches=self.context_switches,
            elapsed_seconds=self.elapsed_seconds,
        )

    @property
    def private_cycles(self) -> float:
        return max(self.cycles - self.stall_cycles_l2_miss, 0.0)

    @property
    def shared_cycles(self) -> float:
        return self.stall_cycles_l2_miss

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles
