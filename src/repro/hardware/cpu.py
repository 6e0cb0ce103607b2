"""The CPU sharing domain: cores, shared-resource models and global counters.

A :class:`CPU` bundles everything the platform engine needs from the
hardware side:

* the machine description (:class:`repro.hardware.topology.MachineSpec`),
* the physical cores and their SMT hardware threads,
* the contention model for the shared domain,
* the frequency governor, and
* a machine-wide PMU accumulator (the counter a Litmus test reads to obtain
  the system's L3 miss count during a startup window).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.contention import ContentionModel, ContentionParameters
from repro.hardware.core import Core, HardwareThread, build_cores
from repro.hardware.frequency import FrequencyGovernor, FrequencyPolicy
from repro.hardware.pmu import PMUCounters
from repro.hardware.topology import MachineSpec


class CPU:
    """One sharing domain (socket) of the simulated machine."""

    def __init__(
        self,
        machine: MachineSpec,
        *,
        smt_enabled: bool = False,
        frequency_policy: FrequencyPolicy = FrequencyPolicy.FIXED,
        contention_parameters: Optional[ContentionParameters] = None,
    ) -> None:
        self._machine = machine
        self._smt_enabled = smt_enabled
        smt_ways = machine.smt_ways if smt_enabled else 1
        self._cores: List[Core] = build_cores(machine.cores, smt_ways)
        self._threads: Dict[int, HardwareThread] = {
            thread.thread_id: thread for core in self._cores for thread in core
        }
        self._thread_core: Dict[int, Core] = {
            thread.thread_id: core for core in self._cores for thread in core
        }
        self._contention = ContentionModel(machine, contention_parameters)
        self._governor = FrequencyGovernor(machine=machine, policy=frequency_policy)
        self._global_counters = PMUCounters()

    # ------------------------------------------------------------------ #
    # Topology access
    # ------------------------------------------------------------------ #
    @property
    def machine(self) -> MachineSpec:
        return self._machine

    @property
    def smt_enabled(self) -> bool:
        return self._smt_enabled

    @property
    def cores(self) -> List[Core]:
        return list(self._cores)

    @property
    def threads(self) -> List[HardwareThread]:
        return [thread for core in self._cores for thread in core]

    def thread(self, thread_id: int) -> HardwareThread:
        try:
            return self._threads[thread_id]
        except KeyError:
            raise KeyError(f"no hardware thread with id {thread_id}") from None

    def core_of(self, thread_id: int) -> Core:
        try:
            return self._thread_core[thread_id]
        except KeyError:
            raise KeyError(f"no hardware thread with id {thread_id}") from None

    # ------------------------------------------------------------------ #
    # Shared models
    # ------------------------------------------------------------------ #
    @property
    def contention(self) -> ContentionModel:
        return self._contention

    def set_contention_parameters(
        self, parameters: Optional[ContentionParameters]
    ) -> None:
        """Swap the contention model's coefficients from now on.

        The hardware-drift hook (see :mod:`repro.calibrate`): the machine
        geometry stays fixed but the calibrated coefficients describing it
        change mid-run, exactly like a microcode update or thermal regime
        shift would on real hardware.  The engine layer is responsible for
        invalidating any state derived from the old model.
        """
        self._contention = ContentionModel(self._machine, parameters)

    @property
    def governor(self) -> FrequencyGovernor:
        return self._governor

    @property
    def global_counters(self) -> PMUCounters:
        """Machine-wide counter totals (all invocations plus generators)."""
        return self._global_counters

    # ------------------------------------------------------------------ #
    # Derived state
    # ------------------------------------------------------------------ #
    @property
    def active_thread_count(self) -> int:
        return sum(1 for thread in self._threads.values() if thread.is_busy)

    def smt_private_penalty(self, thread_id: int) -> float:
        """Private-resource inflation caused by an active SMT sibling.

        Returns 1.0 when the sibling context is idle or SMT is disabled.
        """
        core = self.core_of(thread_id)
        if core.smt_ways < 2:
            return 1.0
        thread = self.thread(thread_id)
        sibling = core.sibling_of(thread)
        if sibling is not None and sibling.is_busy and thread.is_busy:
            return self._machine.smt_private_penalty
        return 1.0
