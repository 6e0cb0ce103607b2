"""CPU frequency governor.

The paper pins the CPUs at 2.8 GHz for the main experiments (as commercial
FaaS platforms expose a single fixed vCPU frequency) and evaluates one
sensitivity configuration where Turbo is left enabled (Figure 18).  The
governor abstracts both policies:

* ``FIXED`` always returns the base frequency;
* ``TURBO`` returns a frequency that decays from the single-core turbo bin
  towards the base frequency as more hardware threads become active,
  mirroring how Intel Turbo sheds frequency with active core count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.topology import MachineSpec


class FrequencyPolicy(enum.Enum):
    """How the clock is managed for the sharing domain."""

    FIXED = "fixed"
    TURBO = "turbo"


@dataclass
class FrequencyGovernor:
    """Returns the operating frequency given the number of active threads."""

    machine: MachineSpec
    policy: FrequencyPolicy = FrequencyPolicy.FIXED
    #: Exponential decay constant for the turbo curve, in units of active
    #: hardware threads.  Larger values keep the clock high for longer.
    turbo_decay_threads: float = 6.0

    def frequency_ghz(self, active_threads: int) -> float:
        """Operating frequency with ``active_threads`` busy hardware threads."""
        if active_threads < 0:
            raise ValueError("active_threads must be >= 0")
        if self.policy is FrequencyPolicy.FIXED:
            return self.machine.base_frequency_ghz
        if active_threads <= 1:
            return self.machine.max_turbo_frequency_ghz
        import math

        span = self.machine.max_turbo_frequency_ghz - self.machine.base_frequency_ghz
        decay = math.exp(-(active_threads - 1) / self.turbo_decay_threads)
        return self.machine.base_frequency_ghz + span * decay

    def frequency_hz(self, active_threads: int) -> float:
        return self.frequency_ghz(active_threads) * 1e9
