"""Hardware drift injection: perturb a profile's coefficients mid-run.

Drift is the calibration twin of the ``[[faults]]`` axis: where a fault
changes *behaviour* inside a fixed hardware model (bursts, throttles,
metering loss), drift changes the *model itself* — the contention
coefficients describing the machine stop matching reality at some point
in time, exactly the situation the continuous calibrator exists to
detect and repair.

The segmentation machinery is deliberately the faults' own: a
:class:`DriftInjector` turns its events into time-sorted boundaries, and
the measurement loop advances each engine to every boundary with
:func:`repro.platform.batch.sweep.advance_to_boundary` — the identical
``target = time + (boundary - time)`` float arithmetic both fault-aware
backends already share — then applies the new coefficients through
``set_contention_parameters``.  Both engines therefore flip parameters at
the same epoch, and a drifted vector run stays bit-exact against the
drifted scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.calibrate.profile import HardwareProfile, get_param, set_param

#: Parameter namespace drift may perturb mid-run.  Machine geometry
#: (core counts, cache sizes) is baked into live engine state and cannot
#: change under a running fleet; the calibrated coefficients can.
_DRIFTABLE_PREFIX = "contention."


@dataclass(frozen=True)
class DriftEvent:
    """One step change of a model coefficient at an absolute time."""

    start_seconds: float
    #: Dot path of the coefficient that drifts (``contention.*`` only).
    path: str = "contention.memory_queueing_coefficient"
    #: Multiplier applied to the profile's nominal value at ``path``.
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.start_seconds < 0:
            raise ValueError("drift start_seconds must be >= 0")
        if not self.path.startswith(_DRIFTABLE_PREFIX):
            raise ValueError(
                f"drift path {self.path!r} is not driftable: only "
                f"'{_DRIFTABLE_PREFIX}*' coefficients can change under a "
                f"running fleet (machine geometry is fixed engine state)"
            )
        if self.scale <= 0:
            raise ValueError("drift scale must be positive")


class DriftInjector:
    """Applies a schedule of :class:`DriftEvent` to a ground-truth profile.

    Scales compose multiplicatively against the *nominal* profile in event
    order, so two events on the same path are cumulative and the profile
    at any time is a pure function of (nominal profile, events, time) —
    which is what keeps replayed measurement segments deterministic.
    """

    def __init__(self, profile: HardwareProfile, events: Tuple[DriftEvent, ...] = ()):
        self._profile = profile
        self._events = tuple(sorted(events, key=lambda e: e.start_seconds))
        for event in self._events:
            get_param(profile, event.path)  # validate paths up front

    @property
    def events(self) -> Tuple[DriftEvent, ...]:
        return self._events

    def boundaries(self, start: float, end: float) -> List[float]:
        """Drift times falling inside ``(start, end]``, time-sorted.

        The measurement loop segments its window at exactly these points,
        the way the fault windows segment a sweep horizon.
        """
        return [
            event.start_seconds
            for event in self._events
            if start < event.start_seconds <= end
        ]

    def profile_at(self, time_seconds: float) -> HardwareProfile:
        """The ground-truth profile in force at ``time_seconds``."""
        profile = self._profile
        for event in self._events:
            if event.start_seconds <= time_seconds:
                profile = set_param(
                    profile, event.path, get_param(profile, event.path) * event.scale
                )
        return profile

    def drifted(self, time_seconds: float) -> bool:
        """Whether any event has taken effect by ``time_seconds``."""
        return any(event.start_seconds <= time_seconds for event in self._events)
