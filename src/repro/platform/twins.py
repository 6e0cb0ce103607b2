"""Twin lanes: identical traffic-generator threads, stepped once per class.

A calibration stress point runs L identical CT-Gen or MB-Gen threads next
to one probe or reference function, so on each stepped epoch most of the
scalar engine's lanes compute, bit for bit, what the first generator
thread computes.  :func:`twin_classes` groups those lanes; the engine's
fast path then builds one fixed-point demand row and advances one cursor
per class, and every other lane of a class (a *twin*) takes its first
lane's cursor position and deltas.

Two generator lanes are twins when all of these are equal: the phase list
from the current phase on (each phase's ``ResourceProfile`` object and
instruction count), the cursor's phase index, progress into the phase and
instructions retired, the total instruction count, the epoch share, the
thread occupancy, the private multiplier and the warm-start hit fraction.
That is everything one epoch reads, so twins get equal results: the
water-fill gives equal demands equal shares and hit fractions, a
skip-ahead span adds the same increments to each, and a frequency throttle
or a new contention model applies to all of them alike.  They stay equal
until the runnable set changes, which is when the engine groups them again.

Only generator lanes are keyed: ``TrafficGenerator.thread_specs`` builds
them as identical sets sharing one profile object, and they never watch a
probe window, while keying every lane would tax each churn rebuild of a
large co-run for nothing.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.platform.invoker import Invocation

#: One runnable lane: (invocation, epoch share, thread occupancy).
Lane = Tuple[Invocation, float, int]


class TwinClasses(NamedTuple):
    """The twin classes of one runnable set.

    A class's representative is its first lane in runnable order and its
    other lanes are its twins; every lane that is not keyed is a class of
    its own, and lanes without a current profile belong to none.
    """

    #: The classes' first lanes, in runnable order.
    representatives: List[Lane]
    #: For each lane with a profile, in runnable order, the position of its
    #: class in ``representatives``.
    classes: Tuple[int, ...]
    #: The invocation ids of the lanes ``classes`` lists.
    workload_ids: Tuple[int, ...]
    #: For each runnable lane, its representative's runnable position, or
    #: ``None`` for a lane that advances itself.
    leaders: Tuple[Optional[int], ...]
    #: The number of lanes with a leader.
    twins: int


def twin_classes(
    runnable: Sequence[Lane],
    multipliers: Mapping[int, float],
    warm_start: Mapping[int, float],
) -> Optional[TwinClasses]:
    """Group ``runnable``'s generator lanes into twin classes.

    ``multipliers`` maps invocation ids to private multipliers and
    ``warm_start`` to the previous epoch's L3 hit fractions.  Returns
    ``None`` when no lane has a twin.
    """
    first: Dict[tuple, int] = {}
    class_of: Dict[int, int] = {}
    representatives: List[Lane] = []
    classes: List[int] = []
    workload_ids: List[int] = []
    leaders: List[Optional[int]] = []
    for position, lane in enumerate(runnable):
        invocation, share_seconds, occupancy = lane
        cursor = invocation.cursor
        if cursor.profile is None:
            leaders.append(None)
            continue
        leader = position
        if invocation.spec.is_traffic_generator:
            phases = cursor.spec.phases[cursor.phase_index :]
            key = (
                tuple([(id(phase.profile), phase.instructions) for phase in phases]),
                cursor.phase_index,
                cursor.span_snapshot(),
                cursor.spec.total_instructions,
                share_seconds,
                occupancy,
                multipliers[invocation.invocation_id],
                warm_start.get(invocation.invocation_id),
            )
            leader = first.setdefault(key, position)
        if leader == position:
            class_of[position] = len(representatives)
            representatives.append(lane)
            leaders.append(None)
        else:
            leaders.append(leader)
        classes.append(class_of[leader])
        workload_ids.append(invocation.invocation_id)
    twins = len(classes) - len(representatives)
    if not twins:
        return None
    return TwinClasses(
        representatives, tuple(classes), tuple(workload_ids), tuple(leaders), twins
    )
