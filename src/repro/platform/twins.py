"""Twin lanes: identical traffic-generator threads, stepped as one lane.

A calibration stress point runs L identical CT-Gen or MB-Gen threads next
to one probe or reference function, so on each stepped epoch most of the
scalar engine's lanes compute, bit for bit, what the first generator
thread computes.  :func:`twin_classes` groups those lanes; while the
engine's cached runnable set holds the classes, its fast path builds one
fixed-point demand row per class, and only each class's first lane (its
*leader*) advances its cursor, adds to its own counters and accumulates
its occupancy, in stepped epochs and skip-ahead spans alike.  Every other
lane of a class (a *twin*) adds only its terms to the machine-wide sums,
one per lane in runnable order, and finishes when its leader does.

Two generator lanes are twins when all of these are equal: the phase list
from the current phase on (each phase's ``ResourceProfile`` object and
instruction count), the invocation's progress
(:meth:`Invocation.progress_key`: the cursor's phase index and position,
its seven counters and its two occupancy accumulators), the total
instruction count, the epoch share, the thread occupancy, the private
multiplier and the warm-start hit fraction.  That is everything one epoch
reads, plus everything it accumulates, so twins get equal deltas each
epoch from equal state: the water-fill gives equal demands equal shares
and hit fractions, a skip-ahead span adds the same increments to each, and
a frequency throttle or a new contention model applies to all of them
alike.  A twin's own state therefore equals its leader's after every
epoch, and copying the leader's state (:meth:`Invocation.take_progress`)
is bit for bit what the twin's own additions would have produced.

Between catch-ups a twin's own cursor, counters and occupancy lag its
leader's.  The engine catches every twin up before it drops the runnable
set (in ``submit`` and before the finish listeners run) and before a
public stepping call returns, and no fast-path code reads a twin's own
state in between.

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

    A class's leader is its first lane in runnable order and its other
    lanes are its twins; every lane that is not keyed is a class of its
    own, and lanes without a current profile belong to none.
    """

    #: The classes' leaders, in runnable order.
    leaders: List[Lane]
    #: For each lane with a profile, in runnable order, the position of its
    #: class in ``leaders``.
    classes: Tuple[int, ...]
    #: The invocation ids of the lanes ``classes`` lists.
    workload_ids: Tuple[int, ...]
    #: For each runnable lane, the position of its class, or ``None`` for a
    #: lane without a profile.
    lane_classes: Tuple[Optional[int], ...]
    #: One (twin, leader) invocation pair per twin, in runnable order.
    pairs: Tuple[Tuple[Invocation, Invocation], ...]


def twin_classes(
    runnable: Sequence[Lane],
    multipliers: Mapping[int, float],
    warm_start: Mapping[int, float],
) -> Optional[TwinClasses]:
    """Group ``runnable``'s generator lanes into twin classes.

    ``multipliers`` maps invocation ids to private multipliers and
    ``warm_start`` to the previous epoch's L3 hit fractions.  Every lane
    must be caught up.  Returns ``None`` when no lane has a twin.
    """
    first: Dict[tuple, int] = {}
    leaders: List[Lane] = []
    classes: List[int] = []
    workload_ids: List[int] = []
    lane_classes: List[Optional[int]] = []
    pairs: List[Tuple[Invocation, Invocation]] = []
    for lane in runnable:
        invocation, share_seconds, occupancy = lane
        cursor = invocation.cursor
        if cursor.profile is None:
            lane_classes.append(None)
            continue
        position = len(leaders)
        if invocation.spec.is_traffic_generator:
            phases = cursor.spec.phases[cursor.phase_index :]
            key = (
                tuple([(id(phase.profile), phase.instructions) for phase in phases]),
                invocation.progress_key(),
                cursor.spec.total_instructions,
                share_seconds,
                occupancy,
                multipliers[invocation.invocation_id],
                warm_start.get(invocation.invocation_id),
            )
            position = first.setdefault(key, position)
        if position == len(leaders):
            leaders.append(lane)
        else:
            pairs.append((invocation, leaders[position][0]))
        classes.append(position)
        workload_ids.append(invocation.invocation_id)
        lane_classes.append(position)
    if not pairs:
        return None
    return TwinClasses(
        leaders,
        tuple(classes),
        tuple(workload_ids),
        tuple(lane_classes),
        tuple(pairs),
    )
