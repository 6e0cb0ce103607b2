"""The epoch-driven simulation engine.

The engine advances simulated time in fixed epochs (1 ms by default).  Every
epoch it:

1. collects the runnable invocations on every hardware thread and gives each
   an equal share of the epoch (temporal sharing),
2. iterates the hardware contention model to a fixed point — the miss
   *rates* each invocation generates depend on how fast it can run, which in
   turn depends on everybody's miss rates,
3. advances every invocation's phase cursor by the instructions its cycle
   budget allows, splitting the consumed cycles into private cycles and
   cycles stalled on L2 misses, and accumulating both per-invocation and
   machine-wide performance counters,
4. records startup-window (Litmus probe) snapshots and retires finished
   invocations, calling the finish listeners.

All randomness lives outside the engine (in workload selection); given the
same submissions the engine is fully deterministic.

Fast path
---------

Long stretches of a simulation are *stable*: the runnable set does not
change, every invocation is mid-phase, and the contention fixed point has
converged to an exact float fixed point.  Two optimizations exploit this
without changing a single bit of output:

* **Penalty memoization by runnable-set signature** — when an epoch's
  signature (invocation ids, phase indices, thread occupancies, active
  thread count) matches the previous epoch's and that epoch's fixed point
  converged exactly, the stored contention result *is* what the fixed
  point would recompute, so the contention model is not re-evaluated
  (:class:`PenaltySignatureCache`).

* **Epoch skip-ahead** — inside :meth:`run_for`/:meth:`run_until`, once an
  epoch is stable the engine advances through the provably stable epochs
  that follow in one pass, stopping well before the next boundary
  (submission, completion, probe-window edge, churn tick — all of which
  coincide with phase boundaries — or the caller's time limit).  The pass
  replicates the exact sequence of floating-point additions the
  epoch-by-epoch loop would have performed on every accumulator, so the
  result is bit-identical, just without re-deriving the per-epoch deltas.

Epochs that neither optimization covers are *stepped* one at a time, and
the fast path makes each of those cheap while doing the same floating-point
operations as the reference code:

* **Compact contention results** — the fixed point drives
  :meth:`ContentionModel.evaluate_tuples`, which returns one
  :class:`ContentionResult` per evaluation (one L3 hit fraction per plan
  entry with the plan's lane map, plus the five values all workloads
  share) instead of one :class:`SharedResourcePenalty` per workload.  The
  fixed point, the advancement and the span and steady-demand checks read
  a result from the current lane map by entry, and look others up in its
  workload id -> hit fraction map, which is built on first read.  Exact
  convergence is decided by :meth:`ContentionResult.reproduces`, which
  compares exactly what penalty equality compares.

* **A cached runnable set** — the runnable (invocation, epoch share,
  occupancy) triples, the busy-thread count and the per-invocation
  private-execution multipliers change only when a run queue does, which
  happens in :meth:`submit` and when an invocation finishes; both drop the
  cache and the next epoch rebuilds it.  Invocations read their current
  resource profile from ``PhaseCursor.profile``, refreshed on each phase
  transition.

* **Twin lanes** — each rebuild of the runnable set groups identical
  traffic-generator lanes with equal histories into classes
  (:mod:`repro.platform.twins`).  While the classes live, only a class's
  first lane (its leader) advances its cursor and accumulates its own
  counters and occupancy, in stepped epochs and spans; the other lanes
  (twins) add only their terms to the machine-wide sums, one per lane in
  runnable order, and finish with their leader.  A twin catches up by
  copying its leader's progress in :meth:`submit` and before the finish
  listeners run (both then drop the runnable set) and before
  :meth:`run_epoch`, :meth:`run_for` and :meth:`run_until` return.

* **Contention plans** — the fixed point's inputs other than the
  remaining instructions and the warm start, with the contention model's
  :class:`ContentionPlan`, are built once per runnable set; an iteration
  computes one miss rate per row and evaluates the plan.  When a row's
  lane crosses into another phase, only that row and its plan entry are
  replaced and the plan keeps its lane map; everything is rebuilt at a new
  frequency or contention model, or when a phase gains or loses its cache
  footprint.

The fast path can be disabled with ``EngineConfig(fast_path=False)``: that
reference path collects the runnable set every epoch, derives each profile
from the phase index and evaluates the contention model through
:meth:`ContentionModel.evaluate`.  The property tests assert that fast and
disabled runs produce identical states.

Callers of :meth:`run_until` must pass predicates that only change when an
invocation starts or finishes (every predicate in this repository does) —
a predicate watching raw counters or the clock could otherwise observe
fewer intermediate epochs than the slow path exposes, and a twin's own
counters lag its leader's between catch-ups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hardware.contention import (
    ContentionPlan,
    ContentionResult,
    SharedResourcePenalty,
    WorkloadDemand,
)
from repro.hardware.cpu import CPU
from repro.platform.invoker import Invocation, InvocationState
from repro.platform.sandbox import Sandbox
from repro.platform.scheduler import Scheduler, SwitchingOverheadModel
from repro.platform.twins import TwinClasses, twin_classes
from repro.workloads.function import FunctionSpec, PhaseCursor
from repro.workloads.phases import ResourceProfile

FinishListener = Callable[[Invocation, "SimulationEngine"], None]

#: A stable span stops this many epochs short of the nearest predicted phase
#: boundary and lets the epoch-by-epoch path cross it, so accumulated
#: floating-point state at the boundary matches the slow path bit for bit.
_SPAN_MARGIN_EPOCHS = 2

#: Signature of one epoch's runnable set: (active thread count, then one
#: (invocation id, phase index, thread occupancy) triple per runnable
#: invocation in collection order).
RunnableSignature = Tuple[int, Tuple[Tuple[int, int, int], ...]]

#: One epoch's runnable (invocation, epoch share, thread occupancy) triples.
Runnable = List[Tuple[Invocation, float, int]]

#: One row's (one lane's) deltas from one epoch: cycles, instructions,
#: stall cycles, L2 misses, L3 misses and occupied seconds.
EpochDeltas = Tuple[float, float, float, float, float, float]

#: The fast path's warm start before any evaluation.  No workload has a hit
#: fraction in it, so its shared values are never read, and only a result
#: with no workloads reproduces it — just as with an empty penalty map.
_NO_CONTENTION = ContentionResult({}, 0.0, 0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class EngineConfig:
    """Engine time-stepping parameters."""

    epoch_seconds: float = 1e-3
    fixed_point_iterations: int = 2
    #: Enable the exact fast path (penalty memoization + epoch skip-ahead).
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.fixed_point_iterations < 1:
            raise ValueError("fixed_point_iterations must be >= 1")


@dataclass
class FastPathStats:
    """Observability counters for the engine's fast path."""

    stepped_epochs: int = 0
    span_epochs: int = 0
    spans: int = 0
    fixed_point_evaluations: int = 0
    fixed_point_reuses: int = 0
    #: Stepped lane-epochs in which a twin stepped as its class's leader.
    twin_lane_epochs: int = 0

    @property
    def total_epochs(self) -> int:
        return self.stepped_epochs + self.span_epochs


class PenaltySignatureCache:
    """Memoizes converged contention results by runnable-set signature.

    The fixed point warm-starts from the previous epoch's result, so a
    stored :class:`ContentionResult` is provably what the next epoch would
    recompute only when (a) it was an *exact* float fixed point (one more
    iteration reproduces it bit for bit) and (b) the next epoch's signature
    matches the one it was stored under — i.e. the entry comes from the
    immediately preceding epoch.  The cache therefore keeps a single entry:
    any epoch with a different signature overwrites it, which doubles as
    the invalidation rule.
    """

    def __init__(self) -> None:
        self._signature: Optional[RunnableSignature] = None
        self._result: Optional[ContentionResult] = None
        self._converged = False
        self.hits = 0
        self.misses = 0

    @property
    def converged(self) -> bool:
        return self._converged

    @property
    def signature(self) -> Optional[RunnableSignature]:
        return self._signature

    def lookup(self, signature: RunnableSignature) -> Optional[ContentionResult]:
        """Return the stored result if reusable for ``signature``."""
        if self._converged and self._result is not None and signature == self._signature:
            self.hits += 1
            return self._result
        self.misses += 1
        return None

    def store(
        self,
        signature: RunnableSignature,
        result: ContentionResult,
        converged: bool,
    ) -> None:
        self._signature = signature
        self._result = result
        self._converged = converged

    def invalidate(self) -> None:
        self._signature = None
        self._result = None
        self._converged = False


def _repeat_add(base: float, increment: float, count: int) -> float:
    """``count`` sequential float additions — NOT ``base + count * increment``.

    Floating-point addition is not associative; the skip-ahead path uses
    this helper so each accumulator receives exactly the same rounding
    sequence as the epoch-by-epoch loop.
    """
    if increment == 0.0:
        return base
    for _ in range(count):
        base += increment
    return base


class _SpanInvocationState:
    """Per-invocation constants of one stable span (one epoch's deltas)."""

    __slots__ = (
        "invocation",
        "cursor",
        "retired",
        "cycles",
        "stall",
        "l2",
        "l3",
        "occupied_seconds",
        "has_switch",
        "occupancy",
    )

    def __init__(self, invocation, cursor, retired, cycles, stall, l2, l3,
                 occupied_seconds, has_switch, occupancy):
        self.invocation = invocation
        self.cursor = cursor
        self.retired = retired
        self.cycles = cycles
        self.stall = stall
        self.l2 = l2
        self.l3 = l3
        self.occupied_seconds = occupied_seconds
        self.has_switch = has_switch
        self.occupancy = occupancy


class _FixedPointInputs:
    """The fast path's inputs for one runnable set, frequency, phase of each
    row and contention model.

    Row *i* is entry *i* of the plan.  Rows change in place when their
    lanes cross a phase; the lane map, ``lanes``, ``cursors``,
    ``lane_entries`` and ``lane_cursors`` live as long as the object.
    """

    __slots__ = (
        "frequency_hz",
        "lanes",
        "cursors",
        "profiles",
        "rows",
        "plan",
        "lane_entries",
        "lane_cursors",
    )

    def __init__(
        self,
        frequency_hz: float,
        lanes: Runnable,
        profiles: List[ResourceProfile],
        rows: List[tuple],
        plan: ContentionPlan,
        lane_entries: Sequence[Optional[int]],
        lane_cursors: List[PhaseCursor],
    ) -> None:
        self.frequency_hz = frequency_hz
        #: The rows' lanes (a twin class's leader), their cursors, and the
        #: profile each stood in.
        self.lanes = lanes
        self.cursors = [invocation.cursor for invocation, _, _ in lanes]
        self.profiles = profiles
        #: One row per lane (per twin class) with a profile: workload id, L2
        #: MPKI, L2 misses per instruction, MLP, base CPI, private
        #: multiplier, cycle budget and the solo stall per instruction.
        self.rows = rows
        self.plan = plan
        #: For each runnable lane, its row, or ``None`` without a profile.
        self.lane_entries = lane_entries
        #: For each runnable lane, the cursor that tells its position: its
        #: leader's for a twin, its own otherwise.
        self.lane_cursors = lane_cursors


def _row_hits(
    result: ContentionResult, inputs: _FixedPointInputs
) -> Sequence[Optional[float]]:
    """Each row's L3 hit fraction in ``result``.

    Read by entry when ``result`` comes from the rows' lane map (a row
    refresh keeps it), and otherwise looked up by workload id: ``None``
    for a row ``result`` does not cover.
    """
    if result.lanes is inputs.plan.lanes:
        return result.hits
    lookup = result.hit_fractions.get
    return [lookup(row[0]) for row in inputs.rows]


class SimulationEngine:
    """Advances all active invocations under the contention model."""

    def __init__(
        self,
        cpu: CPU,
        scheduler: Scheduler,
        config: Optional[EngineConfig] = None,
        switching_overhead: Optional[SwitchingOverheadModel] = None,
    ) -> None:
        self._cpu = cpu
        self._scheduler = scheduler
        self._config = config or EngineConfig()
        self._switching_overhead = switching_overhead or SwitchingOverheadModel()
        self._time = 0.0
        self._next_invocation_id = 0
        self._next_sandbox_id = 0
        self._invocations: Dict[int, Invocation] = {}
        self._completed: List[Invocation] = []
        self._finish_listeners: List[FinishListener] = []
        # The reference path's warm start: the previous epoch's penalties.
        self._penalty_cache: Dict[int, SharedResourcePenalty] = {}
        # Fast-path state.
        self._signature_cache = PenaltySignatureCache()
        self._stats = FastPathStats()
        # The previous epoch's contention result: the fixed point's warm
        # start and, while a stable span runs, the span's penalties.
        self._warm_start = _NO_CONTENTION
        # (runnable triples, busy threads, multipliers, twin classes) until
        # a run queue changes; ``None`` means the next epoch collects them
        # afresh.
        self._runnable_set: Optional[
            Tuple[Runnable, int, Dict[int, float], Optional[TwinClasses]]
        ] = None
        # The fast fixed point's per-phase inputs; ``None`` means the next
        # stepped epoch builds them.
        self._fixed_point_inputs: Optional[_FixedPointInputs] = None
        self._span_ready = False
        self._last_frequency_hz = 0.0
        # Fault-injection hook: multiplies the governed frequency.  1.0 is
        # the healthy fleet and leaves the arithmetic untouched bit-for-bit.
        self._frequency_scale = 1.0
        # The thread list is fixed for the CPU's lifetime.
        self._threads = cpu.threads
        # Running traffic-generator invocations: with fewer than two there
        # are no twins, and a co-run's churn rebuilds skip the grouping.
        self._running_generators = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def cpu(self) -> CPU:
        return self._cpu

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def switching_overhead(self) -> SwitchingOverheadModel:
        return self._switching_overhead

    @property
    def time_seconds(self) -> float:
        return self._time

    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @property
    def fast_path_stats(self) -> FastPathStats:
        """Counters describing how much work the fast path saved."""
        return self._stats

    @property
    def penalty_signature_cache(self) -> PenaltySignatureCache:
        return self._signature_cache

    def invocation(self, invocation_id: int) -> Invocation:
        try:
            return self._invocations[invocation_id]
        except KeyError:
            raise KeyError(f"unknown invocation id {invocation_id}") from None

    def active_invocations(self) -> List[Invocation]:
        return [
            inv for inv in self._invocations.values() if inv.state is InvocationState.RUNNING
        ]

    def completed_invocations(
        self,
        role: Optional[str] = None,
        abbreviation: Optional[str] = None,
    ) -> List[Invocation]:
        """Completed invocations, optionally filtered by role tag and spec."""
        result = []
        for inv in self._completed:
            if role is not None and inv.role() != role:
                continue
            if abbreviation is not None and inv.spec.abbreviation != abbreviation:
                continue
            result.append(inv)
        return result

    def add_finish_listener(self, listener: FinishListener) -> None:
        self._finish_listeners.append(listener)

    def set_frequency_scale(self, scale: float) -> None:
        """Throttle (or restore) the machine's clock from now on.

        The ``freq-throttle`` fault hook: every subsequent epoch multiplies
        the governed frequency by ``scale``.  Changing the scale invalidates
        the fast-path caches — memoized penalty signatures and the pending
        stable span both bake in the old frequency, so replaying them would
        no longer be bit-exact against plain stepping.
        """
        if scale <= 0:
            raise ValueError("frequency scale must be positive")
        if scale == self._frequency_scale:
            return
        self._frequency_scale = scale
        self._span_ready = False
        self._signature_cache.invalidate()

    def set_contention_parameters(self, parameters) -> None:
        """Apply new contention-model coefficients from now on.

        The hardware-drift hook (see :mod:`repro.calibrate.drift`): like
        :meth:`set_frequency_scale`, changing the model invalidates the
        fast-path caches — memoized penalty signatures and the pending
        stable span bake in penalties computed under the old coefficients,
        so replaying them would no longer be bit-exact against plain
        stepping under the new ones.
        """
        self._cpu.set_contention_parameters(parameters)
        self._span_ready = False
        self._signature_cache.invalidate()
        self._fixed_point_inputs = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: FunctionSpec,
        *,
        thread_id: Optional[int] = None,
        tags: Optional[Dict[str, str]] = None,
    ) -> Invocation:
        """Create, place and start a new invocation of ``spec``.

        The serverless platform modeled here starts invocations immediately
        (cold-start queueing is outside the paper's scope), so submission
        also transitions the invocation to RUNNING.
        """
        self._span_ready = False
        self._catch_up()
        self._runnable_set = None
        sandbox = Sandbox(
            sandbox_id=self._next_sandbox_id,
            memory_mb=spec.memory_mb,
            language=spec.language,
        )
        self._next_sandbox_id += 1
        invocation = Invocation(
            invocation_id=self._next_invocation_id,
            spec=spec,
            sandbox=sandbox,
            submit_time=self._time,
            tags=dict(tags or {}),
        )
        self._next_invocation_id += 1
        self._invocations[invocation.invocation_id] = invocation
        if spec.is_traffic_generator:
            self._running_generators += 1

        placed_thread = (
            thread_id if thread_id is not None else self._scheduler.place(invocation, self._cpu)
        )
        self._cpu.thread(placed_thread).enqueue(invocation.invocation_id)
        invocation.mark_started(placed_thread, self._time)
        invocation.machine_counters_at_start = self._cpu.global_counters.snapshot()
        return invocation

    # ------------------------------------------------------------------ #
    # Time stepping
    # ------------------------------------------------------------------ #
    def run_epoch(self) -> None:
        """Advance simulated time by one epoch."""
        self._run_epoch()
        self._catch_up()

    def _run_epoch(self) -> None:
        """:meth:`run_epoch` without the twins' catch-up."""
        self._span_ready = False
        self._stats.stepped_epochs += 1
        dt = self._config.epoch_seconds
        now = self._time + dt
        fast = self._config.fast_path
        if fast and self._runnable_set is not None:
            runnable, busy_threads, multipliers, twins = self._runnable_set
        else:
            runnable, busy_threads, multipliers = self._collect_runnable(dt)
            twins = None
            if fast:
                if self._running_generators >= 2:
                    twins = twin_classes(
                        runnable, multipliers, self._warm_start.hit_fractions
                    )
                self._runnable_set = (runnable, busy_threads, multipliers, twins)
                self._fixed_point_inputs = None
        if not runnable:
            self._cpu.global_counters.observe(elapsed_seconds=dt)
            self._time = now
            return

        # ``busy_threads`` (threads with a non-empty run queue) is exactly
        # ``CPU.active_thread_count`` — counted with the runnable set.
        frequency_hz = self._cpu.governor.frequency_hz(busy_threads)
        if self._frequency_scale != 1.0:
            frequency_hz = frequency_hz * self._frequency_scale
        if fast:
            finished = self._step_fast(
                runnable, busy_threads, multipliers, twins, frequency_hz, dt, now
            )
        else:
            finished = self._step(runnable, multipliers, frequency_hz, dt, now)

        self._cpu.global_counters.observe(elapsed_seconds=dt)
        self._time = now
        for invocation in finished:
            self._finish(invocation)

    def _step(
        self,
        runnable: Runnable,
        multipliers: Dict[int, float],
        frequency_hz: float,
        dt: float,
        now: float,
    ) -> List[Invocation]:
        """The reference epoch: fixed point, then advance every invocation.

        Returns the invocations that finished.
        """
        penalties, _ = self._fixed_point(runnable, frequency_hz, dt, multipliers)
        self._stats.fixed_point_evaluations += 1
        self._penalty_cache = penalties
        finished: List[Invocation] = []
        for invocation, share_seconds, occupancy in runnable:
            penalty = penalties.get(invocation.invocation_id)
            if penalty is None:
                # The invocation had no current profile (already finished).
                continue
            self._advance_invocation(
                invocation,
                share_seconds,
                occupancy,
                penalty,
                frequency_hz,
                dt,
                multipliers[invocation.invocation_id],
            )
            if not invocation.startup_recorded and not invocation.is_traffic_generator:
                if invocation.cursor.startup_complete:
                    invocation.record_startup_completion(
                        now, self._cpu.global_counters.snapshot()
                    )
            if invocation.cursor.finished:
                finished.append(invocation)
        return finished

    def _step_fast(
        self,
        runnable: Runnable,
        busy_threads: int,
        multipliers: Dict[int, float],
        twins: Optional[TwinClasses],
        frequency_hz: float,
        dt: float,
        now: float,
    ) -> List[Invocation]:
        """:meth:`_step` on the fast path; marks the epoch stable if it is.

        Advances one lane per row (per twin class) and returns the
        invocations that finished.
        """
        inputs = self._current_fixed_point_inputs(
            runnable, twins, frequency_hz, multipliers
        )
        # The signature is only needed to look up or store converged
        # results; when the previous epoch did not converge, neither can
        # happen, so the construction is skipped entirely.
        cache = self._signature_cache
        signature: Optional[RunnableSignature] = None
        result: Optional[ContentionResult] = None
        converged = False
        if cache.converged:
            signature = self._runnable_signature(runnable, busy_threads, inputs)
            cached = cache.lookup(signature)
            if cached is not None and self._steady_demands_hold(inputs, cached):
                # The previous epoch had the same signature and its result
                # is an exact fixed point, so re-evaluating the contention
                # model would reproduce it bit for bit.
                result = cached
                converged = True
                self._stats.fixed_point_reuses += 1
        if result is None:
            result, converged = self._fixed_point_fast(inputs, dt)
            self._stats.fixed_point_evaluations += 1
            if converged:
                if signature is None:
                    signature = self._runnable_signature(runnable, busy_threads, inputs)
                cache.store(signature, result, converged)
            else:
                cache.invalidate()
        self._warm_start = result
        if twins is not None:
            self._stats.twin_lane_epochs += len(twins.pairs)

        hit_latency = result.l3_hit_latency_cycles
        memory_latency = result.memory_latency_cycles
        inflation = result.private_inflation
        advance = self._advance_cursor
        row_deltas: List[Optional[EpochDeltas]] = []
        for (invocation, _, _), row, hit_fraction in zip(
            inputs.lanes, inputs.rows, _row_hits(result, inputs)
        ):
            if hit_fraction is None:
                row_deltas.append(None)
                continue
            row_deltas.append(
                advance(
                    invocation,
                    row[6],
                    hit_fraction * hit_latency + (1.0 - hit_fraction) * memory_latency,
                    1.0 - hit_fraction,
                    inflation,
                    row[5],
                    frequency_hz,
                )
            )
        finished = self._apply_deltas(runnable, inputs, row_deltas, dt, now)

        # The result is an exact fixed point and nothing changed the
        # runnable set this epoch (finish listeners can only fire on
        # completions, so no submissions happened either).  The fixed point
        # only carries over if no invocation crossed a phase boundary while
        # advancing — a new phase means a new resource profile and
        # therefore new demands.
        if not finished and converged and all(
            cursor.phase_index == phase_index
            for cursor, (_, phase_index, _) in zip(inputs.lane_cursors, signature[1])
        ):
            self._span_ready = True
            self._last_frequency_hz = frequency_hz
        return finished

    def run_for(self, seconds: float) -> None:
        """Advance the simulation by (at least) ``seconds``."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        target = self._time + seconds
        try:
            while self._time < target - 1e-12:
                self._run_epoch()
                if self._span_ready:
                    self._run_stable_span(target, 1e-12)
        finally:
            self._catch_up()

    def run_until(
        self,
        predicate: Callable[["SimulationEngine"], bool],
        max_seconds: float,
    ) -> bool:
        """Run epochs until ``predicate(self)`` holds or the budget expires.

        Returns ``True`` if the predicate was satisfied.  Predicates must be
        functions of state that only changes when an invocation starts or
        finishes (completion flags, driver ``done`` properties, ...): the
        fast path advances through stable stretches without re-evaluating
        the predicate, which is indistinguishable for such predicates
        because no invocation starts or finishes inside a stable stretch.
        Between catch-ups a twin lane's own cursor, counters and occupancy
        lag its leader's (:mod:`repro.platform.twins`), so a predicate that
        read them would see stale values; every twin is caught up before
        this returns and before a finish listener runs.
        """
        if max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        deadline = self._time + max_seconds
        try:
            while self._time < deadline:
                if predicate(self):
                    return True
                self._run_epoch()
                if self._span_ready:
                    self._run_stable_span(deadline, 0.0)
        finally:
            self._catch_up()
        return predicate(self)

    # ------------------------------------------------------------------ #
    # Fast path internals
    # ------------------------------------------------------------------ #
    def _runnable_signature(
        self,
        runnable: Runnable,
        busy_threads: int,
        inputs: _FixedPointInputs,
    ) -> RunnableSignature:
        return (
            busy_threads,
            tuple(
                (invocation.invocation_id, cursor.phase_index, occupancy)
                for (invocation, _, occupancy), cursor in zip(
                    runnable, inputs.lane_cursors
                )
            ),
        )

    def _steady_demands_hold(
        self, inputs: _FixedPointInputs, result: ContentionResult
    ) -> bool:
        """True when this epoch's fixed-point demands equal the cached ones.

        The demand an invocation generates stops matching the cached steady
        state only when its remaining instructions start binding the
        ``min()`` in :meth:`_fixed_point` — i.e. in its final epoch.  The
        check recomputes each row's per-epoch instruction intake from the
        cached result with the exact arithmetic the fixed point uses; a
        twin's intake is its leader's.
        """
        if None in inputs.lane_entries:
            # A lane without a current profile.
            return False
        hit_latency = result.l3_hit_latency_cycles
        memory_latency = result.memory_latency_cycles
        inflation = result.private_inflation
        for cursor, row, hit_fraction in zip(
            inputs.cursors, inputs.rows, _row_hits(result, inputs)
        ):
            if hit_fraction is None:
                return False
            _, _, mpki_per_inst, mlp, cpi_base, multiplier, cycles_available, _ = row
            stall_per_inst = mpki_per_inst * (
                (hit_fraction * hit_latency + (1.0 - hit_fraction) * memory_latency)
                / mlp
            )
            cpi_effective = cpi_base * inflation * multiplier + stall_per_inst
            if cycles_available / cpi_effective > cursor.instructions_remaining:
                return False
        return True

    def _run_stable_span(self, stop_time: float, epsilon: float) -> None:
        """Advance through the provably stable epochs after a stable epoch.

        Replicates, accumulator by accumulator, the exact float-addition
        sequence the epoch-by-epoch loop would perform, while skipping the
        re-derivation of per-epoch deltas (contention fixed point, CPI,
        phase lookups).  Stops ``_SPAN_MARGIN_EPOCHS`` short of the nearest
        phase boundary so boundary crossings — completions, probe-window
        edges, churn resubmissions — happen on the exact path.  The stable
        epoch left its runnable set and fixed-point inputs cached and its
        result as the warm start.  Each row's lane (a twin class's leader)
        replays its own accumulators; the machine's get one term per lane.
        """
        dt = self._config.epoch_seconds
        frequency_hz = self._last_frequency_hz
        multipliers = self._runnable_set[2]
        inputs = self._fixed_point_inputs
        if None in inputs.lane_entries:
            return
        result = self._warm_start
        hit_latency = result.l3_hit_latency_cycles
        memory_latency = result.memory_latency_cycles
        inflation = result.private_inflation

        states: List[_SpanInvocationState] = []
        max_epochs: Optional[int] = None
        for (invocation, share_seconds, occupancy), hit_fraction in zip(
            inputs.lanes, _row_hits(result, inputs)
        ):
            cursor = invocation.cursor
            profile = cursor.profile
            if profile is None or hit_fraction is None:
                return
            if (
                not invocation.is_traffic_generator
                and not invocation.startup_recorded
                and cursor.startup_complete
            ):
                return
            budget_cycles = share_seconds * frequency_hz
            if budget_cycles <= 1.0:
                return
            stall_per_instruction = (profile.l2_mpki / 1000.0) * (
                (hit_fraction * hit_latency + (1.0 - hit_fraction) * memory_latency)
                / profile.mlp
            )
            cpi_private = (
                profile.cpi_base * inflation * multipliers[invocation.invocation_id]
            )
            cpi_effective = cpi_private + stall_per_instruction
            retired = budget_cycles / cpi_effective
            if retired <= 0.0:
                return
            headroom = min(
                cursor.phase_instructions_remaining(), cursor.instructions_remaining
            )
            epochs_here = int(math.floor(headroom / retired)) - _SPAN_MARGIN_EPOCHS
            if epochs_here < 1:
                return
            if max_epochs is None or epochs_here < max_epochs:
                max_epochs = epochs_here
            cycles = retired * cpi_effective
            l2 = retired * profile.l2_mpki / 1000.0
            states.append(
                _SpanInvocationState(
                    invocation=invocation,
                    cursor=cursor,
                    retired=retired,
                    cycles=cycles,
                    stall=retired * stall_per_instruction,
                    l2=l2,
                    l3=l2 * (1.0 - hit_fraction),
                    occupied_seconds=cycles / frequency_hz,
                    has_switch=occupancy > 1,
                    occupancy=occupancy,
                )
            )
        if max_epochs is None:
            return

        # How many of those epochs the caller's time limit actually admits:
        # replicate the outer loop's `time < stop - epsilon` check against
        # the exact accumulated clock.
        clock = self._time
        epochs = 0
        while epochs < max_epochs and clock < stop_time - epsilon:
            clock += dt
            epochs += 1
        if epochs < 1:
            return

        # Shared (machine-wide) counters receive one addition per lane per
        # epoch, in collection order — replicate that interleaving.
        g = self._cpu.global_counters
        g_cycles = g.cycles
        g_instructions = g.instructions
        g_stall = g.stall_cycles_l2_miss
        g_l2 = g.l2_misses
        g_l3 = g.l3_misses
        g_switches = g.context_switches
        row_deltas = [
            (s.cycles, s.retired, s.stall, s.l2, s.l3, s.has_switch) for s in states
        ]
        deltas = [row_deltas[entry] for entry in inputs.lane_entries]
        for _ in range(epochs):
            for cycles, retired, stall, l2, l3, has_switch in deltas:
                g_cycles += cycles
                g_instructions += retired
                g_stall += stall
                g_l2 += l2
                g_l3 += l3
                if has_switch:
                    g_switches += 1.0
        g.cycles = g_cycles
        g.instructions = g_instructions
        g.stall_cycles_l2_miss = g_stall
        g.l2_misses = g_l2
        g.l3_misses = g_l3
        g.context_switches = g_switches
        g.elapsed_seconds = _repeat_add(g.elapsed_seconds, dt, epochs)

        # Per-invocation accumulators are independent of each other, so each
        # can replay its additions separately.
        for s in states:
            into_phase, retired_total = s.cursor.span_snapshot()
            s.cursor.span_restore(
                _repeat_add(into_phase, s.retired, epochs),
                _repeat_add(retired_total, s.retired, epochs),
            )
            c = s.invocation.counters
            c.cycles = _repeat_add(c.cycles, s.cycles, epochs)
            c.instructions = _repeat_add(c.instructions, s.retired, epochs)
            c.stall_cycles_l2_miss = _repeat_add(c.stall_cycles_l2_miss, s.stall, epochs)
            c.l2_misses = _repeat_add(c.l2_misses, s.l2, epochs)
            c.l3_misses = _repeat_add(c.l3_misses, s.l3, epochs)
            if s.has_switch:
                c.context_switches = _repeat_add(c.context_switches, 1.0, epochs)
            c.elapsed_seconds = _repeat_add(c.elapsed_seconds, s.occupied_seconds, epochs)
            s.invocation.span_observe_occupancy(s.occupancy, dt, epochs)

        self._time = clock
        self._stats.span_epochs += epochs
        self._stats.spans += 1
        # The runnable set is untouched, so the span state stays valid; the
        # next `run_epoch` will reuse the cached penalties through the
        # signature cache and step the boundary epochs exactly.

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _collect_runnable(self, dt: float) -> Tuple[Runnable, int, Dict[int, float]]:
        """Runnable triples, busy-thread count and private multipliers.

        A lane's private-execution multiplier (temporal sharing times SMT
        inflation) depends only on its thread, since every queued
        invocation was started on the thread whose queue holds it, so each
        busy thread derives it once.
        """
        runnable: Runnable = []
        multipliers: Dict[int, float] = {}
        busy_threads = 0
        invocations = self._invocations
        running = InvocationState.RUNNING
        for thread in self._threads:
            if not thread.run_queue:
                continue
            busy_threads += 1
            occupancy = len(thread.run_queue)
            share = dt / occupancy
            multiplier = self._switching_overhead.factor(occupancy)
            multiplier *= self._cpu.smt_private_penalty(thread.thread_id)
            for invocation_id in list(thread.run_queue):
                invocation = invocations[invocation_id]
                if invocation.state is running:
                    runnable.append((invocation, share, occupancy))
                    multipliers[invocation_id] = multiplier
        return runnable, busy_threads, multipliers

    def _fixed_point(
        self,
        runnable: Sequence[Tuple[Invocation, float, int]],
        frequency_hz: float,
        dt: float,
        multipliers: Dict[int, float],
    ) -> Tuple[Dict[int, SharedResourcePenalty], bool]:
        """Iterate the contention model; report exact convergence.

        Returns ``(penalties, converged)`` where ``converged`` means the
        epoch reproduced its own warm start bit for bit: the returned map is
        an exact float fixed point of the whole per-epoch iteration, so the
        next epoch with identical demands would return the same map.  (This
        is deliberately checked against the epoch's *input* rather than the
        last iteration's, so a fixed point of the composed iterations — e.g.
        a period-two oscillation of the single iteration — still counts.)
        """
        machine = self._cpu.machine
        penalties: Dict[int, SharedResourcePenalty] = dict(self._penalty_cache)
        initial: Dict[int, SharedResourcePenalty] = penalties
        for _ in range(self._config.fixed_point_iterations):
            demands: List[WorkloadDemand] = []
            for invocation, share_seconds, occupancy in runnable:
                profile = invocation.cursor.current_profile
                if profile is None:
                    continue
                penalty = penalties.get(invocation.invocation_id)
                if penalty is None:
                    stall_per_inst = profile.solo_stall_cycles_per_instruction(
                        machine.l3.latency_cycles, machine.memory_latency_cycles
                    )
                    private_inflation = 1.0
                else:
                    stall_per_inst = (profile.l2_mpki / 1000.0) * (
                        penalty.stall_cycles_per_l2_miss(profile.mlp)
                    )
                    private_inflation = penalty.private_inflation
                cpi_private = (
                    profile.cpi_base
                    * private_inflation
                    * multipliers[invocation.invocation_id]
                )
                cpi_effective = cpi_private + stall_per_inst
                cycles_available = share_seconds * frequency_hz
                instructions = min(
                    cycles_available / cpi_effective,
                    invocation.cursor.instructions_remaining,
                )
                l2_miss_rate = instructions * profile.l2_mpki / 1000.0 / dt
                demands.append(
                    WorkloadDemand(
                        workload_id=invocation.invocation_id,
                        l2_miss_rate=l2_miss_rate,
                        working_set_mb=profile.working_set_mb,
                        solo_l3_hit_fraction=profile.solo_l3_hit_fraction,
                        mlp=profile.mlp,
                    )
                )
            penalties = dict(self._cpu.contention.evaluate(demands))
        converged = all(
            initial.get(workload_id) == penalty
            for workload_id, penalty in penalties.items()
        )
        return penalties, converged

    def _fixed_point_fast(
        self, inputs: _FixedPointInputs, dt: float
    ) -> Tuple[ContentionResult, bool]:
        """Bit-identical replica of :meth:`_fixed_point` with hoisted state.

        Everything an iteration reads except the remaining instructions and
        the warm start — each row's profile fields, cycle budget, multiplier
        and solo stall, and the :class:`ContentionPlan` — is ``inputs``
        (:meth:`_current_fixed_point_inputs`).  An epoch reads each row's
        remaining instructions once; an iteration computes one L2-miss rate
        per row and evaluates the plan at those rates
        (:meth:`ContentionModel.evaluate_tuples`), reading row *i*'s hit
        fraction from entry *i* of the previous result, and
        :meth:`ContentionResult.reproduces` decides exact convergence.  With
        twin classes there is one row per class and the plan expands it to
        every lane of the class.  Every arithmetic expression keeps the
        reference implementation's operand order.  Behavioural changes go
        into :meth:`_fixed_point` first.
        """
        rows = [
            (row, cursor.instructions_remaining)
            for row, cursor in zip(inputs.rows, inputs.cursors)
        ]
        plan = inputs.plan
        initial = self._warm_start
        result = initial
        evaluate_tuples = self._cpu.contention.evaluate_tuples
        for _ in range(self._config.fixed_point_iterations):
            hit_latency = result.l3_hit_latency_cycles
            memory_latency = result.memory_latency_cycles
            inflation = result.private_inflation
            rates = []
            for (row, remaining), hit_fraction in zip(rows, _row_hits(result, inputs)):
                (_, l2_mpki, mpki_per_inst, mlp, cpi_base, multiplier,
                 cycles_available, solo_stall_per_inst) = row
                if hit_fraction is None:
                    stall_per_inst = solo_stall_per_inst
                    private_inflation = 1.0
                else:
                    stall_per_inst = mpki_per_inst * (
                        (hit_fraction * hit_latency + (1.0 - hit_fraction) * memory_latency)
                        / mlp
                    )
                    private_inflation = inflation
                cpi_effective = cpi_base * private_inflation * multiplier + stall_per_inst
                # min(possible, remaining), as the builtin resolves it.
                instructions = cycles_available / cpi_effective
                if remaining < instructions:
                    instructions = remaining
                rates.append(instructions * l2_mpki / 1000.0 / dt)
            result = evaluate_tuples(rates, plan)
        return result, result.reproduces(initial)

    def _current_fixed_point_inputs(
        self,
        runnable: Runnable,
        twins: Optional[TwinClasses],
        frequency_hz: float,
        multipliers: Dict[int, float],
    ) -> _FixedPointInputs:
        """The cached inputs, refreshed for this epoch.

        They are built afresh after a runnable-set or contention-model
        change, at a new frequency, and when a row's lane lost its profile
        or its footprint flag (``working_set_mb > 0``) flipped.  A row whose
        lane crossed into another phase otherwise gets a new row and plan
        entry in place, and the plan keeps its lane map.
        """
        inputs = self._fixed_point_inputs
        if inputs is None or inputs.frequency_hz != frequency_hz:
            return self._build_fixed_point_inputs(
                runnable, twins, frequency_hz, multipliers
            )
        for cursor, profile in zip(inputs.cursors, inputs.profiles):
            if cursor.profile is not profile:
                break
        else:
            return inputs
        changed: Dict[int, tuple] = {}
        profiles = inputs.profiles
        for position, cursor in enumerate(inputs.cursors):
            profile = cursor.profile
            old = profiles[position]
            if profile is old:
                continue
            if profile is None or (profile.working_set_mb > 0) != (old.working_set_mb > 0):
                return self._build_fixed_point_inputs(
                    runnable, twins, frequency_hz, multipliers
                )
            lane = inputs.lanes[position]
            profiles[position] = profile
            inputs.rows[position] = self._fixed_point_row(lane, frequency_hz, multipliers)
            changed[position] = (
                lane[0].invocation_id, profile.working_set_mb, profile.solo_l3_hit_fraction
            )
        inputs.plan = self._cpu.contention.refresh(inputs.plan, changed)
        return inputs

    def _build_fixed_point_inputs(
        self,
        runnable: Runnable,
        twins: Optional[TwinClasses],
        frequency_hz: float,
        multipliers: Dict[int, float],
    ) -> _FixedPointInputs:
        """Build and cache :meth:`_fixed_point_fast`'s inputs."""
        if twins is None:
            lanes: Runnable = []
            lane_entries: List[Optional[int]] = []
            for lane in runnable:
                if lane[0].cursor.profile is None:
                    lane_entries.append(None)
                else:
                    lane_entries.append(len(lanes))
                    lanes.append(lane)
        else:
            lanes = twins.leaders
            lane_entries = twins.lane_classes
        profiles = [invocation.cursor.profile for invocation, _, _ in lanes]
        rows = [self._fixed_point_row(lane, frequency_hz, multipliers) for lane in lanes]
        entries = [
            (row[0], profile.working_set_mb, profile.solo_l3_hit_fraction)
            for row, profile in zip(rows, profiles)
        ]
        contention = self._cpu.contention
        if twins is None:
            plan = contention.plan(entries)
        else:
            plan = contention.plan(entries, twins.classes, twins.workload_ids)
        lane_cursors = [
            invocation.cursor if entry is None else lanes[entry][0].cursor
            for (invocation, _, _), entry in zip(runnable, lane_entries)
        ]
        inputs = _FixedPointInputs(
            frequency_hz, lanes, profiles, rows, plan, lane_entries, lane_cursors
        )
        self._fixed_point_inputs = inputs
        return inputs

    def _fixed_point_row(
        self,
        lane: Tuple[Invocation, float, int],
        frequency_hz: float,
        multipliers: Dict[int, float],
    ) -> tuple:
        """One row of :class:`_FixedPointInputs` for ``lane`` in its phase."""
        invocation, share_seconds, _ = lane
        profile = invocation.cursor.profile
        machine = self._cpu.machine
        l2_mpki = profile.l2_mpki
        return (
            invocation.invocation_id,
            l2_mpki,
            l2_mpki / 1000.0,
            profile.mlp,
            profile.cpi_base,
            multipliers[invocation.invocation_id],
            share_seconds * frequency_hz,
            profile.solo_stall_cycles_per_instruction(
                machine.l3.latency_cycles, machine.memory_latency_cycles
            ),
        )

    def _advance_cursor(
        self,
        invocation: Invocation,
        budget_cycles: float,
        hit_term: float,
        miss_fraction: float,
        inflation: float,
        multiplier: float,
        frequency_hz: float,
    ) -> EpochDeltas:
        """Advance one invocation's cursor through one epoch; return its deltas.

        With :meth:`_apply_deltas`, a bit-identical replica of
        :meth:`_advance_invocation`.  Takes the epoch's cycle budget and the
        penalty terms the caller derived once per invocation (``hit_term``
        is the hit-latency-weighted sum
        :meth:`SharedResourcePenalty.stall_cycles_per_l2_miss` divides by the
        MLP) and accumulates each delta in the reference implementation's
        addition order.  Behavioural changes go into
        :meth:`_advance_invocation` first.
        """
        cursor = invocation.cursor
        total_cycles = 0.0
        total_instructions = 0.0
        total_stall = 0.0
        total_l2 = 0.0
        total_l3 = 0.0
        # Field reads of ``not is_traffic_generator and not startup_recorded``.
        watch_startup = (
            invocation.startup_counters is None
            and not invocation.spec.is_traffic_generator
        )

        profile = cursor.profile
        while budget_cycles > 1.0 and profile is not None:
            stall_per_instruction = (profile.l2_mpki / 1000.0) * (hit_term / profile.mlp)
            cpi_effective = (
                profile.cpi_base * inflation * multiplier + stall_per_instruction
            )
            retired = cursor.advance(budget_cycles / cpi_effective)
            if retired <= 0:
                break
            cycles = retired * cpi_effective
            total_cycles += cycles
            total_instructions += retired
            total_stall += retired * stall_per_instruction
            l2_misses = retired * profile.l2_mpki / 1000.0
            total_l2 += l2_misses
            total_l3 += l2_misses * miss_fraction
            budget_cycles -= cycles
            if watch_startup and cursor.startup_complete:
                break
            profile = cursor.profile
        return (
            total_cycles,
            total_instructions,
            total_stall,
            total_l2,
            total_l3,
            total_cycles / frequency_hz,
        )

    def _apply_deltas(
        self,
        runnable: Runnable,
        inputs: _FixedPointInputs,
        row_deltas: List[Optional[EpochDeltas]],
        dt: float,
        now: float,
    ) -> List[Invocation]:
        """Add each lane's epoch deltas to its own and the machine's counters.

        With :meth:`_advance_cursor`, a bit-identical replica of
        :meth:`_advance_invocation` and the probe-window bookkeeping of its
        caller.  ``row_deltas`` holds one entry per row of ``inputs``,
        ``None`` for a row that did not advance; each lane takes its row's.
        Every machine accumulator gets one addition per lane, in runnable
        order.  A twin adds nothing to its own accumulators: its leader
        accumulates for the class until the twin catches up
        (:meth:`_catch_up`), and it finishes when its leader does.  The
        invocation counters and occupancy accumulators take direct attribute
        additions (``PMUCounters.observe`` and
        ``Invocation.observe_occupancy`` validate already valid values on
        every call, which is pure overhead on this path); the machine counters
        run in locals, written back before a probe-window snapshot reads
        them and at the end, so the split from :meth:`_advance_cursor`
        costs a lane no extra call.  Returns the invocations that finished,
        in runnable order.
        """
        machine = self._cpu.global_counters
        machine_cycles = machine.cycles
        machine_instructions = machine.instructions
        machine_stall = machine.stall_cycles_l2_miss
        machine_l2 = machine.l2_misses
        machine_l3 = machine.l3_misses
        machine_switches = machine.context_switches
        leaders = inputs.lanes
        finished: List[Invocation] = []
        for (invocation, _, occupancy), entry in zip(runnable, inputs.lane_entries):
            if entry is None:
                continue
            deltas = row_deltas[entry]
            if deltas is None:
                continue
            cycles, instructions, stall, l2_misses, l3_misses, occupied_seconds = deltas
            machine_cycles += cycles
            machine_instructions += instructions
            machine_stall += stall
            machine_l2 += l2_misses
            machine_l3 += l3_misses
            if occupancy > 1:
                machine_switches += 1.0
            leader = leaders[entry][0]
            if leader is not invocation:
                # A twin: its leader accumulates for it until it catches up.
                if leader.cursor.profile is None:
                    finished.append(invocation)
                continue
            counters = invocation.counters
            counters.cycles += cycles
            counters.instructions += instructions
            counters.stall_cycles_l2_miss += stall
            counters.l2_misses += l2_misses
            counters.l3_misses += l3_misses
            if occupancy > 1:
                counters.context_switches += 1.0
            counters.elapsed_seconds += occupied_seconds
            invocation.occupancy_weighted_sum += occupancy * dt
            invocation.occupancy_weight += dt

            cursor = invocation.cursor
            if (
                invocation.startup_counters is None
                and not invocation.spec.is_traffic_generator
                and cursor.startup_complete
            ):
                machine.cycles = machine_cycles
                machine.instructions = machine_instructions
                machine.stall_cycles_l2_miss = machine_stall
                machine.l2_misses = machine_l2
                machine.l3_misses = machine_l3
                machine.context_switches = machine_switches
                invocation.record_startup_completion(now, machine.snapshot())
            if cursor.profile is None:
                finished.append(invocation)
        machine.cycles = machine_cycles
        machine.instructions = machine_instructions
        machine.stall_cycles_l2_miss = machine_stall
        machine.l2_misses = machine_l2
        machine.l3_misses = machine_l3
        machine.context_switches = machine_switches
        return finished

    def _advance_invocation(
        self,
        invocation: Invocation,
        share_seconds: float,
        occupancy: int,
        penalty: SharedResourcePenalty,
        frequency_hz: float,
        dt: float,
        multiplier: float,
    ) -> None:
        budget_cycles = share_seconds * frequency_hz
        total_cycles = 0.0
        total_instructions = 0.0
        total_stall = 0.0
        total_l2 = 0.0
        total_l3 = 0.0

        while budget_cycles > 1.0 and not invocation.cursor.finished:
            profile = invocation.cursor.current_profile
            assert profile is not None  # finished is checked above
            stall_per_instruction = (profile.l2_mpki / 1000.0) * (
                penalty.stall_cycles_per_l2_miss(profile.mlp)
            )
            cpi_private = (
                profile.cpi_base
                * penalty.private_inflation
                * multiplier
            )
            cpi_effective = cpi_private + stall_per_instruction
            instructions_possible = budget_cycles / cpi_effective
            retired = invocation.cursor.advance(instructions_possible)
            if retired <= 0:
                break
            cycles = retired * cpi_effective
            total_cycles += cycles
            total_instructions += retired
            total_stall += retired * stall_per_instruction
            l2_misses = retired * profile.l2_mpki / 1000.0
            total_l2 += l2_misses
            total_l3 += l2_misses * (1.0 - penalty.l3_hit_fraction)
            budget_cycles -= cycles
            # Stop at the startup/body boundary so the Litmus-probe window is
            # measured exactly over the startup instructions: spilling body
            # work into the snapshot would bias the probe for functions with
            # short startups.  The remaining epoch budget is forfeited once
            # per invocation, which is negligible.
            if (
                not invocation.is_traffic_generator
                and not invocation.startup_recorded
                and invocation.cursor.startup_complete
            ):
                break

        occupied_seconds = total_cycles / frequency_hz
        context_switches = 1.0 if occupancy > 1 else 0.0
        invocation.counters.observe(
            cycles=total_cycles,
            instructions=total_instructions,
            stall_cycles_l2_miss=total_stall,
            l2_misses=total_l2,
            l3_misses=total_l3,
            context_switches=context_switches,
            elapsed_seconds=occupied_seconds,
        )
        self._cpu.global_counters.observe(
            cycles=total_cycles,
            instructions=total_instructions,
            stall_cycles_l2_miss=total_stall,
            l2_misses=total_l2,
            l3_misses=total_l3,
            context_switches=context_switches,
        )
        invocation.observe_occupancy(occupancy, dt)

    def _catch_up(self) -> None:
        """Copy each twin's progress from its leader
        (:mod:`repro.platform.twins`); the runnable set stays."""
        runnable_set = self._runnable_set
        if runnable_set is not None and runnable_set[3] is not None:
            for twin, leader in runnable_set[3].pairs:
                twin.take_progress(leader)

    def _finish(self, invocation: Invocation) -> None:
        self._span_ready = False
        self._catch_up()
        self._runnable_set = None
        thread_id = invocation.thread_id
        if thread_id is not None:
            self._cpu.thread(thread_id).dequeue(invocation.invocation_id)
        invocation.mark_finished(self._time)
        self._completed.append(invocation)
        if invocation.is_traffic_generator:
            self._running_generators -= 1
        for listener in list(self._finish_listeners):
            listener(invocation, self)
