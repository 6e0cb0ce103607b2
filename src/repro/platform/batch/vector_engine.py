"""NumPy-vectorized fleet simulation backend.

The scalar :class:`repro.platform.engine.SimulationEngine` advances one
machine invocation-by-invocation in pure Python; that is the right tool for
the bit-exact committed figures, but it caps out far below the fleet scales
the roadmap asks for.  :class:`VectorEngine` represents an entire fleet —
many independent sharing domains ("machines") and every invocation running
on them — as NumPy arrays and evaluates the contention fixed point plus the
epoch advancement for *all* of them in one vectorized pass per epoch.

Semantics mirror the scalar engine's slow path operation for operation:

* every epoch, each runnable invocation receives ``dt / occupancy`` of its
  hardware thread (temporal sharing) times the temporal-switching
  multiplier,
* the contention fixed point iterates ``fixed_point_iterations`` times,
  warm-started from the previous epoch's penalties, with the cache
  water-fill, ring and memory queueing models applied per machine,
* invocations advance through their phase lists, splitting consumed cycles
  into private and L2-miss-stalled cycles and accumulating per-invocation
  and per-machine counters,
* startup (Litmus probe) windows and completions are detected at the same
  epoch boundaries, and completions fire finish listeners so the scalar
  drivers (``RepeatingSubmitter``, ``ChurnManager``) can be reused
  unchanged.

Per-invocation arithmetic keeps the scalar implementation's operand order,
and per-machine reductions use ``np.bincount`` (a sequential left-to-right
fold per bin, like the scalar sums), so vector and scalar runs agree to
float rounding noise — the property tests assert agreement at rtol=1e-9.
The backend is *not* bit-exact (summation orders differ at a few points by
design); the committed ``results/*.txt`` stay on the scalar engine.

A small fleet is bound by NumPy's per-call overhead (about a microsecond a
call at 73 lanes), not by arithmetic, so an epoch keeps its call count
low: each invocation's float state is one column of one block
(``_state``), gathered with one ``take`` and written back with one
scatter; phase profiles come from one flat table with one ``take``; an
advancement pass gathers and scatters its lanes once; the machine
counters fold in one offset ``np.bincount``.  What an epoch derives from
the thread layout alone (machines, frequencies, cycle budgets, switching
multipliers) is one lane plan, rebuilt only when a run-queue length or a
frequency scale changes, so churn that resubmits on the finishing thread
reuses it.  The utility-curve ``pow`` is one ``math.pow`` per lane below
``_DEDUPE_POW_LANES`` lanes (72-76 in the stream-billing benchmark), and
at or above it once per distinct coverage value (327 of 5,760 lanes in
fleet-sweep), where sorting out the repeats costs less than the libm calls
it saves.  docs/backends.md gives measured per-epoch costs.

Limitations (gated with explicit errors): SMT sharing domains are not
supported; randomness must live outside the engine, exactly as with the
scalar engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.hardware.frequency import FrequencyGovernor, FrequencyPolicy
from repro.hardware.contention import ContentionModel, ContentionParameters
from repro.hardware.pmu import CounterSnapshot
from repro.hardware.topology import MachineSpec
from repro.platform.invoker import Invocation
from repro.platform.sandbox import Sandbox
from repro.platform.scheduler import SwitchingOverheadModel
from repro.workloads.function import FunctionSpec

#: Rows of ``VectorEngine._state``, the per-invocation float state (one
#: column per invocation): instructions into the current phase and in
#: total, the last epoch's contention penalties (L3 hit fraction, L3 hit
#: latency, memory latency, private-cache inflation), the seven counters in
#: ``CounterSnapshot`` field order from ``_CTR`` on, the occupancy-weighted
#: time and its weight, the spec's total instructions, and the retired
#: instructions at which the startup (Litmus probe) window closes —
#: infinite when none is watched.
_INTO, _RETIRED, _HIT, _HIT_LATENCY, _MEM_LATENCY, _INFLATION, _CTR = range(7)
_OCC_WEIGHTED, _OCC_WEIGHT, _TOTAL, _PROBE_END = range(_CTR + 7, _CTR + 11)

#: The per-invocation arrays, one column per invocation (last axis).
_COLUMN_ARRAYS = (
    "spec_idx",
    "machine_of",
    "gthread",
    "active",
    "phase_column",
    "end_column",
    "_state",
)

#: Lane count from which ``_water_fill`` takes the utility curve's ``pow``
#: once per distinct coverage value instead of once per lane.  Finding the
#: distinct values costs about a dozen NumPy calls; below this many lanes
#: the libm calls they save cost less (docs/backends.md has the timings).
_DEDUPE_POW_LANES = 256

#: Listener called when an invocation completes.  Receives the materialized
#: :class:`Invocation` handle (or the bare invocation index when the engine
#: was built with ``materialize_handles=False``) and the engine.
VectorFinishListener = Callable[[object, "VectorEngine"], None]


@dataclass(frozen=True)
class VectorEngineConfig:
    """Time-stepping parameters (mirrors the scalar ``EngineConfig``)."""

    epoch_seconds: float = 1e-3
    fixed_point_iterations: int = 2

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.fixed_point_iterations < 1:
            raise ValueError("fixed_point_iterations must be >= 1")


@dataclass
class VectorEngineStats:
    """Observability counters for the vectorized backend."""

    epochs: int = 0
    fixed_point_iterations: int = 0
    advance_passes: int = 0
    submissions: int = 0
    completions: int = 0
    #: Lane plans built: one each time an epoch steps under a changed thread
    #: layout (run-queue lengths), after a frequency-scale change, or after
    #: a restore.
    lane_plans: int = 0


class _LanePlan(NamedTuple):
    """What an epoch derives from the thread layout, by runnable position:
    the machine, the frequency, the cycle budget (``dt / occupancy *
    frequency``), the switching multiplier, the context-switch row
    (``occupancy > 1``), the occupancy-weighted epoch (``occupancy * dt``),
    the bins of the machine counters' offset ``np.bincount``, and whether
    every budget exceeds one cycle (then the first advancement pass needs
    no gather).

    Runnable positions visit the threads in order, so equal run-queue
    lengths put every position on the same thread and machine, and the plan
    stays valid while churn swaps the invocations on them.
    """

    m_of: np.ndarray
    frequency: np.ndarray
    cycles_available: np.ndarray
    multiplier: np.ndarray
    switches: np.ndarray
    occupied_dt: np.ndarray
    counter_bins: np.ndarray
    full_budgets: bool


class _SpecTable:
    """Per-phase profiles of every distinct function spec.

    Each spec's phases occupy consecutive columns of :attr:`profiles`,
    starting at ``first_column[spec]``; columns are only ever appended, so
    a column number stays valid for the life of the table.
    """

    def __init__(self) -> None:
        self._index: Dict[FunctionSpec, int] = {}
        self._by_id: Dict[int, int] = {}
        #: Keeps every id-cached spec object alive so ids cannot recycle.
        self._keepalive: List[FunctionSpec] = []
        self.specs: List[FunctionSpec] = []
        self.first_column: List[int] = []
        self.max_phases = 0
        #: Rows: cpi_base, l2_mpki, working_set_mb, solo_l3_hit_fraction,
        #: mlp, phase instructions.
        self.profiles: np.ndarray = np.zeros((6, 0))

    def intern(self, spec: FunctionSpec) -> int:
        # Keyed by object identity first: churn drivers resubmit the same
        # spec objects over and over, and hashing a FunctionSpec walks its
        # whole phase list.
        index = self._by_id.get(id(spec))
        if index is not None:
            return index
        index = self._index.get(spec)
        if index is None:
            if not spec.phases:
                raise ValueError(
                    f"function {spec.name!r} has no phases; the vector engine "
                    "requires at least one"
                )
            index = len(self.specs)
            self._index[spec] = index
            self.specs.append(spec)
            self.first_column.append(self.profiles.shape[1])
            self.max_phases = max(self.max_phases, len(spec.phases))
            columns = [
                (
                    phase.profile.cpi_base,
                    phase.profile.l2_mpki,
                    phase.profile.working_set_mb,
                    phase.profile.solo_l3_hit_fraction,
                    phase.profile.mlp,
                    phase.instructions,
                )
                for phase in spec.phases
            ]
            self.profiles = np.concatenate((self.profiles, np.array(columns).T), axis=1)
        self._by_id[id(spec)] = index
        self._keepalive.append(spec)
        return index

    def __getstate__(self) -> Dict[str, object]:
        # ``_by_id`` keys on ``id(spec)``; after unpickling every spec is a
        # new object, so stale ids could alias fresh ones and corrupt the
        # interning.  Drop the cache — ``intern`` repopulates it lazily via
        # the hash-based ``_index`` lookup (same indices, same columns).
        state = self.__dict__.copy()
        state["_by_id"] = {}
        return state


class _VectorThreadView:
    """Occupancy view of one hardware thread (duck-types ``HardwareThread``)."""

    __slots__ = ("_engine", "_gthread")

    def __init__(self, engine: "VectorEngine", gthread: int) -> None:
        self._engine = engine
        self._gthread = gthread

    @property
    def occupancy(self) -> int:
        return len(self._engine._queues[self._gthread])

    @property
    def is_busy(self) -> bool:
        return self.occupancy > 0


class _VectorCPUFacade:
    """Minimal ``CPU`` facade so scalar drivers can query thread occupancy.

    Thread ids are machine-local ids of machine 0 — the facade exists for
    the single-machine harness adapters that reuse ``RepeatingSubmitter``
    and ``ChurnManager`` against a :class:`VectorEngine`.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "VectorEngine") -> None:
        self._engine = engine

    @property
    def machine(self) -> MachineSpec:
        return self._engine.machine

    def thread(self, thread_id: int) -> _VectorThreadView:
        if not 0 <= thread_id < self._engine.threads_per_machine:
            raise KeyError(f"no hardware thread with id {thread_id}")
        return _VectorThreadView(self._engine, thread_id)


class VectorEngine:
    """Batched epoch engine over a fleet of independent machines.

    Construction parameters: ``machine`` describes the hardware every
    fleet machine shares; ``machines`` is the fleet size (each machine is
    an independent sharing domain); ``threads_per_machine`` defaults to
    the machine's core count (SMT domains are rejected — scalar-only);
    ``materialize_handles`` chooses between full
    :class:`~repro.platform.invoker.Invocation` handles (scalar-adapter
    compatible) and bare integer indices (cheaper at fleet scale, columns
    recycled after completion); ``initial_capacity`` pre-sizes the arrays.

    Drive it like the scalar engine: :meth:`submit` invocations, attach
    :meth:`add_finish_listener` callbacks, advance with :meth:`run_for` /
    :meth:`run_until`, read results via :meth:`machine_counters`,
    :attr:`completed`, and :attr:`stats`.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        machines: int = 1,
        threads_per_machine: Optional[int] = None,
        config: Optional[VectorEngineConfig] = None,
        switching_overhead: Optional[SwitchingOverheadModel] = None,
        contention_parameters: Optional[ContentionParameters] = None,
        frequency_policy: FrequencyPolicy = FrequencyPolicy.FIXED,
        materialize_handles: bool = True,
        initial_capacity: int = 1024,
    ) -> None:
        if machines < 1:
            raise ValueError("machines must be >= 1")
        self._machine = machine
        self._machines = machines
        self._threads_per_machine = (
            machine.cores if threads_per_machine is None else threads_per_machine
        )
        if self._threads_per_machine < 1:
            raise ValueError("threads_per_machine must be >= 1")
        self._config = config or VectorEngineConfig()
        self._switching = switching_overhead or SwitchingOverheadModel()
        self._parameters = contention_parameters or ContentionParameters()
        self._frequency_policy = frequency_policy
        self._materialize = materialize_handles
        self._time = 0.0
        self._stats = VectorEngineStats()
        self._specs = _SpecTable()
        self._finish_listeners: List[VectorFinishListener] = []
        self._cpu_facade = _VectorCPUFacade(self)

        total_threads = machines * self._threads_per_machine
        self._queues: List[List[int]] = [[] for _ in range(total_threads)]
        self._order: np.ndarray = np.zeros(0, dtype=np.int64)
        self._order_dirty = True
        # The lane plan of the current thread layout, and that layout (each
        # thread's run-queue length); see ``_lane_plan``.
        self._plan: Optional[_LanePlan] = None
        self._layout: Optional[Tuple[int, ...]] = None

        # Derived machine constants.
        self._capacity_mb = machine.l3.size_mb
        self._line_size = float(machine.line_size_bytes)
        self._l3_latency = machine.l3.latency_cycles
        self._memory_latency = machine.memory_latency_cycles
        # Ring (row 0) and memory (row 1) constants, shaped to broadcast
        # over per-machine rows; ``set_contention_parameters`` adds the
        # queueing coefficients.
        self._peaks = np.array(
            [
                [machine.ring_peak_accesses_per_us * 1e6],
                [machine.memory_bandwidth_gbs * 1e9],
            ]
        )
        self._base_latency = np.array([[self._l3_latency], [self._memory_latency]])
        self.set_contention_parameters(self._parameters)
        self._switch_factors: Dict[int, float] = {}
        self._switch_table: Optional[np.ndarray] = None
        self._governor = FrequencyGovernor(machine=machine, policy=frequency_policy)
        self._turbo_cache: Dict[int, float] = {}
        self._fixed_frequency = np.full(machines, machine.base_frequency_ghz * 1e9)
        # Fault-injection hook: per-machine frequency multiplier.  ``None``
        # (every machine healthy) keeps the fault-free path untouched.
        self._freq_scale: Optional[np.ndarray] = None

        # Per-machine accumulators (the machine-wide PMU view): the first
        # six counters in ``CounterSnapshot`` field order, one row each.
        self._m_counters = np.zeros((6, machines))
        self._m_elapsed = np.zeros(machines)
        #: Offsets that send counter row ``r`` of machine ``m`` to bin
        #: ``r * machines + m`` of one ``np.bincount``.
        self._counter_bins = np.arange(6)[:, None] * machines

        # Per-invocation state arrays, grown by doubling.  In
        # non-materialized mode finished columns go onto a free list and are
        # reused, so a long churn sweep's footprint is bounded by the peak
        # *active* fleet, not by total completions; materialized handles keep
        # unique invocation ids for the scalar drivers, so there columns are
        # append-only (figure-scale runs are bounded anyway).
        self._count = 0
        self._next_sandbox_id = 0
        self._free: List[int] = []
        self.spec_idx = np.zeros(0, dtype=np.int64)
        self.machine_of = np.zeros(0, dtype=np.int64)
        self.gthread = np.zeros(0, dtype=np.int64)
        self.active = np.zeros(0, dtype=bool)
        #: Profile-table column of the current phase, and one past the last.
        self.phase_column = np.zeros(0, dtype=np.int64)
        self.end_column = np.zeros(0, dtype=np.int64)
        self._state = np.zeros((_PROBE_END + 1, 0))
        self._grow(max(initial_capacity, 16))
        self._handles: List[Optional[Invocation]] = []
        self._completed: List[object] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def machine(self) -> MachineSpec:
        """The hardware description every machine of the fleet shares."""
        return self._machine

    @property
    def machines(self) -> int:
        """Number of independent sharing domains in the fleet."""
        return self._machines

    @property
    def threads_per_machine(self) -> int:
        """Hardware threads hosting functions on each machine."""
        return self._threads_per_machine

    @property
    def config(self) -> VectorEngineConfig:
        """Time-stepping parameters (epoch length, fixed-point iterations)."""
        return self._config

    @property
    def time_seconds(self) -> float:
        """Simulated time elapsed since construction."""
        return self._time

    @property
    def stats(self) -> VectorEngineStats:
        """Observability counters (epochs, submissions, completions, …)."""
        return self._stats

    @property
    def cpu(self) -> _VectorCPUFacade:
        """CPU facade for scalar drivers (single-machine adapters only)."""
        return self._cpu_facade

    @property
    def active_count(self) -> int:
        """Invocations currently running anywhere in the fleet."""
        return int(np.count_nonzero(self.active[: self._count]))

    @property
    def completed(self) -> List[object]:
        """Finished ``Invocation`` handles (materialized mode only).

        Non-materialized engines recycle finished columns and count
        completions in ``stats.completions`` instead of retaining them.
        """
        return list(self._completed)

    def machine_counters(self, machine: int = 0) -> CounterSnapshot:
        """Machine-wide counter snapshot (the Litmus-test view)."""
        return CounterSnapshot(
            *self._m_counters[:, machine].tolist(),
            elapsed_seconds=float(self._m_elapsed[machine]),
        )

    @property
    def fleet_shared_stall_fraction(self) -> float:
        """Fleet-wide shared-resource stall share: stall cycles / cycles.

        A cheap read over the already-maintained counter arrays — the
        per-epoch telemetry samplers use it (repro.obs.series), so it
        must never mutate state.
        """
        cycles = float(self._m_counters[0].sum())
        if cycles <= 0.0:
            return 0.0
        return float(self._m_counters[2].sum()) / cycles

    def set_frequency_scale(self, machines, scale: float) -> None:
        """Scale selected machines' operating frequency from now on.

        The ``freq-throttle`` fault hook: ``machines`` is one machine index
        or an iterable of them, ``scale`` the multiplier applied on top of
        the governed (fixed or turbo) frequency.  Restoring every machine
        to 1.0 drops the scale array entirely, so a healthy fleet pays
        nothing — and unthrottled machines are untouched even while others
        are throttled (``x * 1.0`` is exact in IEEE-754).
        """
        if scale <= 0:
            raise ValueError("frequency scale must be positive")
        if isinstance(machines, int):
            machines = (machines,)
        if self._freq_scale is None:
            if scale == 1.0:
                return
            self._freq_scale = np.ones(self._machines)
        # The lane plan holds the scaled frequencies.
        self._plan = None
        for machine in machines:
            if not 0 <= machine < self._machines:
                raise ValueError(f"machine index {machine} out of range")
            self._freq_scale[machine] = scale
        if not np.count_nonzero(self._freq_scale != 1.0):
            self._freq_scale = None

    def set_contention_parameters(
        self, parameters: Optional[ContentionParameters]
    ) -> None:
        """Apply new contention-model coefficients from now on.

        The hardware-drift hook (see :mod:`repro.calibrate.drift`), the
        vector twin of :meth:`SimulationEngine.set_contention_parameters`:
        the fleet keeps its state but every subsequent epoch's fixed point
        evaluates under the new coefficients.  The derived per-epoch
        constants are recomputed here; nothing else in the engine bakes
        them in, so both backends stay in lockstep when drift is applied
        at the same segment boundary.  Coefficients the scalar
        :class:`ContentionModel` refuses raise its ``ValueError``.
        """
        self._parameters = ContentionModel(self._machine, parameters).parameters
        self._utility_exponent = self._parameters.cache_utility_exponent
        self._max_util = self._parameters.max_utilization
        self._queueing = np.array(
            [
                [self._parameters.ring_queueing_coefficient],
                [self._parameters.memory_queueing_coefficient],
            ]
        )
        self._pressure = self._parameters.private_pressure_sensitivity

    def invocation_spec(self, index: int) -> FunctionSpec:
        """The function spec of a tracked invocation, by index.

        Valid while the invocation's column is live — including inside
        finish listeners, which fire before the column is recycled.
        """
        return self._specs.specs[int(self.spec_idx[index])]

    def invocation_elapsed_seconds(self, index: int) -> float:
        """Seconds a tracked invocation has occupied its processor.

        The metering pipeline's per-completion reading: same validity
        window as :meth:`invocation_spec`.
        """
        return float(self._state[_CTR + 6, index])

    def add_finish_listener(self, listener: VectorFinishListener) -> None:
        """Register a completion callback (handle-or-index, engine).

        Listeners may :meth:`submit` replacements from inside the callback
        — the churn pattern fleet sweeps rely on.
        """
        self._finish_listeners.append(listener)

    def __getstate__(self) -> Dict[str, object]:
        # Finish listeners are arbitrary closures over driver state and are
        # not picklable in general; whoever checkpoints an engine owns
        # re-attaching its listeners after restore (see ``repro.serve``).
        state = self.__dict__.copy()
        state["_finish_listeners"] = []
        # Only the columns ever used hold state; the columns past them are
        # zeros that ``_grow`` makes again when a submission needs them.
        width = max(self._count, 1)
        for name in _COLUMN_ARRAYS:
            state[name] = state[name][..., :width]
        state["_capacity"] = width
        # The lane plan is derived state; the first epoch rebuilds it.
        del state["_plan"], state["_layout"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._plan = None
        self._layout = None

    # ------------------------------------------------------------------ #
    # Storage management
    # ------------------------------------------------------------------ #
    def _grow(self, capacity: int) -> None:
        def extend(array: np.ndarray) -> np.ndarray:
            fresh = np.zeros(array.shape[:-1] + (capacity,), dtype=array.dtype)
            fresh[..., : array.shape[-1]] = array
            return fresh

        for name in _COLUMN_ARRAYS:
            setattr(self, name, extend(getattr(self, name)))
        self._capacity = capacity

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _least_loaded_thread(self, machine: int) -> int:
        base = machine * self._threads_per_machine
        best = 0
        best_occ: Optional[int] = None
        for local in range(self._threads_per_machine):
            occ = len(self._queues[base + local])
            if best_occ is None or occ < best_occ:
                best = local
                best_occ = occ
        return best

    def submit(
        self,
        spec: FunctionSpec,
        *,
        machine: int = 0,
        thread_id: Optional[int] = None,
        tags: Optional[Dict[str, str]] = None,
    ):
        """Start one invocation of ``spec``; returns its handle (or index).

        ``thread_id`` is machine-local; when omitted the least-occupied
        thread of the target machine hosts the invocation (the scalar
        ``LeastOccupancyScheduler`` rule).  ``tags`` label the
        materialized handle; a bare index carries none.
        """
        if not 0 <= machine < self._machines:
            raise ValueError(f"machine {machine} out of range")
        if thread_id is None:
            thread_id = self._least_loaded_thread(machine)
        elif not 0 <= thread_id < self._threads_per_machine:
            raise ValueError(f"thread {thread_id} out of range")
        if self._free:
            index = self._free.pop()
        else:
            index = self._count
            if index >= self._capacity:
                self._grow(self._capacity * 2)
            self._count = index + 1
            self._handles.append(None)

        spec_index = self._specs.intern(spec)
        gthread = machine * self._threads_per_machine + thread_id
        first = self._specs.first_column[spec_index]
        self.spec_idx[index] = spec_index
        self.machine_of[index] = machine
        self.gthread[index] = gthread
        self.active[index] = True
        self.phase_column[index] = first
        self.end_column[index] = first + len(spec.phases)
        # A fresh invocation carries its solo penalties (first phase's hit
        # fraction, unloaded latencies, no inflation): the penalised stall
        # and CPI of ``run_epoch`` then equal the scalar engine's solo
        # formulas bit for bit (``x * 1.0`` is exact), so its first epoch
        # needs no separate path.
        column = self._state[:, index]
        column[:] = 0.0
        column[_HIT] = spec.phases[0].profile.solo_l3_hit_fraction
        column[_HIT_LATENCY] = self._l3_latency
        column[_MEM_LATENCY] = self._memory_latency
        column[_INFLATION] = 1.0
        column[_TOTAL] = spec.total_instructions
        column[_PROBE_END] = (
            math.inf if spec.is_traffic_generator else spec.startup_instructions
        )
        self._queues[gthread].append(index)
        self._order_dirty = True
        self._stats.submissions += 1

        if self._materialize:
            sandbox = Sandbox(
                sandbox_id=self._next_sandbox_id,
                memory_mb=spec.memory_mb,
                language=spec.language,
            )
            self._next_sandbox_id += 1
            handle = Invocation(
                invocation_id=index,
                spec=spec,
                sandbox=sandbox,
                submit_time=self._time,
                tags=dict(tags or {}),
            )
            handle.mark_started(thread_id, self._time)
            handle.machine_counters_at_start = self.machine_counters(machine)
            self._handles[index] = handle
            return handle
        return index

    # ------------------------------------------------------------------ #
    # Time stepping
    # ------------------------------------------------------------------ #
    def run_for(self, seconds: float) -> None:
        """Advance the whole fleet by ``seconds`` of simulated time."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        target = self._time + seconds
        while self._time < target - 1e-12:
            self.run_epoch()

    def run_until(
        self, predicate: Callable[["VectorEngine"], bool], max_seconds: float
    ) -> bool:
        """Step epochs until ``predicate(engine)`` holds or time runs out."""
        if max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        deadline = self._time + max_seconds
        while self._time < deadline:
            if predicate(self):
                return True
            self.run_epoch()
        return predicate(self)

    def _runnable_order(self) -> np.ndarray:
        """Active invocation indices in (thread id, queue position) order.

        This is the order the scalar engine's ``_collect_runnable`` visits
        invocations in; per-machine reductions accumulate in this order so
        their floating-point folds match the scalar sums.  A rebuild keeps
        the lane plan only if every run-queue length is unchanged.
        """
        if self._order_dirty:
            order = [index for queue in self._queues for index in queue]
            self._order = np.array(order, dtype=np.int64)
            self._order_dirty = False
            if self._plan is not None and tuple(map(len, self._queues)) != self._layout:
                self._plan = None
        return self._order

    def _switch_factor_table(self, max_occupancy: int) -> np.ndarray:
        """Switch factors for occupancies 0..max (``math.exp``-exact)."""
        table = self._switch_table
        if table is not None and table.size > max_occupancy:
            return table
        table = np.ones(max_occupancy + 1)
        for occ in range(1, max_occupancy + 1):
            factor = self._switch_factors.get(occ)
            if factor is None:
                factor = self._switching.factor(occ)
                self._switch_factors[occ] = factor
            table[occ] = factor
        self._switch_table = table
        return table

    def _frequency_hz(self, occ_per_thread: np.ndarray) -> np.ndarray:
        """Per-machine operating frequency, memoized per busy-thread count.

        ``occ_per_thread`` is every hardware thread's run-queue length; only
        the turbo policy reads it, to count each machine's busy threads.
        Delegates to :class:`FrequencyGovernor` so the turbo curve has a
        single source of truth (and stays ``math.exp``-exact against the
        scalar engine).
        """
        if self._frequency_policy is FrequencyPolicy.FIXED:
            if self._freq_scale is not None:
                return self._fixed_frequency * self._freq_scale
            return self._fixed_frequency
        busy_threads = np.count_nonzero(
            occ_per_thread.reshape(self._machines, self._threads_per_machine), axis=1
        )
        freqs = np.empty(self._machines)
        for m, busy in enumerate(busy_threads.tolist()):
            cached = self._turbo_cache.get(busy)
            if cached is None:
                cached = self._governor.frequency_hz(busy)
                self._turbo_cache[busy] = cached
            freqs[m] = cached
        if self._freq_scale is not None:
            freqs *= self._freq_scale
        return freqs

    def _lane_plan(self, idx: np.ndarray) -> _LanePlan:
        """The lane plan of the runnable ``idx``, built if there is none.

        Kept until a rebuild of the runnable order finds a changed thread
        layout (:meth:`_runnable_order`) or a frequency scale changes.
        """
        plan = self._plan
        if plan is not None:
            return plan
        self._stats.lane_plans += 1
        dt = self._config.epoch_seconds
        m_of = self.machine_of[idx]
        gthread = self.gthread[idx]
        occ_per_thread = np.bincount(
            gthread, minlength=self._machines * self._threads_per_machine
        )
        occ = occ_per_thread[gthread]
        frequency = self._frequency_hz(occ_per_thread)[m_of]
        cycles_available = dt / occ * frequency
        plan = self._plan = _LanePlan(
            m_of=m_of,
            frequency=frequency,
            cycles_available=cycles_available,
            multiplier=self._switch_factor_table(int(occ.max()))[occ],
            switches=occ > 1,
            occupied_dt=occ * dt,
            counter_bins=(self._counter_bins + m_of).ravel(),
            full_budgets=np.count_nonzero(cycles_available > 1.0) == idx.size,
        )
        self._layout = tuple(map(len, self._queues))
        return plan

    def run_epoch(self) -> None:
        """Advance the whole fleet by one epoch."""
        self._stats.epochs += 1
        dt = self._config.epoch_seconds
        now = self._time + dt
        idx = self._runnable_order()
        n = idx.size
        if n == 0:
            self._m_elapsed += dt
            self._time = now
            return
        machines = self._machines
        (
            m_of,
            frequency,
            cycles_available,
            multiplier,
            switches,
            occupied_dt,
            counter_bins,
            full_budgets,
        ) = self._lane_plan(idx)

        # Every runnable invocation is mid-execution, so its phase column is
        # a valid one (finished invocations left the queues).
        state = self._state.take(idx, axis=1)
        hit_frac, hit_latency, mem_latency, inflation = state[_HIT : _INFLATION + 1]
        column = self.phase_column[idx]
        end_column = self.end_column[idx]
        profiles = self._specs.profiles
        cpi_base, l2_mpki, working_set, solo_hit, mlp, p_instr = profiles.take(
            column, axis=1
        )
        mpki_per_inst = l2_mpki / 1000.0
        remaining = np.maximum(state[_TOTAL] - state[_RETIRED], 0.0)
        need = np.minimum(working_set, self._capacity_mb)

        # ---------------- contention fixed point ---------------------- #
        # Each pass computes the stall and CPI under the current penalties;
        # the pass after the last iteration's update feeds the advancement.
        iterations = self._config.fixed_point_iterations
        miss_fraction = 1.0 - hit_frac
        for iteration in range(iterations + 1):
            hit_term = hit_frac * hit_latency + miss_fraction * mem_latency
            stall = mpki_per_inst * (hit_term / mlp)
            cpi_effective = cpi_base * inflation * multiplier + stall
            if iteration == iterations:
                break
            self._stats.fixed_point_iterations += 1
            instructions = np.minimum(cycles_available / cpi_effective, remaining)
            rate = instructions * l2_mpki / 1000.0 / dt

            hit_frac = self._water_fill(rate, need, solo_hit, m_of)
            miss_fraction = 1.0 - hit_frac
            lookups = np.bincount(m_of, weights=rate, minlength=machines)
            dram_bytes = np.bincount(
                m_of, weights=rate * miss_fraction * self._line_size, minlength=machines
            )
            # Row 0: the ring, row 1: memory; one column per machine.
            load = np.array((lookups, dram_bytes))
            # Loads are non-negative: every hit fraction is at most one
            # (``set_contention_parameters`` refuses a utility exponent
            # outside (0, 1]) and the peaks are positive.
            util = np.minimum(load / self._peaks, self._max_util)
            latency = self._base_latency * (
                1.0 + self._queueing * util / (1.0 - util)
            )
            hit_latency, mem_latency = latency.take(m_of, axis=1)
            inflation = (1.0 + self._pressure * np.maximum(util[0], util[1]))[m_of]
        state[_HIT] = hit_frac
        state[_HIT_LATENCY] = hit_latency
        state[_MEM_LATENCY] = mem_latency
        state[_INFLATION] = inflation

        # ---------------- epoch advancement --------------------------- #
        # ``lanes`` holds what a pass updates, one row each: instructions
        # into the phase and retired in total, the cycle budget left, then
        # the epoch's counter deltas in ``CounterSnapshot`` field order
        # (cycles, instructions, stall cycles, L2 misses, L3 misses,
        # context switches, elapsed seconds).  A pass over some of the lanes
        # gathers and scatters them in one call each.  The scalar advance
        # recomputes ``share * frequency_hz``; the product of the same two
        # floats is bit-identical, so the budget reuses the epoch's.
        lanes = np.empty((10, n))
        lanes[:2] = state[_INTO : _RETIRED + 1]
        lanes[2] = cycles_available
        lanes[3:] = 0.0
        probe_end = state[_PROBE_END]
        live = slice(None)
        sub = lanes
        p_mpki = l2_mpki
        for pass_no in range(self._specs.max_phases + 2):
            if pass_no or not full_budgets:
                # Some lane is out of budget, finished or at the end of its
                # probe window, or a phase moved: gather the lanes that
                # still advance, at their current phase.
                live = ((lanes[2] > 1.0) & (column < end_column)).nonzero()[0]
                if live.size == 0:
                    break
                sub = lanes.take(live, axis=1)
                p_cpi, p_mpki, _, _, p_mlp, p_instr = profiles.take(
                    column[live], axis=1
                )
                stall = (p_mpki / 1000.0) * (hit_term[live] / p_mlp)
                cpi_effective = p_cpi * inflation[live] * multiplier[live] + stall
            self._stats.advance_passes += 1
            into, retired_sum, budget, d_cycles, d_instr, d_stall, d_l2, d_l3 = sub[:8]
            retired = np.minimum(budget / cpi_effective, p_instr - into)
            cycles = retired * cpi_effective
            d_cycles += cycles
            d_instr += retired
            d_stall += retired * stall
            l2 = retired * p_mpki / 1000.0
            d_l2 += l2
            d_l3 += l2 * miss_fraction[live]
            budget -= cycles
            into += retired
            retired_sum += retired
            crossed = into >= p_instr - 1e-9
            into[crossed] = 0.0
            column[live] += crossed
            # A lane whose probe window closed stops for the epoch.
            budget[retired_sum >= probe_end[live]] = 0.0
            if sub is not lanes:
                lanes[:, live] = sub

        counters = lanes[3:]
        counters[5] = switches
        np.divide(counters[0], frequency, out=counters[6])
        state[_INTO : _RETIRED + 1] = lanes[:2]
        state[_CTR : _CTR + 7] += counters
        state[_OCC_WEIGHTED] += occupied_dt
        state[_OCC_WEIGHT] += dt
        # Startup (Litmus probe) completions must snapshot the machine-wide
        # counters exactly as the scalar engine does: mid-epoch, after the
        # contributions of invocations at earlier runnable positions (and
        # the recorder itself) but before later ones.
        probed = lanes[1] >= probe_end
        startups = np.count_nonzero(probed)
        if startups:
            probe_end[probed] = math.inf
        self._state[:, idx] = state
        self.phase_column[idx] = column
        if startups and self._materialize:
            self._record_startups(probed.nonzero()[0], idx, m_of, counters, now)

        self._m_counters += np.bincount(
            counter_bins,
            weights=counters[:6].ravel(),
            minlength=6 * machines,
        ).reshape(6, machines)
        self._m_elapsed += dt
        self._time = now

        finished = column >= end_column
        if np.count_nonzero(finished):
            self._finish(idx[finished])

    # ------------------------------------------------------------------ #
    # Water-filling cache allocation (vectorized per machine)
    # ------------------------------------------------------------------ #
    def _water_fill(
        self,
        rate: np.ndarray,
        need: np.ndarray,
        solo_hit: np.ndarray,
        m_of: np.ndarray,
    ) -> np.ndarray:
        """Effective L3 hit fractions under capacity contention.

        Vectorized replica of ``SharedCacheModel.allocate``: capacity is
        split per machine proportionally to request rate, capped at each
        workload's working set (``need`` is the working set pre-clamped to
        the L3 capacity), surplus re-offered until no workload is capped;
        hit fractions degrade along the concave utility curve.
        """
        n = rate.shape[0]
        machines = self._machines
        capacity = self._capacity_mb
        wf_active = (rate > 0.0) & (need > 0.0)
        active = np.count_nonzero(wf_active)
        if not active:
            return solo_hit.copy()
        # First-pass fast path: with full capacity every machine hosting an
        # active workload is processing (active implies rate > 0, so its
        # machine's total rate is positive), and when no workload's
        # proportional share reaches its need the scalar loop distributes
        # the shares and stops — one pass, no bookkeeping.
        if active == n:
            total_rate = np.bincount(m_of, weights=rate, minlength=machines)
            share = capacity * rate / total_rate[m_of]
            capped = share >= need
        else:
            total_rate = np.bincount(
                m_of, weights=np.where(wf_active, rate, 0.0), minlength=machines
            )
            share = (
                capacity * rate / np.where(total_rate[m_of] > 0, total_rate[m_of], 1.0)
            )
            capped = wf_active & (share >= need)
        any_capped = np.count_nonzero(capped)
        if active == n and not any_capped:
            # Here 0 <= share < need, so the coverage lies in [0, 1] as is.
            coverage = share / need
        else:
            if any_capped:
                alloc = self._water_fill_slow(rate, need, m_of, wf_active)
            else:
                alloc = np.where(wf_active, share, 0.0)
            divisor = need if active == n else np.where(wf_active, need, 1.0)
            coverage = np.minimum(np.maximum(alloc / divisor, 0.0), 1.0)
        # The utility curve is the one transcendental in the per-epoch chain.
        # NumPy's SIMD ``power`` rounds differently from libm ``pow`` (the
        # scalar engine's ``**``) in ~5 % of cases, and a 1-ulp penalty
        # difference drifts the accumulated instruction counters onto the
        # scalar engine's exact startup-boundary comparisons — so coverage
        # goes through ``math.pow`` instead (full coverage gives exactly
        # 1.0, and inactive lanes are dropped below).
        exponent = self._utility_exponent
        if n < _DEDUPE_POW_LANES:
            curve = np.fromiter(
                map(math.pow, coverage.tolist(), repeat(exponent)), dtype=float, count=n
            )
        else:
            # Coverage values repeat (invocations running the same phase of
            # the same spec on a machine share rate and need bit for bit),
            # so pow runs once per distinct value: sort, flag each value
            # that differs from its neighbour, and number the runs with a
            # cumulative sum.
            order = coverage.argsort()
            ordered = coverage[order]
            distinct = np.empty(n, dtype=bool)
            distinct[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
            values = ordered[distinct]
            powered = np.fromiter(
                map(math.pow, values.tolist(), repeat(exponent)),
                dtype=float,
                count=values.size,
            )
            curve = np.empty(n)
            curve[order] = powered[distinct.cumsum() - 1]
        if active == n:
            return solo_hit * curve
        return np.where(wf_active, solo_hit * curve, solo_hit)

    def _water_fill_slow(
        self,
        rate: np.ndarray,
        need: np.ndarray,
        m_of: np.ndarray,
        wf_active: np.ndarray,
    ) -> np.ndarray:
        """General multi-pass water-fill (some workload capped its share)."""
        n = rate.shape[0]
        machines = self._machines
        alloc = np.zeros(n)
        remaining = wf_active.copy()
        rem_capacity = np.full(machines, self._capacity_mb)
        machine_done = np.zeros(machines, dtype=bool)
        for _ in range(n + 1):
            live = remaining & ~machine_done[m_of]
            if not live.any():
                break
            total_rate = np.bincount(
                m_of, weights=np.where(live, rate, 0.0), minlength=machines
            )
            has_live = (
                np.bincount(m_of, weights=live.astype(float), minlength=machines) > 0
            )
            processing = (
                has_live & ~machine_done & (rem_capacity > 1e-12) & (total_rate > 0.0)
            )
            machine_done |= has_live & ~processing
            live &= processing[m_of]
            if not live.any():
                continue
            # The expression is evaluated for masked-out lanes too, whose
            # garbage values can overflow before np.where discards them.
            with np.errstate(over="ignore", invalid="ignore"):
                share = np.where(
                    live,
                    rem_capacity[m_of]
                    * rate
                    / np.where(total_rate[m_of] > 0, total_rate[m_of], 1.0),
                    0.0,
                )
            capped = live & (share >= need - alloc)
            has_capped = (
                np.bincount(m_of, weights=capped.astype(float), minlength=machines) > 0
            )
            # Machines with live workloads but no capped one: distribute the
            # proportional shares and stop (the scalar loop's final branch).
            final = processing & ~has_capped
            final_positions = live & final[m_of]
            alloc = np.where(final_positions, alloc + share, alloc)
            rem_capacity = np.where(final, 0.0, rem_capacity)
            machine_done |= final
            # Capped workloads take exactly their need; grants come off the
            # machine's remaining capacity sequentially in runnable order
            # (the scalar fold), so replicate that with a tiny Python loop.
            capped_positions = np.nonzero(capped)[0]
            for position in capped_positions.tolist():
                machine = m_of[position]
                grant = need[position] - alloc[position]
                alloc[position] = need[position]
                rem_capacity[machine] -= grant
            remaining &= ~capped
        return alloc

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def _record_startups(
        self,
        positions: np.ndarray,
        idx: np.ndarray,
        m_of: np.ndarray,
        deltas: np.ndarray,
        now: float,
    ) -> None:
        """Fill probe-window snapshots for invocations finishing startup.

        ``deltas`` holds the epoch's per-lane counter deltas, one row per
        machine counter.
        """
        for position in positions.tolist():
            index = int(idx[position])
            handle = self._handles[index]
            if handle is None or handle.startup_recorded:
                continue
            machine = int(m_of[position])
            prefix = (m_of == machine) & (np.arange(idx.size) <= position)
            machine_end = CounterSnapshot(
                *(
                    float(self._m_counters[row, machine] + deltas[row][prefix].sum())
                    for row in range(6)
                ),
                elapsed_seconds=float(self._m_elapsed[machine]),
            )
            self._sync_handle_counters(index)
            handle.record_startup_completion(now, machine_end)

    def _sync_handle_counters(self, index: int) -> None:
        handle = self._handles[index]
        if handle is None:
            return
        counters = handle.counters
        column = self._state[:, index].tolist()
        (
            counters.cycles,
            counters.instructions,
            counters.stall_cycles_l2_miss,
            counters.l2_misses,
            counters.l3_misses,
            counters.context_switches,
            counters.elapsed_seconds,
        ) = column[_CTR : _CTR + 7]
        handle.occupancy_weighted_sum = column[_OCC_WEIGHTED]
        handle.occupancy_weight = column[_OCC_WEIGHT]

    def _finish(self, finished_indices: np.ndarray) -> None:
        """Retire finished invocations and fire listeners in runnable order."""
        materialize = self._materialize
        for index in finished_indices.tolist():
            self.active[index] = False
            self._queues[int(self.gthread[index])].remove(index)
            self._order_dirty = True
            self._stats.completions += 1
            handle: object = index
            if materialize:
                handle = self._handles[index]
                self._sync_handle_counters(index)
                handle.mark_finished(self._time)
                self._completed.append(handle)
            for listener in list(self._finish_listeners):
                listener(handle, self)
            if not materialize:
                # Listener work (e.g. churn resubmission) is done with this
                # index; recycle its column so churn fleets stay bounded by
                # their active size.  (``completed`` therefore only tracks
                # materialized handles.)
                self._free.append(index)
