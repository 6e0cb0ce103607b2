"""Fleet-scale scenario sweeps.

A :class:`FleetScenario` describes one co-running environment — a traffic
mix, a number of machines, and a co-location level (functions per hardware
thread).  :class:`FleetSweep` simulates a whole grid of scenarios at once:
with the vector backend every machine of every scenario lives in a single
:class:`repro.platform.batch.VectorEngine`, so the entire grid advances in
one batched NumPy pass per epoch.  A :class:`VectorDrive` owns that engine
and its drive loop; the streaming replay (:mod:`repro.serve`) advances the
same drive a chunk at a time.  The scalar backend runs the identical
scenarios machine-by-machine on the bit-exact
:class:`repro.platform.engine.SimulationEngine` (fast path enabled) and is
what the vector backend's throughput claims are measured against.

Both backends keep the congestion level steady the way the paper does:
whenever an invocation finishes, a new one drawn from the scenario's mix is
launched on the same hardware thread (deterministically, from a per-machine
seed), so the fleet size stays constant for the whole horizon.  The draw
policy defaults to a uniform random pick but any
:class:`repro.workloads.synthetic.TrafficModel` (weighted, round-robin, or
an explicit replayed trace) can be attached per scenario — this is how
declarative scenario specs (:mod:`repro.scenarios`) describe traffic.

Because every machine's churn stream is seeded by ``scenario.seed`` plus the
machine's index *within its scenario*, a scenario's results do not depend on
which other scenarios share the engine — the invariant that lets
:mod:`repro.platform.batch.shard` split a grid across worker processes and
merge results identical to the single-process run.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218, MachineSpec
from repro.obs.series import SeriesPoint
from repro.platform.batch.vector_engine import VectorEngine, VectorEngineConfig
from repro.platform.churn import WindowedBurst
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.faults import FAULT_ROLE, FaultCounters, FaultSpec, FaultStats
from repro.platform.metering import MeterFaultInjector, MeteringLedger, TenantBilling
from repro.platform.scheduler import LeastOccupancyScheduler
from repro.workloads.function import FunctionSpec
from repro.workloads.registry import FunctionRegistry, default_registry
from repro.workloads.synthetic import Mixer, TrafficModel, WorkloadMixer

#: Progress callback: receives a plain payload dict (see ``repro.obs``).
ProgressCallback = Callable[[Dict[str, object]], None]

_BACKENDS = ("vector", "scalar")

#: Mix strings with a built-in meaning (anything else must name functions).
NAMED_MIXES = ("all", "memory-intensive")


def resolve_mix(mix: str, registry: FunctionRegistry) -> List[FunctionSpec]:
    """Resolve a mix string to a function pool, with token-level errors.

    Accepted forms: ``all`` (every Table-1 function), ``memory-intensive``
    (the eight high-L2-miss functions), or function abbreviations joined
    with ``+`` or ``,`` (e.g. ``bfs-py+float-py``).  Unknown tokens raise a
    :class:`ValueError` that names the offending token and lists the valid
    choices, so CLI users see what to fix rather than a bare traceback.
    """
    stripped = mix.strip()
    if stripped == "all":
        return registry.all()
    if stripped == "memory-intensive":
        return registry.memory_intensive()
    tokens = [token.strip() for token in re.split(r"[+,]", stripped) if token.strip()]
    if not tokens:
        raise ValueError(
            f"empty mix {mix!r}; valid mixes: {', '.join(NAMED_MIXES)}, or "
            f"function abbreviations joined with '+'"
        )
    pool: List[FunctionSpec] = []
    for token in tokens:
        if token not in registry:
            known = ", ".join(sorted(registry.abbreviations()))
            raise ValueError(
                f"unknown function {token!r} in mix {mix!r}; valid mixes: "
                f"{', '.join(NAMED_MIXES)}, or function abbreviations: {known}"
            )
        pool.append(registry.get(token))
    return pool


@dataclass(frozen=True)
class FleetScenario:
    """One cell of the sweep grid."""

    name: str
    #: Traffic mix: ``all``, ``memory-intensive`` or a comma-separated list
    #: of function abbreviations.
    mix: str = "all"
    machines: int = 1
    #: Functions co-located per hardware thread.
    colocation: int = 1
    #: Cores hosting functions on each machine (default: every core).
    cores_per_machine: Optional[int] = None
    seed: int = 2024
    #: Optional declarative churn-traffic description.  ``None`` means the
    #: default: uniform random draws from the pool the ``mix`` string names.
    #: A model with explicit ``functions`` overrides the ``mix`` pool.
    traffic: Optional[TrafficModel] = None
    #: Faults applied to this scenario (already filtered by scenario glob —
    #: see :func:`repro.scenarios.expand_grid`).  Empty = healthy fleet.
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ValueError("machines must be >= 1")
        if self.colocation < 1:
            raise ValueError("colocation must be >= 1")
        if self.cores_per_machine is not None and self.cores_per_machine < 1:
            raise ValueError("cores_per_machine must be >= 1")

    def cores(self, machine: MachineSpec) -> int:
        cores = self.cores_per_machine or machine.cores
        if cores > machine.cores:
            raise ValueError(
                f"scenario {self.name!r} wants {cores} cores but "
                f"{machine.name} has {machine.cores}"
            )
        return cores

    def fleet_size(self, machine: MachineSpec) -> int:
        """Concurrent invocations this scenario keeps alive."""
        return self.machines * self.cores(machine) * self.colocation


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregate outcome of one scenario over the sweep horizon."""

    name: str
    backend: str
    fleet_size: int
    machines: int
    colocation: int
    submitted: int
    completed: int
    simulated_seconds: float
    instructions: float
    cycles: float
    stall_cycles: float
    l3_misses: float
    #: Per-tenant billing ledger; populated when metering was enabled
    #: (``FleetSweep(meter=True)`` or any fault on the scenario).
    billing: Optional[TenantBilling] = None
    #: Fault accounting; populated when the scenario declared faults.
    fault_stats: Optional[FaultStats] = None

    @property
    def throughput_per_machine_second(self) -> float:
        """Completed invocations per machine per simulated second."""
        denominator = self.machines * self.simulated_seconds
        return self.completed / denominator if denominator > 0 else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def shared_fraction(self) -> float:
        return self.stall_cycles / self.cycles if self.cycles > 0 else 0.0


@dataclass(frozen=True)
class FleetSweepResult:
    """Outcome of a full sweep on one backend."""

    backend: str
    scenarios: Tuple[ScenarioResult, ...]
    wall_seconds: float
    horizon_seconds: float

    @property
    def fleet_size(self) -> int:
        return sum(s.fleet_size for s in self.scenarios)

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.scenarios)

    def render(self) -> str:
        rows = [
            {
                "scenario": s.name,
                "machines": s.machines,
                "colocation": s.colocation,
                "fleet": s.fleet_size,
                "completed": s.completed,
                "throughput": s.throughput_per_machine_second,
                "ipc": s.ipc,
                "shared_frac": s.shared_fraction,
            }
            for s in self.scenarios
        ]
        table = format_table(
            rows,
            columns=(
                "scenario",
                "machines",
                "colocation",
                "fleet",
                "completed",
                "throughput",
                "ipc",
                "shared_frac",
            ),
            title=(
                f"Fleet sweep [{self.backend}]: {self.fleet_size} concurrent "
                f"invocations, {self.horizon_seconds:g}s horizon"
            ),
        )
        return table


@dataclass(frozen=True)
class _BoundaryAction:
    """One thing to do at a fault-window boundary."""

    kind: str  # "burst-open" | "throttle-open" | "throttle-close"
    fault: FaultSpec
    window: Tuple[float, float]


def _fault_boundaries(
    faults: Sequence[FaultSpec], horizon_seconds: float
) -> List[Tuple[float, List[_BoundaryAction]]]:
    """Time-sorted fault-window boundaries for one scenario.

    Both backends segment the horizon at exactly these times (and with the
    identical ``target = time + (boundary - time)`` arithmetic), so a fault
    takes effect at the same epoch on either engine.  Burst windows only
    need an opening boundary — their drivers stop resubmitting once the
    engine clock passes the window end; throttles need a closing boundary
    to restore the clock.
    """
    by_time: Dict[float, List[_BoundaryAction]] = {}
    for fault in faults:
        window = fault.window(horizon_seconds)
        if window is None:
            continue
        start, end = window
        if fault.type == "freq-throttle":
            by_time.setdefault(start, []).append(
                _BoundaryAction("throttle-open", fault, window)
            )
            if end < horizon_seconds:
                by_time.setdefault(end, []).append(
                    _BoundaryAction("throttle-close", fault, window)
                )
        else:
            by_time.setdefault(start, []).append(
                _BoundaryAction("burst-open", fault, window)
            )
    return sorted(by_time.items())


def advance_to_boundary(engine, until: float, *, on_epoch=None) -> None:
    """Step ``engine`` epoch-by-epoch up to the segment boundary ``until``.

    The one piece of arithmetic both backends must share for segmented
    horizons to agree: the target is computed as
    ``time + (until - time)`` so that accumulated float error in the
    engine clock cancels identically on either engine, and the loop stops
    within one epoch of the boundary.  :class:`VectorDrive` segments the
    fault windows with the same arithmetic; this function serves the
    hardware-drift boundaries of :mod:`repro.calibrate.drift` — any engine
    exposing ``time_seconds`` and ``run_epoch()`` qualifies.
    ``on_epoch`` (when given) runs after every stepped epoch.
    """
    target = engine.time_seconds + (until - engine.time_seconds)
    while engine.time_seconds < target - 1e-12:
        engine.run_epoch()
        if on_epoch is not None:
            on_epoch()


def _throttle_scale(active_factors: Sequence[float]) -> float:
    """Combined frequency multiplier of the currently open throttles."""
    scale = 1.0
    for factor in active_factors:
        scale *= factor
    return scale


class _BurstState(NamedTuple):
    """Vector-side burst bookkeeping: one instance per opened burst window."""

    fault: FaultSpec
    end_seconds: float
    mixers: Dict[int, WorkloadMixer]


def _fault_meter_totals(
    counters: Sequence[Optional[FaultCounters]],
    ledgers: Sequence[Optional[MeteringLedger]],
) -> Tuple[int, int, int, float, float]:
    """Fault injections, meter drops and duplicates, and billed and true
    GB-s, summed in scenario order for the progress payloads and series."""
    injections = dropped = duplicated = 0
    billed = true = 0.0
    for counter in counters:
        if counter is not None:
            injections += counter.spike_submissions + counter.neighbor_submissions
    for ledger in ledgers:
        if ledger is not None:
            dropped += ledger.dropped
            duplicated += ledger.duplicated
            billed += ledger.billed_total
            true += ledger.true_total
    return injections, dropped, duplicated, billed, true


def scenario_grid(
    mixes: Sequence[str],
    machine_counts: Sequence[int],
    colocations: Sequence[int],
    *,
    cores_per_machine: Optional[int] = None,
    seed: int = 2024,
) -> List[FleetScenario]:
    """The full cross product of mixes × machine counts × co-location."""
    scenarios: List[FleetScenario] = []
    for mix in mixes:
        for machines in machine_counts:
            for colocation in colocations:
                scenarios.append(
                    FleetScenario(
                        name=f"{mix}-m{machines}-c{colocation}",
                        mix=mix,
                        machines=machines,
                        colocation=colocation,
                        cores_per_machine=cores_per_machine,
                        seed=seed,
                    )
                )
    return scenarios


class FleetSweep:
    """Simulates a grid of fleet scenarios on either backend.

    Construction is cheap and side-effect free; :meth:`run` does the work.

    Parameters: ``scenarios`` is the compiled grid (see
    :func:`scenario_grid` or :func:`repro.scenarios.compile_spec`);
    ``machine`` the socket-level hardware description every machine of the
    fleet shares; ``horizon_seconds`` the simulated duration per scenario;
    ``epoch_seconds`` the engine time step; ``registry_scale`` shrinks every
    function body by that factor (the usual way to trade fidelity for
    wall-clock in large grids).

    To run a grid across worker processes instead of one engine, hand the
    same scenarios to :func:`repro.platform.batch.run_sharded` — results
    merge back identical to a single-process :meth:`run`.
    """

    def __init__(
        self,
        scenarios: Sequence[FleetScenario],
        *,
        machine: MachineSpec = CASCADE_LAKE_5218,
        horizon_seconds: float = 2.0,
        epoch_seconds: float = 1e-3,
        registry: Optional[FunctionRegistry] = None,
        registry_scale: float = 0.1,
        meter: bool = False,
    ) -> None:
        if not scenarios:
            raise ValueError("at least one scenario is required")
        if horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if registry_scale <= 0:
            raise ValueError("registry_scale must be positive")
        self._scenarios = list(scenarios)
        self._machine = machine
        self._horizon = horizon_seconds
        self._epoch_seconds = epoch_seconds
        base = registry or default_registry()
        self._registry = base if registry_scale == 1.0 else base.scaled(registry_scale)
        #: Bill per-tenant GB-seconds even for healthy scenarios.  Scenarios
        #: with any declared fault are always metered, so a faulted run and
        #: its faults-stripped baseline both carry billing ledgers.
        self._meter = meter

    @property
    def scenarios(self) -> List[FleetScenario]:
        return list(self._scenarios)

    @property
    def fleet_size(self) -> int:
        return sum(s.fleet_size(self._machine) for s in self._scenarios)

    @property
    def machine_spec(self) -> MachineSpec:
        """The hardware description every machine of the fleet shares."""
        return self._machine

    @property
    def horizon_seconds(self) -> float:
        """Simulated duration per scenario."""
        return self._horizon

    @property
    def epoch_seconds(self) -> float:
        """Engine time step."""
        return self._epoch_seconds

    def _mix_pool(self, scenario: FleetScenario) -> List[FunctionSpec]:
        """The scenario's resolved function pool (explicit traffic pool wins)."""
        try:
            if scenario.traffic is not None and scenario.traffic.functions:
                return resolve_mix("+".join(scenario.traffic.functions), self._registry)
            return resolve_mix(scenario.mix, self._registry)
        except ValueError as error:
            raise ValueError(f"scenario {scenario.name!r}: {error}") from None

    def _make_mixer(self, scenario: FleetScenario, machine_index: int) -> Mixer:
        """One churn mixer per machine, seeded by the machine's index.

        The seed depends only on the scenario's own seed and the machine's
        index *within the scenario*, never on grid position or shard, so
        results are independent of how scenarios are batched or partitioned.
        """
        traffic = scenario.traffic or TrafficModel()
        pool = self._mix_pool(scenario)
        try:
            return traffic.build_mixer(pool, seed=scenario.seed + machine_index)
        except ValueError as error:
            raise ValueError(f"scenario {scenario.name!r}: {error}") from None

    def validate(self) -> None:
        """Resolve every scenario's mix and core count, raising on bad input.

        Callers that want clean user-facing errors (the CLI) run this before
        :meth:`run`, so failures during the simulation itself surface as
        real tracebacks rather than being mistaken for input errors.
        """
        for scenario in self._scenarios:
            self._make_mixer(scenario, 0)
            scenario.cores(self._machine)

    def run(
        self, backend: str = "vector", *, progress: Optional[ProgressCallback] = None
    ) -> FleetSweepResult:
        """Simulate every scenario on ``backend`` (``vector`` or ``scalar``).

        ``progress``, when given, receives payload dicts (see
        :mod:`repro.obs`) a few times per second while the sweep advances,
        plus one final payload with ``done=True``.  Observability never
        changes results: a vector run advances one :class:`VectorDrive`
        the same way whether or not anything listens.
        """
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
        start = time.perf_counter()
        if backend == "vector":
            results = self._run_vector(progress)
        else:
            results = self._run_scalar(progress)
        wall = time.perf_counter() - start
        return FleetSweepResult(
            backend=backend,
            scenarios=tuple(results),
            wall_seconds=wall,
            horizon_seconds=self._horizon,
        )

    def compare(self) -> Tuple[FleetSweepResult, FleetSweepResult, float]:
        """Run both backends; returns (vector, scalar, speedup)."""
        vector = self.run("vector")
        scalar = self.run("scalar")
        speedup = scalar.wall_seconds / max(vector.wall_seconds, 1e-9)
        return vector, scalar, speedup

    # ------------------------------------------------------------------ #
    # Fault, metering and result plumbing shared by both backends
    # ------------------------------------------------------------------ #
    def _scenario_metered(self, scenario: FleetScenario) -> bool:
        return self._meter or bool(scenario.faults)

    def _meter_injector(
        self, scenario: FleetScenario, machine_index: int
    ) -> Optional[MeterFaultInjector]:
        """The machine's metering-fault injector, or ``None`` when healthy.

        Seeded per machine (``fault.seed`` + the machine's index within its
        scenario) so decisions depend only on that machine's own completion
        order — shard membership and co-resident scenarios cannot change
        them.  When a spec declares several faults of the same meter type
        matching one scenario, the last one wins.
        """
        drop_p = dup_p = 0.0
        drop_seed = dup_seed = 0
        for fault in scenario.faults:
            if fault.type == "meter-drop":
                drop_p = fault.probability
                drop_seed = fault.seed + machine_index
            elif fault.type == "meter-dup":
                dup_p = fault.probability
                dup_seed = fault.seed + machine_index
        if drop_p == 0.0 and dup_p == 0.0:
            return None
        return MeterFaultInjector(
            drop_probability=drop_p,
            duplicate_probability=dup_p,
            drop_seed=drop_seed,
            duplicate_seed=dup_seed,
        )

    def _burst_mixer(
        self, scenario: FleetScenario, fault: FaultSpec, machine_index: int
    ) -> WorkloadMixer:
        """The burst draw stream for one fault on one machine.

        ``churn-spike`` surges the scenario's own mix; ``noisy-neighbor``
        draws from the fault's explicit function list or, by default, the
        memory-intensive mix.  Seeded like the steady mixers: by the
        machine's index within its scenario, never by grid position.
        """
        if fault.type == "noisy-neighbor":
            if fault.functions:
                pool = resolve_mix("+".join(fault.functions), self._registry)
            else:
                pool = self._registry.memory_intensive()
        else:
            pool = self._mix_pool(scenario)
        return WorkloadMixer(pool, seed=fault.seed + machine_index)

    def _nominal_throttled_epochs(self, scenario: FleetScenario) -> int:
        """Machine-epochs the scenario nominally spends throttled."""
        total = 0
        for fault in scenario.faults:
            if fault.type != "freq-throttle":
                continue
            window = fault.window(self._horizon)
            if window is None:
                continue
            total += int(round((window[1] - window[0]) / self._epoch_seconds))
        return total * scenario.machines

    def _progress_payload(
        self,
        backend: str,
        *,
        scenarios_done: int,
        epochs_done: int,
        epochs_total: int,
        completions: int,
        submissions: int,
        counters: Sequence[Optional[FaultCounters]],
        ledgers: Sequence[Optional[MeteringLedger]],
        done: bool = False,
    ) -> Dict[str, object]:
        injections, dropped, duplicated, billed, true = _fault_meter_totals(
            counters, ledgers
        )
        return {
            "backend": backend,
            "scenarios_total": len(self._scenarios),
            "scenarios_done": scenarios_done,
            "epochs_done": epochs_done,
            "epochs_total": epochs_total,
            "completions": completions,
            "submissions": submissions,
            "fault_injections": injections,
            "meter_dropped": dropped,
            "meter_duplicated": duplicated,
            "billed_gb_seconds": billed,
            "true_gb_seconds": true,
            "done": done,
        }

    def _scenario_result(
        self,
        scenario: FleetScenario,
        backend: str,
        *,
        submitted: int,
        completed: int,
        machine_counters: Iterable,
        ledger: Optional[MeteringLedger],
        fault_counters: Optional[FaultCounters],
    ) -> ScenarioResult:
        """One scenario's result; its machines' counters summed in order."""
        instructions = cycles = stall = l3 = 0.0
        for counters in machine_counters:
            instructions += counters.instructions
            cycles += counters.cycles
            stall += counters.stall_cycles_l2_miss
            l3 += counters.l3_misses
        if fault_counters is not None and ledger is not None:
            fault_counters.meter_events = ledger.events
            fault_counters.meter_dropped = ledger.dropped
            fault_counters.meter_duplicated = ledger.duplicated
        return ScenarioResult(
            name=scenario.name,
            backend=backend,
            fleet_size=scenario.fleet_size(self._machine),
            machines=scenario.machines,
            colocation=scenario.colocation,
            submitted=submitted,
            completed=completed,
            simulated_seconds=self._horizon,
            instructions=instructions,
            cycles=cycles,
            stall_cycles=stall,
            l3_misses=l3,
            billing=None if ledger is None else ledger.freeze(),
            fault_stats=None if fault_counters is None else fault_counters.freeze(),
        )

    # ------------------------------------------------------------------ #
    # Vector backend: one drive, every machine of every scenario
    # ------------------------------------------------------------------ #
    def _run_vector(
        self, progress: Optional[ProgressCallback] = None
    ) -> List[ScenarioResult]:
        drive = VectorDrive(self, "vector")
        drive.progress = progress
        drive.advance()
        return drive.results()

    # ------------------------------------------------------------------ #
    # Scalar backend: the fast-path engine, machine by machine
    # ------------------------------------------------------------------ #
    def _run_scalar(
        self, progress: Optional[ProgressCallback] = None
    ) -> List[ScenarioResult]:
        spec = self._machine
        results: List[ScenarioResult] = []
        epochs_per_machine = int(round(self._horizon / self._epoch_seconds))
        epochs_total = epochs_per_machine * sum(s.machines for s in self._scenarios)
        epochs_done = 0
        completions_total = 0
        submissions_total = 0
        ledgers: List[Optional[MeteringLedger]] = []
        all_counters: List[Optional[FaultCounters]] = []
        for scenario in self._scenarios:
            cores = scenario.cores(spec)
            submitted = 0
            completed = 0
            machine_counters = []
            boundaries = _fault_boundaries(scenario.faults, self._horizon)
            ledger = MeteringLedger() if self._scenario_metered(scenario) else None
            fault_counters = FaultCounters() if scenario.faults else None
            if fault_counters is not None:
                fault_counters.throttled_machine_epochs = (
                    self._nominal_throttled_epochs(scenario)
                )
            ledgers.append(ledger)
            all_counters.append(fault_counters)
            for machine in range(scenario.machines):
                mixer = self._make_mixer(scenario, machine)
                injector = (
                    None if ledger is None else self._meter_injector(scenario, machine)
                )
                engine = SimulationEngine(
                    CPU(spec),
                    LeastOccupancyScheduler(),
                    # No event log: the vector side keeps none, and a heavy
                    # churn horizon would otherwise grow it unboundedly and
                    # bias the recorded speedup in the vector's favour.
                    config=EngineConfig(
                        epoch_seconds=self._epoch_seconds, record_events=False
                    ),
                )
                counts = {"submitted": 0, "completed": 0}
                for thread in range(cores):
                    for _ in range(scenario.colocation):
                        engine.submit(mixer.next(), thread_id=thread)
                        counts["submitted"] += 1

                def on_finish(
                    invocation,
                    eng,
                    mixer=mixer,
                    counts=counts,
                    ledger=ledger,
                    injector=injector,
                ):
                    if invocation.role() == FAULT_ROLE:
                        return  # burst co-runner: its own driver resubmits
                    if ledger is not None:
                        ledger.observe(
                            invocation.spec.abbreviation,
                            invocation.spec.memory_gb,
                            invocation.occupied_seconds,
                            injector.copies() if injector is not None else 1,
                        )
                    counts["completed"] += 1
                    eng.submit(mixer.next(), thread_id=invocation.thread_id)
                    counts["submitted"] += 1

                engine.add_finish_listener(on_finish)
                if not boundaries:
                    engine.run_for(self._horizon)
                else:
                    bursts: List[Tuple[FaultSpec, WindowedBurst]] = []
                    active_factors: List[float] = []
                    for when, actions in boundaries:
                        delta = when - engine.time_seconds
                        if delta > 0:
                            engine.run_for(delta)
                        for action in actions:
                            if action.kind == "burst-open":
                                burst = WindowedBurst(
                                    self._burst_mixer(scenario, action.fault, machine),
                                    action.fault.count,
                                    action.window[1],
                                )
                                burst.attach(engine)
                                bursts.append((action.fault, burst))
                            else:
                                if action.kind == "throttle-open":
                                    active_factors.append(action.fault.factor)
                                else:
                                    active_factors.remove(action.fault.factor)
                                engine.set_frequency_scale(
                                    _throttle_scale(active_factors)
                                )
                    delta = self._horizon - engine.time_seconds
                    if delta > 0:
                        engine.run_for(delta)
                    for fault, burst in bursts:
                        fault_counters.count_burst_submit(
                            fault.type, burst.launched_count
                        )
                        fault_counters.count_burst_finish(
                            fault.type, burst.completed_count
                        )
                submitted += counts["submitted"]
                completed += counts["completed"]
                machine_counters.append(engine.cpu.global_counters)
                epochs_done += epochs_per_machine
                if progress is not None:
                    progress(
                        self._progress_payload(
                            "scalar",
                            scenarios_done=len(results),
                            epochs_done=epochs_done,
                            epochs_total=epochs_total,
                            completions=completions_total + completed,
                            submissions=submissions_total + submitted,
                            counters=all_counters,
                            ledgers=ledgers,
                        )
                    )
            completions_total += completed
            submissions_total += submitted
            results.append(
                self._scenario_result(
                    scenario,
                    "scalar",
                    submitted=submitted,
                    completed=completed,
                    machine_counters=machine_counters,
                    ledger=ledger,
                    fault_counters=fault_counters,
                )
            )
        if progress is not None:
            progress(
                self._progress_payload(
                    "scalar",
                    scenarios_done=len(results),
                    epochs_done=epochs_done,
                    epochs_total=epochs_total,
                    completions=completions_total,
                    submissions=submissions_total,
                    counters=all_counters,
                    ledgers=ledgers,
                    done=True,
                )
            )
        return results


class VectorDrive:
    """One vector engine advancing every scenario of a sweep, epoch by epoch.

    The drive owns a :class:`FleetSweep`'s whole vector run: the engine and
    fleet (seeded churn mixers, ledgers, fault counters, meter injectors),
    the finish listener, and the horizon segmented at every fault boundary.
    :meth:`advance` can stop after any epoch.  ``FleetSweep.run("vector")``
    advances a drive to the horizon in one call and
    :class:`repro.serve.StreamReplay` a chunk at a time, with the same
    epochs and arithmetic, so their numbers agree bit for bit: each
    segment's target is computed once, on entry, as ``time + (boundary -
    time)``.  ``backend`` labels results and payloads.  :attr:`progress` is
    never pickled, and unpickling re-attaches the finish listener.
    """

    def __init__(self, sweep: FleetSweep, backend: str) -> None:
        #: The sweep this drive runs.
        self.sweep = sweep
        self.backend = backend
        #: Progress callback (see ``repro.obs``), or None.
        self.progress: Optional[ProgressCallback] = None
        scenarios = self._scenarios = sweep.scenarios
        spec = sweep.machine_spec
        engine = self._engine = VectorEngine(
            spec,
            machines=sum(s.machines for s in scenarios),
            config=VectorEngineConfig(epoch_seconds=sweep.epoch_seconds),
            materialize_handles=False,
            initial_capacity=max(4 * sweep.fleet_size, 1024),
        )
        self._ledgers: List[Optional[MeteringLedger]] = [
            MeteringLedger() if sweep._scenario_metered(s) else None
            for s in scenarios
        ]
        self._fault_counters: List[Optional[FaultCounters]] = [
            FaultCounters(throttled_machine_epochs=sweep._nominal_throttled_epochs(s))
            if s.faults
            else None
            for s in scenarios
        ]
        self._mixers: Dict[int, Mixer] = {}
        self._injectors: Dict[int, MeterFaultInjector] = {}
        self._scenario_of_machine = [s for s, sc in enumerate(scenarios) for _ in range(sc.machines)]
        self._submitted = [0] * len(scenarios)
        self._completed = [0] * len(scenarios)
        self._machine_offset = [0] * len(scenarios)
        boundaries: Dict[float, List[Tuple[int, _BoundaryAction]]] = {}
        offset = 0
        for s, scenario in enumerate(scenarios):
            self._machine_offset[s] = offset
            for index in range(scenario.machines):
                machine = offset + index
                mixer = self._mixers[machine] = sweep._make_mixer(scenario, index)
                for thread in range(scenario.cores(spec)):
                    for _ in range(scenario.colocation):
                        engine.submit(mixer.next(), machine=machine, thread_id=thread)
                        self._submitted[s] += 1
                if self._ledgers[s] is not None:
                    injector = sweep._meter_injector(scenario, index)
                    if injector is not None:
                        self._injectors[machine] = injector
            for when, actions in _fault_boundaries(
                scenario.faults, sweep.horizon_seconds
            ):
                boundaries.setdefault(when, []).extend((s, a) for a in actions)
            offset += scenario.machines
        self._burst_of: Dict[int, _BurstState] = {}
        self._active_factors: List[List[float]] = [[] for _ in scenarios]

        #: Every fault boundary in time order, then the horizon.
        self._segments = sorted(boundaries.items()) + [(sweep.horizon_seconds, [])]
        self._segment_index = 0
        #: The current segment's float target, computed once on entry.
        self._segment_target: Optional[float] = None
        engine.add_finish_listener(self._on_finish)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        """Whether the drive has reached the horizon."""
        return self._segment_index >= len(self._segments)

    @property
    def time_seconds(self) -> float:
        """Simulated time reached so far."""
        return self._engine.time_seconds

    @property
    def epochs_done(self) -> int:
        """Epochs stepped so far."""
        return self._engine.stats.epochs

    @property
    def epochs_total(self) -> int:
        """Nominal epoch count of the full horizon."""
        return int(round(self.sweep.horizon_seconds / self.sweep.epoch_seconds))

    @property
    def completions(self) -> int:
        """Steady-churn completions across every scenario."""
        return sum(self._completed)

    @property
    def submissions(self) -> int:
        """Steady-churn submissions across every scenario."""
        return sum(self._submitted)

    def progress_payload(self, *, done: bool = False) -> Dict[str, object]:
        """A ``repro.obs`` metrics payload describing the current state."""
        return self.sweep._progress_payload(
            self.backend,
            scenarios_done=len(self._scenarios) if done else 0,
            epochs_done=self.epochs_done,
            epochs_total=self.epochs_total,
            completions=self.completions,
            submissions=self.submissions,
            counters=self._fault_counters,
            ledgers=self._ledgers,
            done=done,
        )

    def _series_point(self) -> SeriesPoint:
        """One epoch's :class:`~repro.obs.series.SeriesPoint` reading."""
        injections, dropped, _, billed, true = _fault_meter_totals(
            self._fault_counters, self._ledgers
        )
        engine = self._engine
        return SeriesPoint(
            shard="",
            epoch=int(engine.stats.epochs),
            time_seconds=float(engine.time_seconds),
            completions=self.completions,
            shared_stall_fraction=engine.fleet_shared_stall_fraction,
            fault_injections=injections,
            meter_dropped=dropped,
            billing_error_fraction=(billed - true) / true if true > 0 else 0.0,
        )

    # ------------------------------------------------------------------ #
    # The drive loop
    # ------------------------------------------------------------------ #
    def _on_finish(self, index: object, eng: VectorEngine) -> None:
        machine = int(eng.machine_of[index])
        s = self._scenario_of_machine[machine]
        burst = self._burst_of.pop(index, None)
        if burst is not None:
            self._fault_counters[s].count_burst_finish(burst.fault.type)
            if eng.time_seconds < burst.end_seconds:
                self._submit_burst(burst, s, machine)
            return
        ledger = self._ledgers[s]
        if ledger is not None:
            function = eng.invocation_spec(index)
            injector = self._injectors.get(machine)
            ledger.observe(
                function.abbreviation,
                function.memory_gb,
                eng.invocation_elapsed_seconds(index),
                injector.copies() if injector is not None else 1,
            )
        thread = int(eng.gthread[index]) - machine * eng.threads_per_machine
        self._completed[s] += 1
        eng.submit(self._mixers[machine].next(), machine=machine, thread_id=thread)
        self._submitted[s] += 1

    def _submit_burst(self, burst: _BurstState, s: int, machine: int) -> None:
        index = self._engine.submit(burst.mixers[machine].next(), machine=machine)
        self._burst_of[index] = burst
        self._fault_counters[s].count_burst_submit(burst.fault.type)

    def _apply_boundary_actions(
        self, entries: List[Tuple[int, _BoundaryAction]]
    ) -> None:
        for s, action in entries:
            scenario = self._scenarios[s]
            first = self._machine_offset[s]
            fleet = range(first, first + scenario.machines)
            if action.kind == "burst-open":
                mixers = {
                    machine: self.sweep._burst_mixer(scenario, action.fault, machine - first)
                    for machine in fleet
                }
                burst = _BurstState(action.fault, action.window[1], mixers)
                for machine in fleet:
                    for _ in range(action.fault.count):
                        self._submit_burst(burst, s, machine)
            else:
                if action.kind == "throttle-open":
                    self._active_factors[s].append(action.fault.factor)
                else:
                    self._active_factors[s].remove(action.fault.factor)
                self._engine.set_frequency_scale(
                    fleet, _throttle_scale(self._active_factors[s])
                )

    def advance(self, max_epochs: Optional[int] = None) -> int:
        """Step at most ``max_epochs`` epochs (all of them when None).

        Returns the number stepped, which falls short only at the horizon.
        A callback on :attr:`progress` gets a payload every 64 epochs and
        one with ``done=True`` once the horizon is reached; one exposing
        ``epoch_sample`` (a ``MetricsEmitter`` with a series budget, see
        :mod:`repro.obs.series`) also gets a read-only reading per epoch.
        """
        if max_epochs is not None and max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        budget = float("inf") if max_epochs is None else max_epochs
        engine = self._engine
        progress = self.progress
        sampler = None if progress is None else getattr(progress, "epoch_sample", None)
        stepped = 0
        while stepped < budget and not self.finished:
            if self._segment_target is None:
                until = self._segments[self._segment_index][0]
                self._segment_target = engine.time_seconds + (
                    until - engine.time_seconds
                )
            if engine.time_seconds < self._segment_target - 1e-12:
                engine.run_epoch()
                stepped += 1
                if sampler is not None:
                    sampler(self._series_point())
                if progress is not None and engine.stats.epochs % 64 == 0:
                    progress(self.progress_payload())
                continue
            self._apply_boundary_actions(self._segments[self._segment_index][1])
            self._segment_index += 1
            self._segment_target = None
        if self.finished and progress is not None:
            progress(self.progress_payload(done=True))
        return stepped

    # ------------------------------------------------------------------ #
    # Results and pickling
    # ------------------------------------------------------------------ #
    def billing(self) -> List[Optional[TenantBilling]]:
        """Each scenario's billing so far, or None where it is unmetered."""
        return [None if ledger is None else ledger.freeze() for ledger in self._ledgers]

    def results(self) -> List[ScenarioResult]:
        """Per-scenario results so far (final once :attr:`finished`)."""
        engine = self._engine
        return [
            self.sweep._scenario_result(
                scenario,
                self.backend,
                submitted=self._submitted[s],
                completed=self._completed[s],
                machine_counters=map(
                    engine.machine_counters, range(first, first + scenario.machines)
                ),
                ledger=self._ledgers[s],
                fault_counters=self._fault_counters[s],
            )
            for s, (scenario, first) in enumerate(
                zip(self._scenarios, self._machine_offset)
            )
        ]

    def __getstate__(self) -> Dict[str, object]:
        # The engine drops its finish listeners itself (see
        # VectorEngine.__getstate__).
        state = self.__dict__.copy()
        state["progress"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._engine.add_finish_listener(self._on_finish)
