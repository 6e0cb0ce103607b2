"""Property-based tests (hypothesis) for core data structures and invariants."""

import dataclasses
import math
import operator

from hypothesis import given, settings, strategies as st

from repro.analysis.errors import price_error_breakdown
from repro.analysis.stats import geometric_mean
from repro.core.pricing import charging_rate
from repro.core.regression import (
    LinearRegressionModel,
    log_interpolation_weight,
)
from repro.hardware.cache import CacheDemand, SharedCacheModel
from repro.hardware.contention import (
    ContentionModel,
    SharedResourcePenalty,
    WorkloadDemand,
)
from repro.hardware.cpu import CPU
from repro.hardware.memory import MemoryBandwidthModel, MemoryLoad
from repro.hardware.pmu import PMUCounters
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.churn import ChurnManager
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.scheduler import LeastOccupancyScheduler, SwitchingOverheadModel
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import WorkloadMixer
from repro.workloads.traffic import GeneratorKind, generator

_MODEL = ContentionModel(CASCADE_LAKE_5218)

positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------- #
# Cache allocation invariants
# --------------------------------------------------------------------- #
cache_demands = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e9),   # request rate
        st.floats(min_value=0.1, max_value=200.0),  # working set MB
        st.floats(min_value=0.0, max_value=1.0),    # solo hit fraction
    ),
    min_size=1,
    max_size=24,
)


@given(cache_demands)
@settings(max_examples=60, deadline=None)
def test_cache_allocation_invariants(raw_demands):
    model = SharedCacheModel(capacity_mb=22.0)
    demands = [
        CacheDemand(
            workload_id=index,
            request_rate=rate,
            working_set_mb=ws,
            solo_hit_fraction=hit,
        )
        for index, (rate, ws, hit) in enumerate(raw_demands)
    ]
    allocations = model.allocate(demands)
    # Every demand receives an allocation entry.
    assert set(allocations) == {d.workload_id for d in demands}
    active = [d for d in demands if d.request_rate > 0 and d.working_set_mb > 0]
    total_active = sum(allocations[d.workload_id].allocated_mb for d in active)
    # Active workloads never receive more than the cache capacity in total.
    assert total_active <= 22.0 + 1e-6
    for demand in demands:
        allocation = allocations[demand.workload_id]
        assert 0.0 <= allocation.hit_fraction <= demand.solo_hit_fraction + 1e-9
        assert allocation.allocated_mb <= min(demand.working_set_mb, 22.0) + 1e-9


# --------------------------------------------------------------------- #
# Contention model invariants
# --------------------------------------------------------------------- #
workload_demands = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5e8),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=10.0),
    ),
    min_size=1,
    max_size=16,
)


@given(workload_demands)
@settings(max_examples=40, deadline=None)
def test_contention_penalties_are_physical(raw):
    demands = [
        WorkloadDemand(
            workload_id=index,
            l2_miss_rate=rate,
            working_set_mb=ws,
            solo_l3_hit_fraction=hit,
            mlp=mlp,
        )
        for index, (rate, ws, hit, mlp) in enumerate(raw)
    ]
    penalties = _MODEL.evaluate(demands)
    machine = CASCADE_LAKE_5218
    for demand in demands:
        penalty = penalties[demand.workload_id]
        assert 0.0 <= penalty.l3_hit_fraction <= 1.0
        assert penalty.l3_hit_latency_cycles >= machine.l3.latency_cycles - 1e-9
        assert penalty.memory_latency_cycles >= machine.memory_latency_cycles - 1e-9
        assert penalty.private_inflation >= 1.0
        assert penalty.stall_cycles_per_l2_miss(demand.mlp) > 0.0


# --------------------------------------------------------------------- #
# Memory latency monotonicity
# --------------------------------------------------------------------- #
@given(
    st.floats(min_value=0.0, max_value=200e9),
    st.floats(min_value=0.0, max_value=200e9),
)
@settings(max_examples=60, deadline=None)
def test_memory_latency_monotone(load_a, load_b):
    model = MemoryBandwidthModel(peak_bandwidth_gbs=100.0, unloaded_latency_cycles=238.0)
    low, high = sorted((load_a, load_b))
    assert model.effective_latency_cycles(MemoryLoad(low)) <= model.effective_latency_cycles(
        MemoryLoad(high)
    ) + 1e-9


# --------------------------------------------------------------------- #
# PMU counters
# --------------------------------------------------------------------- #
counter_batches = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e9),
        st.floats(min_value=0, max_value=1e9),
        st.floats(min_value=0, max_value=1e9),
    ),
    min_size=1,
    max_size=20,
)


@given(counter_batches)
@settings(max_examples=60, deadline=None)
def test_pmu_accumulation_matches_sum(batches):
    pmu = PMUCounters()
    for cycles, instructions, stalls in batches:
        stalls = min(stalls, cycles)
        pmu.observe(cycles=cycles, instructions=instructions, stall_cycles_l2_miss=stalls)
    assert math.isclose(
        pmu.cycles, sum(c for c, _, _ in batches), rel_tol=1e-9, abs_tol=1e-6
    )
    assert pmu.private_cycles >= 0.0
    # private + shared re-derives cycles through `(cycles - stalls) + stalls`,
    # which floating point does not guarantee to be exact (and the max(.., 0)
    # clamp in private_cycles can absorb a last-ulp accumulation difference
    # between the two sums), so compare with tolerance rather than `==`.
    assert math.isclose(
        pmu.private_cycles + pmu.shared_cycles,
        pmu.cycles,
        rel_tol=1e-9,
        abs_tol=1e-6,
    )
    snapshot = pmu.snapshot()
    assert snapshot.delta(snapshot).cycles == 0.0


# --------------------------------------------------------------------- #
# Regression + interpolation
# --------------------------------------------------------------------- #
@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-10, max_value=10),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=20, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_linear_regression_recovers_exact_lines(slope, intercept, xs):
    ys = [intercept + slope * x for x in xs]
    model = LinearRegressionModel.fit(xs, ys)
    assert math.isclose(model.predict(0.0), intercept, rel_tol=1e-6, abs_tol=1e-6)
    for x, y in zip(xs, ys):
        assert math.isclose(model.predict(x), y, rel_tol=1e-6, abs_tol=1e-5)


@given(positive_floats, positive_floats, positive_floats)
@settings(max_examples=100, deadline=None)
def test_log_interpolation_weight_bounded(value, low, high):
    weight = log_interpolation_weight(value, low, high)
    assert 0.0 <= weight <= 1.0


@given(st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_geometric_mean_within_bounds(values):
    mean = geometric_mean(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


# --------------------------------------------------------------------- #
# Pricing invariants
# --------------------------------------------------------------------- #
@given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.01, max_value=100))
@settings(max_examples=100, deadline=None)
def test_charging_rate_never_exceeds_base(base, slowdown):
    rate = charging_rate(base, slowdown)
    assert 0.0 < rate <= base + 1e-12


@given(
    st.floats(min_value=1, max_value=60),
    st.floats(min_value=1, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_switching_overhead_monotone(count_a, count_b):
    model = SwitchingOverheadModel()
    low, high = sorted((count_a, count_b))
    assert model.factor(low) <= model.factor(high) + 1e-12
    assert model.factor(high) <= 1.0 + model.amplitude + 1e-12


@given(
    st.floats(min_value=0.01, max_value=10),
    st.floats(min_value=0.0, max_value=10),
    st.floats(min_value=0.01, max_value=10),
    st.floats(min_value=0.01, max_value=10),
)
@settings(max_examples=80, deadline=None)
def test_price_error_weighted_components_sum_to_total(lit_private, lit_shared, ideal_private, ideal_shared):
    breakdown = price_error_breakdown(
        function="prop",
        litmus_private=lit_private,
        litmus_shared=lit_shared,
        ideal_private=ideal_private,
        ideal_shared=ideal_shared,
    )
    assert math.isclose(
        breakdown.private_error + breakdown.shared_error,
        breakdown.total_error,
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


# --------------------------------------------------------------------- #
# Engine fast path: skip-ahead must be bit-identical to epoch stepping
# --------------------------------------------------------------------- #
_PROP_SPECS = default_registry().scaled(0.05).all()

#: (spec index, submit epoch, preferred thread) triples — a randomized
#: submission schedule over a pool of temporally shared threads.
submission_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_PROP_SPECS) - 1),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=8,
)


#: Frequency multiplier of the drawn mid-run throttle.
_THROTTLE_SCALE = 0.5


def _run_schedule(
    schedule, fast_path, *, churn=False, generators=0, smt=False, throttle_epoch=None
):
    """Run ``schedule`` on a fresh engine, optionally with the events that
    drop or bypass the fast path's caches: churn resubmitting from a finish
    listener in the same epoch, ``generators`` traffic-generator threads
    (two or more form twin lanes), SMT sibling penalties and a mid-run
    frequency change."""
    cpu = CPU(CASCADE_LAKE_5218, smt_enabled=smt)
    # With SMT on, threads n and n + 16 are siblings: three sibling pairs,
    # whose lanes come before and after the generator threads' lanes.
    threads = [0, 1, 2, 16, 17, 18] if smt else list(range(6))
    engine = SimulationEngine(
        cpu,
        LeastOccupancyScheduler(allowed_threads=threads, max_per_thread=8),
        config=EngineConfig(fast_path=fast_path),
    )
    for spec, thread_id in zip(generator(GeneratorKind.CT, generators).thread_specs(), (8, 9, 10)):
        engine.submit(spec, thread_id=thread_id, tags={"role": "generator"})
    if churn:
        mixer = WorkloadMixer(_PROP_SPECS, seed=7)
        ChurnManager(mixer, target_count=2, thread_ids=threads).attach(engine)
    dt = engine.config.epoch_seconds
    current_epoch = 0

    def run_to(epoch):
        nonlocal current_epoch
        if epoch > current_epoch:
            engine.run_for((epoch - current_epoch) * dt)
            current_epoch = epoch

    submitted = []
    for spec_index, submit_epoch, thread_index in sorted(
        schedule, key=lambda item: item[1]
    ):
        if throttle_epoch is not None and throttle_epoch <= submit_epoch:
            run_to(throttle_epoch)
            engine.set_frequency_scale(_THROTTLE_SCALE)
            throttle_epoch = None
        run_to(submit_epoch)
        submitted.append(
            engine.submit(_PROP_SPECS[spec_index], thread_id=threads[thread_index % 6])
        )
    if throttle_epoch is not None:
        run_to(throttle_epoch)
        engine.set_frequency_scale(_THROTTLE_SCALE)
    finished = engine.run_until(
        lambda eng: all(invocation.is_completed for invocation in submitted),
        max_seconds=120.0,
    )
    assert finished
    return engine, submitted


@given(
    submission_schedules,
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.none() | st.integers(min_value=0, max_value=30),
)
@settings(max_examples=16, deadline=None)
def test_fast_path_bit_identical_to_epoch_stepping(
    schedule, churn, generators, smt, throttle_epoch
):
    """Skip-ahead, penalty memoization and twin lanes must not change one
    bit of state."""
    options = dict(
        churn=churn, generators=generators, smt=smt, throttle_epoch=throttle_epoch
    )
    fast_engine, fast_invocations = _run_schedule(schedule, True, **options)
    slow_engine, slow_invocations = _run_schedule(schedule, False, **options)
    if generators >= 2:
        assert fast_engine.fast_path_stats.twin_lane_epochs > 0

    assert fast_engine.time_seconds == slow_engine.time_seconds
    assert (
        fast_engine.cpu.global_counters.snapshot()
        == slow_engine.cpu.global_counters.snapshot()
    )
    for fast, slow in zip(fast_invocations, slow_invocations):
        assert fast.invocation_id == slow.invocation_id
        assert fast.start_time == slow.start_time
        assert fast.finish_time == slow.finish_time
        assert fast.counters.snapshot() == slow.counters.snapshot()
        assert fast.startup_end_time == slow.startup_end_time
        assert fast.startup_counters == slow.startup_counters
        assert (
            fast.machine_counters_at_startup_end
            == slow.machine_counters_at_startup_end
        )
        assert fast.mean_thread_occupancy == slow.mean_thread_occupancy
    # Churn and generator invocations too, finished or still running.
    lifecycle = operator.attrgetter(
        "thread_id", "submit_time", "start_time", "startup_end_time", "finish_time"
    )
    for group in ("completed_invocations", "active_invocations"):
        fast_group = getattr(fast_engine, group)()
        slow_group = getattr(slow_engine, group)()
        assert [i.invocation_id for i in fast_group] == [i.invocation_id for i in slow_group]
        for fast, slow in zip(fast_group, slow_group):
            assert fast.counters.snapshot() == slow.counters.snapshot()
            assert lifecycle(fast) == lifecycle(slow)


# --------------------------------------------------------------------- #
# Fused contention evaluation == reference evaluation, bit for bit
# --------------------------------------------------------------------- #
#: Like ``workload_demands``, but zero rates and zero working sets are
#: frequent, so the water-fill's inactive-workload branch is exercised.
contention_entries = st.lists(
    st.tuples(
        st.just(0.0) | st.floats(min_value=0.0, max_value=5e8),
        st.just(0.0) | st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=10.0),
    ),
    min_size=1,
    max_size=16,
)


#: Entries shared by twin workloads: like ``contention_entries``, plus
#: working sets small enough that the water-fill caps a class of twins.
class_entries = st.lists(
    st.tuples(
        st.just(0.0) | st.floats(min_value=0.0, max_value=5e8),
        st.just(0.0)
        | st.floats(min_value=0.0, max_value=2.0)
        | st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=10.0),
    ),
    min_size=1,
    max_size=8,
)


def _demands(raw):
    return [
        WorkloadDemand(
            workload_id=index,
            l2_miss_rate=rate,
            working_set_mb=ws,
            solo_l3_hit_fraction=hit,
            mlp=mlp,
        )
        for index, (rate, ws, hit, mlp) in enumerate(raw)
    ]


def _plan(raw, classes=None):
    """A plan with one entry per ``raw`` demand, expanded to the workloads
    ``classes`` lists when given."""
    entries = [(index, ws, hit) for index, (_, ws, hit, _) in enumerate(raw)]
    if classes is None:
        return _MODEL.plan(entries)
    return _MODEL.plan(entries, classes, range(len(classes)))


def _evaluate(raw, classes=None):
    """``evaluate_tuples`` at ``raw``'s rates on :func:`_plan`'s plan."""
    return _MODEL.evaluate_tuples([rate for rate, _, _, _ in raw], _plan(raw, classes))


def _penalty(result, workload_id):
    """The full penalty a compact contention result gives one workload."""
    return SharedResourcePenalty(
        workload_id,
        result.hit_fractions[workload_id],
        result.l3_hit_latency_cycles,
        result.memory_latency_cycles,
        result.ring_utilization,
        result.bandwidth_utilization,
        result.private_inflation,
    )


def _bits(penalty):
    """A penalty's fields with every float as its exact bit pattern."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(penalty)
    )


def _assert_same_penalties(result, reference):
    assert set(result.hit_fractions) == set(reference)
    for workload_id, penalty in reference.items():
        assert _bits(_penalty(result, workload_id)) == _bits(penalty)


@given(contention_entries, st.data())
@settings(max_examples=60, deadline=None)
def test_evaluate_tuples_matches_evaluate(raw, data):
    """Bit for bit, with one entry per workload and with entries shared by
    several workloads (twins) in a shuffled workload order."""
    _assert_same_penalties(_evaluate(raw), _MODEL.evaluate(_demands(raw)))

    shared = data.draw(class_entries)
    repeats = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(shared) - 1), max_size=16)
    )
    classes = data.draw(st.permutations(list(range(len(shared))) + repeats))
    _assert_same_penalties(
        _evaluate(shared, classes),
        _MODEL.evaluate(_demands([shared[position] for position in classes])),
    )


def _assert_reproduces_like_penalties(previous, current):
    previous_penalties = {i: _penalty(previous, i) for i in previous.hit_fractions}
    current_penalties = {i: _penalty(current, i) for i in current.hit_fractions}
    for newer, older, older_penalties in (
        (current, previous, previous_penalties),
        (previous, current, current_penalties),
    ):
        expected = all(
            older_penalties.get(i) == _penalty(newer, i) for i in newer.hit_fractions
        )
        assert newer.reproduces(older) == expected
    assert previous.reproduces(previous)


@given(
    contention_entries,
    contention_entries,
    st.integers(min_value=0, max_value=16),
    class_entries,
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_reproduces_decides_like_penalty_equality(raw_a, raw_b, overlap, shared, data):
    """Convergence on compact results == comparing the penalty maps, for
    results of two plans (compared by workload) and of one plan (compared
    by entry)."""
    # ``raw_b`` shares a prefix of ``raw_a``'s workloads (same ids, same
    # demands) so equal results occur, not just disjoint ones.
    _assert_reproduces_like_penalties(_evaluate(raw_a), _evaluate(raw_a[:overlap] + raw_b))

    # One plan, with and without twins, at two rate vectors that share a
    # prefix of their rates.
    repeats = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(shared) - 1), max_size=8)
    )
    for classes in (None, data.draw(st.permutations(list(range(len(shared))) + repeats))):
        plan = _plan(shared, classes)
        rates = [rate for rate, _, _, _ in shared]
        other = rates[:overlap] + [rate for rate, _, _, _ in raw_b] + rates
        previous = _MODEL.evaluate_tuples(rates, plan)
        current = _MODEL.evaluate_tuples(other[: len(rates)], plan)
        assert current.lanes is previous.lanes
        _assert_reproduces_like_penalties(previous, current)


#: An L2-miss rate; zero is frequent.
miss_rates = st.just(0.0) | st.floats(min_value=0.0, max_value=5e8)


@given(class_entries, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_one_plan_serves_every_rate_vector(shared, twins, data):
    """A plan holds nothing that depends on the rates: one plan, evaluated
    at several drawn rate vectors, at all-zero rates and with a single zero
    rate, matches ``evaluate()`` bit for bit every time."""
    classes = None
    lanes = list(range(len(shared)))
    if twins:
        repeats = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(shared) - 1), max_size=16)
        )
        classes = lanes = data.draw(st.permutations(lanes + repeats))
    plan = _plan(shared, classes)
    size = len(shared)
    vectors = data.draw(
        st.lists(st.lists(miss_rates, min_size=size, max_size=size), min_size=1, max_size=4)
    )
    single_zero = data.draw(
        st.lists(
            st.floats(min_value=1.0, max_value=5e8), min_size=size, max_size=size
        )
    )
    single_zero[data.draw(st.integers(min_value=0, max_value=size - 1))] = 0.0
    for rates in vectors + [[0.0] * size, single_zero]:
        expected = _MODEL.evaluate(
            _demands([(rates[position],) + shared[position][1:] for position in lanes])
        )
        _assert_same_penalties(_MODEL.evaluate_tuples(rates, plan), expected)


@given(class_entries, class_entries, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_refreshed_plan_evaluates_like_a_fresh_one(shared, replacements, twins, data):
    """Replacing plan entries that keep their footprint flag (the engine's
    row refresh) keeps the lane map and evaluates, bit for bit, like the
    reference at the new entries; an entry that gains or loses its
    footprint is refused."""
    classes = None
    lanes = list(range(len(shared)))
    if twins:
        repeats = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(shared) - 1), max_size=8)
        )
        classes = lanes = data.draw(st.permutations(lanes + repeats))
    plan = _plan(shared, classes)
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(shared) - 1),
            unique=True,
            max_size=len(replacements),
        )
    )
    new = list(shared)
    changes = {}
    for position, (_, ws, hit, _) in zip(positions, replacements):
        if (ws > 0) != (shared[position][1] > 0):
            try:
                _MODEL.refresh(plan, {position: (position, ws, hit)})
            except ValueError:
                continue
            raise AssertionError("a footprint flip was accepted")
        new[position] = (shared[position][0], ws, hit, shared[position][3])
        changes[position] = (position, ws, hit)
    refreshed = _MODEL.refresh(plan, changes)
    assert refreshed.lanes is plan.lanes
    rates = [rate for rate, _, _, _ in shared]
    expected = _MODEL.evaluate(_demands([new[position] for position in lanes]))
    _assert_same_penalties(_MODEL.evaluate_tuples(rates, refreshed), expected)
