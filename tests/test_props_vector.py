"""Property-based tests: vector backend vs scalar engine on random fleets.

The vector backend replicates the scalar engine's per-invocation arithmetic
operation for operation, so randomized fleets — random profiles, phase
structures, placements and schedules — must agree within a tight relative
tolerance (per-invocation counters are in fact bit-exact; the machine-wide
accumulators differ only in floating-point fold order).

The engine's narrow work (per-machine queueing in a small fleet, the last
few lanes of an epoch's advancement, the runnable order's in-place patches)
has a NumPy or rebuild twin on the other side of a cutoff; the last tests
check both sides bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cache import CacheDemand, SharedCacheModel
from repro.hardware.contention import (
    ContentionModel,
    ContentionParameters,
    WorkloadDemand,
)
from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine
from repro.platform.batch import vector_engine
from repro.platform.batch.vector_engine import _DEDUPE_POW_LANES
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.scheduler import LeastOccupancyScheduler
from repro.workloads.function import FunctionSpec
from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.runtimes import Language

RTOL = 1e-9

profile_values = st.tuples(
    st.floats(min_value=0.3, max_value=2.0),    # cpi_base
    st.floats(min_value=0.0, max_value=8.0),    # l2_mpki
    st.floats(min_value=0.0, max_value=64.0),   # working_set_mb
    st.floats(min_value=0.0, max_value=1.0),    # solo_l3_hit_fraction
    st.floats(min_value=1.0, max_value=8.0),    # mlp
)


def _spec(index, phase_params, *, language=Language.PYTHON, startup_scale=1.0):
    phases = tuple(
        ExecutionPhase(
            name=f"body-{p}",
            kind=PhaseKind.BODY,
            instructions=instructions * 1e6,
            profile=ResourceProfile(
                cpi_base=cpi,
                l2_mpki=mpki,
                working_set_mb=ws,
                solo_l3_hit_fraction=hit,
                mlp=mlp,
            ),
        )
        for p, (instructions, (cpi, mpki, ws, hit, mlp)) in enumerate(phase_params)
    )
    return FunctionSpec(
        name=f"prop-{index}",
        abbreviation=f"prop-{index}",
        language=language,
        suite="property",
        memory_mb=128,
        body_phases=phases,
        startup_scale=startup_scale,
    )


fleet_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # thread id
        st.lists(
            st.tuples(st.floats(min_value=0.5, max_value=30.0), profile_values),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=10,
)


@given(fleet_strategy, st.integers(min_value=20, max_value=120))
@settings(max_examples=25, deadline=None)
def test_vector_engine_matches_scalar_on_random_fleets(raw_fleet, epochs):
    scalar = SimulationEngine(
        CPU(CASCADE_LAKE_5218), LeastOccupancyScheduler(), config=EngineConfig()
    )
    vector = VectorEngine(CASCADE_LAKE_5218)
    s_invs, v_invs = [], []
    for index, (thread_id, phase_params) in enumerate(raw_fleet):
        spec = _spec(index, phase_params)
        s_invs.append(scalar.submit(spec, thread_id=thread_id))
        v_invs.append(vector.submit(spec, thread_id=thread_id))
    for _ in range(epochs):
        scalar.run_epoch()
        vector.run_epoch()

    assert vector.stats.completions == len(scalar.completed_invocations())
    for s_inv, v_inv in zip(s_invs, v_invs):
        vector._sync_handle_counters(v_inv.invocation_id)
        s_counters = s_inv.counters.snapshot()
        v_counters = v_inv.counters.snapshot()
        for field in (
            "cycles",
            "instructions",
            "stall_cycles_l2_miss",
            "l2_misses",
            "l3_misses",
            "elapsed_seconds",
        ):
            assert getattr(v_counters, field) == pytest.approx(
                getattr(s_counters, field), rel=RTOL, abs=1e-9
            )
        assert v_inv.finish_time == s_inv.finish_time
        assert v_inv.is_completed == s_inv.is_completed

    s_machine = scalar.cpu.global_counters
    v_machine = vector.machine_counters(0)
    assert v_machine.instructions == pytest.approx(s_machine.instructions, rel=RTOL, abs=1e-9)
    assert v_machine.cycles == pytest.approx(s_machine.cycles, rel=RTOL, abs=1e-9)


def _water_fill(engine, rates, needs, hits, m_of):
    """``engine._water_fill``'s hit fractions, told (as ``run_epoch``
    tells it) whether every need is positive.  When every lane is active it
    also hands back each machine's total rate, the ring's lookups."""
    hit_fractions, lookups = engine._water_fill(
        rates, needs, hits, m_of, needs.min() > 0.0
    )
    all_active = bool(np.all((rates > 0.0) & (needs > 0.0)))
    assert (lookups is not None) == all_active
    if all_active:
        expected = np.bincount(m_of, weights=rates, minlength=engine.machines)
        assert lookups.tolist() == expected.tolist()
    return hit_fractions


cache_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5e9),   # request rate
        st.floats(min_value=0.0, max_value=200.0),  # working set MB
        st.floats(min_value=0.0, max_value=1.0),    # solo hit fraction
    ),
    min_size=1,
    max_size=32,
)


@given(cache_entries)
@settings(max_examples=80, deadline=None)
def test_vector_water_fill_is_bit_exact_vs_cache_model(raw):
    """The vectorized water-fill reproduces SharedCacheModel bit for bit."""
    model = ContentionModel(CASCADE_LAKE_5218)
    engine = VectorEngine(CASCADE_LAKE_5218)
    demands = [
        WorkloadDemand(
            workload_id=index,
            l2_miss_rate=rate,
            working_set_mb=ws,
            solo_l3_hit_fraction=hit,
        )
        for index, (rate, ws, hit) in enumerate(raw)
    ]
    penalties = model.evaluate(demands)
    rates = np.array([d.l2_miss_rate for d in demands])
    needs = np.minimum(
        np.array([d.working_set_mb for d in demands]), CASCADE_LAKE_5218.l3.size_mb
    )
    hits = np.array([d.solo_l3_hit_fraction for d in demands])
    result = _water_fill(engine, rates, needs, hits, np.zeros(len(demands), dtype=np.int64))
    for index, demand in enumerate(demands):
        assert result[index] == penalties[demand.workload_id].l3_hit_fraction


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_utility_curve_matches_python_pow(coverage, exponent):
    """math.pow (libm) is what the scalar engine's ``**`` resolves to."""
    assert math.pow(coverage, exponent) == coverage**exponent


def test_water_fill_matches_on_multiple_machines():
    """Per-machine water-fill equals running the scalar model per machine.

    The second fleet is past ``_DEDUPE_POW_LANES``, where the utility
    curve's ``pow`` runs once per distinct coverage value; each of its
    machines repeats a few demands, so that coverage values repeat.
    """
    rng = np.random.default_rng(42)
    model = SharedCacheModel(capacity_mb=CASCADE_LAKE_5218.l3.size_mb)
    large = _DEDUPE_POW_LANES // 8 + 8
    for machines, per_machine, distinct in ((3, 9, 9), (8, large, 5)):
        engine = VectorEngine(CASCADE_LAKE_5218, machines=machines)
        rates, needs, hits, m_of, expected = [], [], [], [], []
        for machine in range(machines):
            drawn = [
                (
                    float(rng.uniform(0, 2e9)),
                    float(rng.uniform(0, 60)),
                    float(rng.uniform(0, 1)),
                )
                for _ in range(distinct)
            ]
            demands = [
                CacheDemand(
                    workload_id=i,
                    request_rate=drawn[i % distinct][0],
                    working_set_mb=drawn[i % distinct][1],
                    solo_hit_fraction=drawn[i % distinct][2],
                )
                for i in range(per_machine)
            ]
            allocations = model.allocate(demands)
            for demand in demands:
                rates.append(demand.request_rate)
                needs.append(min(demand.working_set_mb, CASCADE_LAKE_5218.l3.size_mb))
                hits.append(demand.solo_hit_fraction)
                m_of.append(machine)
                expected.append(allocations[demand.workload_id].hit_fraction)
        result = _water_fill(
            engine, np.array(rates), np.array(needs), np.array(hits), np.array(m_of)
        )
        assert result.tolist() == expected


@given(cache_entries)
@settings(max_examples=40, deadline=None)
def test_large_fleet_water_fill_is_bit_exact_vs_contention_model(raw):
    """Past ``_DEDUPE_POW_LANES`` lanes, each machine's hit fractions equal
    ``ContentionModel``'s for that machine's demands.  Every machine runs
    the drawn entries, rotated by its index, so coverage values repeat."""
    model = ContentionModel(CASCADE_LAKE_5218)
    machines = -(-_DEDUPE_POW_LANES // len(raw))
    engine = VectorEngine(CASCADE_LAKE_5218, machines=machines)
    rates, needs, hits, m_of, expected = [], [], [], [], []
    for machine in range(machines):
        shift = machine % len(raw)
        demands = [
            WorkloadDemand(
                workload_id=index,
                l2_miss_rate=rate,
                working_set_mb=ws,
                solo_l3_hit_fraction=hit,
            )
            for index, (rate, ws, hit) in enumerate(raw[shift:] + raw[:shift])
        ]
        penalties = model.evaluate(demands)
        for demand in demands:
            rates.append(demand.l2_miss_rate)
            needs.append(min(demand.working_set_mb, CASCADE_LAKE_5218.l3.size_mb))
            hits.append(demand.solo_l3_hit_fraction)
            m_of.append(machine)
            expected.append(penalties[demand.workload_id].l3_hit_fraction)
    assert len(rates) >= _DEDUPE_POW_LANES
    result = _water_fill(
        engine, np.array(rates), np.array(needs), np.array(hits), np.array(m_of)
    )
    assert result.tolist() == expected


# --------------------------------------------------------------------- #
# Narrow work on both sides of its cutoff, bit for bit
# --------------------------------------------------------------------- #
def _hexed(values):
    return [value.hex() for value in np.asarray(values, dtype=float).ravel().tolist()]


#: A machine's ring or memory load as a share of its peak; past the
#: maximum utilization the clamp applies.
peak_shares = st.floats(min_value=0.0, max_value=2.0)


@given(
    st.lists(st.tuples(peak_shares, peak_shares), min_size=1, max_size=48),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_queueing_loop_equals_numpy_rows(
    loads, ring_queueing, memory_queueing, pressure, max_utilization
):
    """Below ``_NUMPY_QUEUEING_MACHINES`` a fleet's ring and memory
    latencies and private inflation come from one Python loop over its
    machines; the loop equals the NumPy rows in ``float.hex`` at every
    fleet size, whichever side of the cutoff it is on."""
    engine = VectorEngine(
        CASCADE_LAKE_5218,
        machines=len(loads),
        contention_parameters=ContentionParameters(
            ring_queueing_coefficient=ring_queueing,
            memory_queueing_coefficient=memory_queueing,
            private_pressure_sensitivity=pressure,
            max_utilization=max_utilization,
        ),
    )
    ring_peak, memory_peak = engine._peaks[:, 0]
    lookups = np.array([ring for ring, _ in loads]) * ring_peak
    dram_bytes = np.array([memory for _, memory in loads]) * memory_peak
    looped = engine._queueing_loop(lookups, dram_bytes)
    assert looped.shape == (3, len(loads))
    assert _hexed(looped) == _hexed(engine._queueing_numpy(lookups, dram_bytes))


#: Lanes with short startup (probe) windows and short phases, so that an
#: epoch often crosses several phases and closes a probe window mid-pass.
tail_fleet_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # thread id
        st.sampled_from(tuple(Language)),
        st.floats(min_value=0.002, max_value=0.1),  # startup scale
        st.lists(
            st.tuples(st.floats(min_value=0.001, max_value=2.0), profile_values),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=16,
)


def _run_tail_fleet(raw_fleet, epochs, tail_lanes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector_engine, "_TAIL_LANES", tail_lanes)
        engine = VectorEngine(CASCADE_LAKE_5218)
        handles = [
            engine.submit(
                _spec(index, phases, language=language, startup_scale=scale),
                thread_id=thread,
            )
            for index, (thread, language, scale, phases) in enumerate(raw_fleet)
        ]
        for _ in range(epochs):
            engine.run_epoch()
    return engine, handles


@given(tail_fleet_strategy, st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_tail_lanes_equal_numpy_passes(raw_fleet, epochs):
    """Finishing every pass after the first one lane at a time in Python
    floats (``_TAIL_LANES`` past any fleet) equals NumPy passes over the
    live lanes (``_TAIL_LANES = 0``) bit for bit: every lane's state, its
    phase, the machine counters, the Litmus startup snapshots and the
    number of advancement passes counted."""
    numpy_run, numpy_handles = _run_tail_fleet(raw_fleet, epochs, 0)
    tail_run, tail_handles = _run_tail_fleet(raw_fleet, epochs, 10**6)
    assert numpy_run.stats.tail_lanes == 0
    assert tail_run.stats.advance_passes == numpy_run.stats.advance_passes
    assert tail_run.stats.completions == numpy_run.stats.completions
    assert _hexed(tail_run._state) == _hexed(numpy_run._state)
    assert tail_run.phase_column.tolist() == numpy_run.phase_column.tolist()
    assert tail_run.machine_counters(0) == numpy_run.machine_counters(0)
    for tail_handle, numpy_handle in zip(tail_handles, numpy_handles):
        assert tail_handle.startup_counters == numpy_handle.startup_counters
        assert tail_handle.finish_time == numpy_handle.finish_time


#: What the churn listener does at a completion: resubmit on the finishing
#: thread (the run-queue lengths stay), on the next thread, not at all, or
#: twice on the finishing thread.
churn_moves = st.sampled_from(("same", "next", "drop", "twice"))


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    st.lists(st.floats(min_value=1e4, max_value=3e6), min_size=1, max_size=3),
    st.lists(churn_moves, min_size=1, max_size=16),
    st.booleans(),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_patched_order_equals_a_rebuild(threads, lengths, moves, layout_changes, epochs):
    """After any mix of submissions and completions the runnable order,
    patched in place where the run-queue lengths stayed, equals one built
    from scratch.  Without layout changes every order after the first is a
    patch and the first lane plan serves the whole run."""
    engine = VectorEngine(CASCADE_LAKE_5218, materialize_handles=False)
    specs = [
        _spec(index, [(length / 1e6, (1.0, 2.0, 4.0, 0.5, 2.0))],
              language=Language.GO, startup_scale=0.01)
        for index, length in enumerate(lengths)
    ]
    next_move = itertools.cycle(moves if layout_changes else ["same"]).__next__
    next_spec = itertools.cycle(specs).__next__

    def churn(index, eng):
        thread = int(eng.gthread[index])
        move = next_move()
        if move != "drop":
            target = (thread + 1) % 4 if move == "next" else thread
            eng.submit(next_spec(), thread_id=target)
        if move == "twice":
            eng.submit(next_spec(), thread_id=thread)

    engine.add_finish_listener(churn)
    for thread in threads:
        engine.submit(next_spec(), thread_id=thread)
    churned_epochs = 0
    for _ in range(epochs):
        completions = engine.stats.completions
        engine.run_epoch()
        churned_epochs += engine.stats.completions > completions
        rebuilt = [index for queue in engine._queues for index in queue]
        assert engine._runnable_order().tolist() == rebuilt
    if not layout_changes:
        assert engine.stats.lane_plans == 1
        assert engine.stats.order_patches == churned_epochs
