"""Property-based tests: vector backend vs scalar engine on random fleets.

The vector backend replicates the scalar engine's per-invocation arithmetic
operation for operation, so randomized fleets — random profiles, phase
structures, placements and schedules — must agree within a tight relative
tolerance (per-invocation counters are in fact bit-exact; the machine-wide
accumulators differ only in floating-point fold order).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cache import CacheDemand, SharedCacheModel
from repro.hardware.contention import ContentionModel, WorkloadDemand
from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine
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


def _spec(index, phase_params):
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
        language=Language.PYTHON,
        suite="property",
        memory_mb=128,
        body_phases=phases,
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
    result = engine._water_fill(
        rates, needs, hits, np.zeros(len(demands), dtype=np.int64)
    )
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
        result = engine._water_fill(
            np.array(rates), np.array(needs), np.array(hits), np.array(m_of)
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
    result = engine._water_fill(
        np.array(rates), np.array(needs), np.array(hits), np.array(m_of)
    )
    assert result.tolist() == expected
