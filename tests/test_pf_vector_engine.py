"""Unit tests for the NumPy fleet backend (`repro.platform.batch`)."""

import dataclasses

import pytest

from repro.hardware.contention import ContentionModel, ContentionParameters
from repro.hardware.cpu import CPU
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.pmu import CounterSnapshot
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import (
    FleetScenario,
    FleetSweep,
    VectorEngine,
    VectorEngineConfig,
    scenario_grid,
)
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.scheduler import DedicatedCoreScheduler, LeastOccupancyScheduler
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import WorkloadMixer


@pytest.fixture(scope="module")
def registry():
    return default_registry().scaled(0.05)


def _scalar_engine(fast_path=True):
    return SimulationEngine(
        CPU(CASCADE_LAKE_5218),
        LeastOccupancyScheduler(),
        config=EngineConfig(fast_path=fast_path),
    )


class TestVectorEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            VectorEngineConfig(epoch_seconds=0.0)
        with pytest.raises(ValueError):
            VectorEngineConfig(fixed_point_iterations=0)
        with pytest.raises(ValueError):
            VectorEngine(CASCADE_LAKE_5218, machines=0)

    def test_submit_validation(self, registry):
        engine = VectorEngine(CASCADE_LAKE_5218, machines=1)
        spec = registry.get("auth-py")
        with pytest.raises(ValueError):
            engine.submit(spec, machine=1)
        with pytest.raises(ValueError):
            engine.submit(spec, thread_id=10_000)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("cache_utility_exponent", 0.0),
            ("cache_utility_exponent", -0.5),
            ("max_utilization", 1.0),
            ("ring_queueing_coefficient", -1.0),
        ],
    )
    def test_refuses_the_contention_parameters_the_scalar_refuses(self, field, value):
        parameters = ContentionParameters(**{field: value})
        with pytest.raises(ValueError) as scalar:
            ContentionModel(CASCADE_LAKE_5218, parameters)
        with pytest.raises(ValueError) as built:
            VectorEngine(CASCADE_LAKE_5218, contention_parameters=parameters)
        engine = VectorEngine(CASCADE_LAKE_5218)
        with pytest.raises(ValueError) as drifted:
            engine.set_contention_parameters(parameters)
        assert str(built.value) == str(drifted.value) == str(scalar.value)


class TestLanePlans:
    def test_one_plan_per_thread_layout(self, registry):
        """Churn that resubmits on the finishing thread keeps the thread
        layout and so the lane plan; a frequency-scale change and a new
        layout each build one."""
        specs = (registry.get("auth-py"), registry.get("fib-go"))
        engine = VectorEngine(CASCADE_LAKE_5218)
        for thread in range(4):
            for spec in specs:
                engine.submit(spec, thread_id=thread)
        engine.add_finish_listener(
            lambda handle, eng: eng.submit(handle.spec, thread_id=handle.thread_id)
        )
        engine.run_for(0.3)
        assert engine.stats.completions >= 20
        assert engine.stats.lane_plans == 1

        engine.set_frequency_scale(0, 0.8)
        engine.run_for(0.05)
        assert engine.stats.lane_plans == 2

        engine.submit(specs[0], thread_id=0)
        engine.run_for(0.05)
        assert engine.stats.lane_plans == 3


class TestSoloAgreement:
    def test_solo_run_matches_scalar_bit_for_bit(self, registry):
        spec = registry.get("auth-py")
        scalar = SimulationEngine(
            CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler(), config=EngineConfig()
        )
        s_inv = scalar.submit(spec)
        assert scalar.run_until(lambda e: s_inv.is_completed, max_seconds=30.0)

        vector = VectorEngine(CASCADE_LAKE_5218)
        v_inv = vector.submit(spec, thread_id=0)
        assert vector.run_until(lambda e: v_inv.is_completed, max_seconds=30.0)

        assert v_inv.finish_time == s_inv.finish_time
        assert v_inv.counters.snapshot() == s_inv.counters.snapshot()
        assert v_inv.startup_counters == s_inv.startup_counters

    def test_machine_counters_match_scalar(self, registry):
        spec = registry.get("bfs-py")
        scalar = SimulationEngine(
            CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler(), config=EngineConfig()
        )
        s_inv = scalar.submit(spec)
        scalar.run_until(lambda e: s_inv.is_completed, max_seconds=30.0)

        vector = VectorEngine(CASCADE_LAKE_5218)
        v_inv = vector.submit(spec, thread_id=0)
        vector.run_until(lambda e: v_inv.is_completed, max_seconds=30.0)
        assert vector.machine_counters(0) == scalar.cpu.global_counters.snapshot()


class TestColocatedChurnAgreement:
    def test_churn_fleet_matches_scalar(self, registry):
        pool = registry.all()
        cores, colocation, epochs = 3, 4, 600

        mixer_s = WorkloadMixer(pool, seed=7)
        scalar = _scalar_engine()
        s_initial = [
            scalar.submit(mixer_s.next(), thread_id=t)
            for t in range(cores)
            for _ in range(colocation)
        ]
        scalar.add_finish_listener(
            lambda inv, eng: eng.submit(mixer_s.next(), thread_id=inv.thread_id)
        )

        mixer_v = WorkloadMixer(pool, seed=7)
        vector = VectorEngine(CASCADE_LAKE_5218)
        v_initial = [
            vector.submit(mixer_v.next(), thread_id=t)
            for t in range(cores)
            for _ in range(colocation)
        ]
        vector.add_finish_listener(
            lambda handle, eng: eng.submit(mixer_v.next(), thread_id=handle.thread_id)
        )

        for _ in range(epochs):
            scalar.run_epoch()
            vector.run_epoch()

        assert vector.stats.completions == len(scalar.completed_invocations())
        for s_inv, v_inv in zip(s_initial, v_initial):
            vector._sync_handle_counters(v_inv.invocation_id)
            assert v_inv.counters.snapshot() == s_inv.counters.snapshot()
            assert v_inv.finish_time == s_inv.finish_time

    def test_startup_windows_match_scalar(self, registry):
        pool = registry.all()
        mixer_s = WorkloadMixer(pool, seed=3)
        scalar = _scalar_engine()
        for t in range(2):
            for _ in range(3):
                scalar.submit(mixer_s.next(), thread_id=t)
        mixer_v = WorkloadMixer(pool, seed=3)
        vector = VectorEngine(CASCADE_LAKE_5218)
        for t in range(2):
            for _ in range(3):
                vector.submit(mixer_v.next(), thread_id=t)
        for _ in range(400):
            scalar.run_epoch()
            vector.run_epoch()
        s_done = scalar.completed_invocations()
        v_done = vector.completed
        assert len(s_done) == len(v_done)
        for s_inv, v_inv in zip(s_done, v_done):
            assert s_inv.spec.abbreviation == v_inv.spec.abbreviation
            # Per-invocation probe counters are bit-exact; the machine-wide
            # probe snapshot accumulates in a different (vectorized) fold
            # order, so it agrees to rounding noise only.
            assert v_inv.startup_counters == s_inv.startup_counters
            s_l3 = (
                s_inv.machine_counters_at_startup_end.l3_misses
                - s_inv.machine_counters_at_start.l3_misses
            )
            v_l3 = (
                v_inv.machine_counters_at_startup_end.l3_misses
                - v_inv.machine_counters_at_start.l3_misses
            )
            assert v_l3 == pytest.approx(s_l3, rel=1e-9)


class TestTurboAgreement:
    def test_turbo_with_mid_run_throttle_matches_scalar(self, registry):
        """Under turbo the clock follows the busy-thread count.  Finished
        functions are resubmitted on their thread until 0.3 s, so threads
        fall idle one by one near the end; a throttle covers epochs
        150-299."""
        specs = registry.all()[:10]
        threads = (0, 0, 1, 1, 2, 3, 4, 5, 6, 7)
        scalar = SimulationEngine(
            CPU(CASCADE_LAKE_5218, frequency_policy=FrequencyPolicy.TURBO),
            LeastOccupancyScheduler(),
            config=EngineConfig(),
        )
        vector = VectorEngine(CASCADE_LAKE_5218, frequency_policy=FrequencyPolicy.TURBO)

        def resubmit(handle, engine):
            if engine.time_seconds < 0.3:
                engine.submit(handle.spec, thread_id=handle.thread_id)

        for engine in (scalar, vector):
            for spec, thread in zip(specs, threads):
                engine.submit(spec, thread_id=thread)
            engine.add_finish_listener(resubmit)
        for epoch in range(400):
            if epoch in (150, 300):
                scale = 0.7 if epoch == 150 else 1.0
                scalar.set_frequency_scale(scale)
                vector.set_frequency_scale(0, scale)
            scalar.run_epoch()
            vector.run_epoch()

        def order(inv):
            return (inv.finish_time, inv.thread_id, inv.spec.name)

        s_done = sorted(scalar.completed_invocations(), key=order)
        v_done = sorted(vector.completed, key=order)
        assert len(v_done) == len(s_done) > 100
        for s_inv, v_inv in zip(s_done, v_done):
            assert v_inv.spec is s_inv.spec
            assert v_inv.finish_time == s_inv.finish_time
            s_counters = s_inv.counters.snapshot()
            v_counters = v_inv.counters.snapshot()
            for field in dataclasses.fields(CounterSnapshot):
                assert getattr(v_counters, field.name) == pytest.approx(
                    getattr(s_counters, field.name), rel=1e-9, abs=1e-9
                )
        s_machine = scalar.cpu.global_counters.snapshot()
        for field in dataclasses.fields(CounterSnapshot):
            assert getattr(vector.machine_counters(0), field.name) == pytest.approx(
                getattr(s_machine, field.name), rel=1e-9
            )


class TestMultiMachine:
    def test_machines_are_independent(self, registry):
        spec_a = registry.get("pager-py")
        spec_b = registry.get("fib-go")
        fleet = VectorEngine(CASCADE_LAKE_5218, machines=2)
        a_fleet = fleet.submit(spec_a, machine=0, thread_id=0)
        b_fleet = fleet.submit(spec_b, machine=1, thread_id=0)

        solo = VectorEngine(CASCADE_LAKE_5218, machines=1)
        a_solo = solo.submit(spec_a, thread_id=0)
        solo2 = VectorEngine(CASCADE_LAKE_5218, machines=1)
        b_solo = solo2.submit(spec_b, thread_id=0)

        for engine in (fleet, solo, solo2):
            engine.run_for(0.2)
        assert a_fleet.counters.snapshot() == a_solo.counters.snapshot()
        assert b_fleet.counters.snapshot() == b_solo.counters.snapshot()

    def test_cpu_facade_occupancy(self, registry):
        engine = VectorEngine(CASCADE_LAKE_5218)
        spec = registry.get("auth-py")
        engine.submit(spec, thread_id=2)
        engine.submit(spec, thread_id=2)
        assert engine.cpu.thread(2).occupancy == 2
        assert engine.cpu.thread(0).occupancy == 0
        with pytest.raises(KeyError):
            engine.cpu.thread(99999)


class TestFleetSweep:
    def test_backends_agree(self):
        sweep = FleetSweep(
            [FleetScenario(name="t", machines=2, colocation=2, cores_per_machine=3)],
            horizon_seconds=0.25,
            registry_scale=0.05,
        )
        vector, scalar, speedup = sweep.compare()
        assert speedup > 0
        for v, s in zip(vector.scenarios, scalar.scenarios):
            assert v.completed == s.completed
            assert v.submitted == s.submitted
            assert v.instructions == pytest.approx(s.instructions, rel=1e-9)
            assert v.cycles == pytest.approx(s.cycles, rel=1e-9)
            assert v.l3_misses == pytest.approx(s.l3_misses, rel=1e-9)

    def test_scenario_grid(self):
        scenarios = scenario_grid(["all", "memory-intensive"], [1, 2], [1, 4])
        assert len(scenarios) == 8
        names = {s.name for s in scenarios}
        assert "memory-intensive-m2-c4" in names

    def test_render_mentions_fleet_size(self):
        sweep = FleetSweep(
            [FleetScenario(name="r", machines=1, colocation=1, cores_per_machine=2)],
            horizon_seconds=0.05,
            registry_scale=0.05,
        )
        result = sweep.run("vector")
        rendered = result.render()
        assert "Fleet sweep [vector]" in rendered
        assert str(result.fleet_size) in rendered

    def test_unknown_backend_rejected(self):
        sweep = FleetSweep(
            [FleetScenario(name="x")], horizon_seconds=0.05, registry_scale=0.05
        )
        with pytest.raises(ValueError):
            sweep.run("gpu")
