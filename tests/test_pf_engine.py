"""Tests for the simulation engine: progress, counters, metering windows."""

import pytest

from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.invoker import InvocationState
from repro.platform.metering import measure_invocation
from repro.platform.scheduler import DedicatedCoreScheduler, LeastOccupancyScheduler
from repro.workloads.registry import default_registry
from repro.workloads.traffic import GeneratorKind, generator


@pytest.fixture()
def spec():
    return default_registry().scaled(0.1).get("auth-py")


@pytest.fixture()
def heavy_spec():
    return default_registry().scaled(0.1).get("pager-py")


def make_engine(**kwargs):
    cpu = CPU(CASCADE_LAKE_5218, **kwargs.pop("cpu_kwargs", {}))
    scheduler = kwargs.pop("scheduler", DedicatedCoreScheduler())
    return SimulationEngine(cpu, scheduler, **kwargs)


class TestEngineBasics:
    def test_submit_starts_invocation(self, spec):
        engine = make_engine()
        invocation = engine.submit(spec)
        assert invocation.state is InvocationState.RUNNING
        assert invocation.thread_id is not None
        assert engine.active_invocations() == [invocation]

    def test_time_advances_by_epochs(self, spec):
        engine = make_engine(config=EngineConfig(epoch_seconds=2e-3))
        engine.run_epoch()
        assert engine.time_seconds == pytest.approx(2e-3)
        engine.run_for(10e-3)
        assert engine.time_seconds == pytest.approx(12e-3)

    def test_solo_run_completes_and_counts_instructions(self, spec):
        engine = make_engine()
        invocation = engine.submit(spec)
        assert engine.run_until(lambda e: invocation.is_completed, max_seconds=10.0)
        assert invocation.counters.instructions == pytest.approx(
            spec.total_instructions, rel=1e-6
        )
        assert invocation.counters.cycles > 0
        assert invocation.occupied_seconds > 0
        wall_time = invocation.finish_time - invocation.start_time
        assert wall_time >= invocation.occupied_seconds - 1e-9

    def test_startup_window_recorded(self, spec):
        engine = make_engine()
        invocation = engine.submit(spec)
        engine.run_until(lambda e: invocation.startup_recorded, max_seconds=10.0)
        assert invocation.startup_counters is not None
        assert invocation.startup_counters.instructions >= spec.startup_instructions
        assert invocation.machine_counters_at_startup_end is not None

    def test_events_logged_in_order(self, spec):
        engine = make_engine()
        invocation = engine.submit(spec)
        engine.run_until(lambda e: invocation.is_completed, max_seconds=10.0)
        assert (
            invocation.submit_time
            <= invocation.start_time
            <= invocation.startup_end_time
            <= invocation.finish_time
        )

    def test_completed_invocations_filtering(self, spec, heavy_spec):
        engine = make_engine()
        a = engine.submit(spec, tags={"role": "test"})
        b = engine.submit(heavy_spec, tags={"role": "churn"})
        engine.run_until(lambda e: a.is_completed and b.is_completed, max_seconds=20.0)
        assert len(engine.completed_invocations()) == 2
        assert engine.completed_invocations(role="test") == [a]
        assert engine.completed_invocations(abbreviation=heavy_spec.abbreviation) == [b]

    def test_machine_counters_track_invocations(self, spec):
        engine = make_engine()
        invocation = engine.submit(spec)
        engine.run_until(lambda e: invocation.is_completed, max_seconds=10.0)
        assert engine.cpu.global_counters.instructions >= invocation.counters.instructions


class TestContentionEffects:
    def test_corunning_slows_execution(self, heavy_spec):
        solo_engine = make_engine()
        solo = solo_engine.submit(heavy_spec)
        solo_engine.run_until(lambda e: solo.is_completed, max_seconds=20.0)

        congested_engine = make_engine()
        victim = congested_engine.submit(heavy_spec, thread_id=0)
        for index, gen_spec in enumerate(generator(GeneratorKind.MB, 16).thread_specs()):
            congested_engine.submit(gen_spec, thread_id=index + 1)
        congested_engine.run_until(lambda e: victim.is_completed, max_seconds=40.0)

        solo_time = measure_invocation(solo).t_total_seconds
        congested_time = measure_invocation(victim).t_total_seconds
        assert congested_time > solo_time * 1.05

    def test_congestion_inflates_shared_more_than_private(self, heavy_spec):
        solo_engine = make_engine()
        solo = solo_engine.submit(heavy_spec)
        solo_engine.run_until(lambda e: solo.is_completed, max_seconds=20.0)
        congested_engine = make_engine()
        victim = congested_engine.submit(heavy_spec, thread_id=0)
        for index, gen_spec in enumerate(generator(GeneratorKind.MB, 16).thread_specs()):
            congested_engine.submit(gen_spec, thread_id=index + 1)
        congested_engine.run_until(lambda e: victim.is_completed, max_seconds=40.0)

        solo_measure = measure_invocation(solo)
        congested_measure = measure_invocation(victim)
        shared_inflation = congested_measure.t_shared_seconds / solo_measure.t_shared_seconds
        private_inflation = congested_measure.t_private_seconds / solo_measure.t_private_seconds
        assert shared_inflation > private_inflation
        assert private_inflation < 1.3


class TestTemporalSharing:
    def test_two_functions_share_a_thread(self, spec):
        engine = make_engine(scheduler=LeastOccupancyScheduler(max_per_thread=4))
        a = engine.submit(spec, thread_id=0)
        b = engine.submit(spec, thread_id=0)
        engine.run_until(lambda e: a.is_completed and b.is_completed, max_seconds=20.0)
        assert a.mean_thread_occupancy > 1.0
        assert a.counters.context_switches > 0

    def test_sharing_inflates_private_time(self, spec):
        solo_engine = make_engine()
        solo = solo_engine.submit(spec)
        solo_engine.run_until(lambda e: solo.is_completed, max_seconds=20.0)

        shared_engine = make_engine(scheduler=LeastOccupancyScheduler(max_per_thread=10))
        shared = [shared_engine.submit(spec, thread_id=0) for _ in range(6)]
        shared_engine.run_until(
            lambda e: all(s.is_completed for s in shared), max_seconds=60.0
        )
        solo_private = measure_invocation(solo).t_private_seconds
        shared_private = measure_invocation(shared[0]).t_private_seconds
        assert shared_private > solo_private
        # The inflation is the saturating switching overhead, i.e. a few percent.
        assert shared_private < solo_private * 1.1


class TestRunUntil:
    def test_returns_false_when_budget_exhausted(self, spec):
        engine = make_engine()
        engine.submit(spec)
        assert engine.run_until(lambda e: False, max_seconds=0.01) is False

    def test_validates_arguments(self, spec):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.run_until(lambda e: True, max_seconds=0)
        with pytest.raises(ValueError):
            engine.run_for(-1)
