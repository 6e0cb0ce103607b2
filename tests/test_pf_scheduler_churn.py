"""Tests for schedulers, churn, drivers and the switching-overhead model."""

import pytest

from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.churn import ChurnManager
from repro.platform.drivers import RepeatingSubmitter, SubmitterGroup, WorkQueueDriver
from repro.platform.engine import SimulationEngine
from repro.platform.scheduler import (
    DedicatedCoreScheduler,
    LeastOccupancyScheduler,
    SwitchingOverheadModel,
)
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import WorkloadMixer


@pytest.fixture(scope="module")
def tiny_registry():
    return default_registry().scaled(0.05)


def make_engine(scheduler):
    return SimulationEngine(CPU(CASCADE_LAKE_5218), scheduler)


class TestSwitchingOverheadModel:
    def test_no_overhead_for_dedicated_thread(self):
        assert SwitchingOverheadModel().factor(1) == pytest.approx(1.0)

    def test_monotone_and_saturating(self):
        model = SwitchingOverheadModel()
        factors = [model.factor(n) for n in (1, 2, 5, 10, 20, 40)]
        assert factors == sorted(factors)
        assert factors[-1] <= 1.0 + model.amplitude + 1e-9
        # Figure 14: roughly +2.5 % at ten co-located functions.
        assert model.factor(10) == pytest.approx(1.023, abs=0.005)

    def test_rejects_counts_below_one(self):
        with pytest.raises(ValueError):
            SwitchingOverheadModel().factor(0)


class TestSchedulers:
    def test_dedicated_scheduler_fills_free_threads(self, tiny_registry):
        engine = make_engine(DedicatedCoreScheduler())
        spec = tiny_registry.get("auth-go")
        first = engine.submit(spec)
        second = engine.submit(spec)
        assert first.thread_id != second.thread_id

    def test_dedicated_scheduler_raises_when_full(self, tiny_registry):
        engine = make_engine(DedicatedCoreScheduler(allowed_threads=[0, 1]))
        spec = tiny_registry.get("auth-go")
        engine.submit(spec)
        engine.submit(spec)
        with pytest.raises(RuntimeError, match="at capacity"):
            engine.submit(spec)

    def test_least_occupancy_balances_load(self, tiny_registry):
        engine = make_engine(
            LeastOccupancyScheduler(allowed_threads=[0, 1], max_per_thread=5)
        )
        spec = tiny_registry.get("auth-go")
        invocations = [engine.submit(spec) for _ in range(4)]
        threads = [inv.thread_id for inv in invocations]
        assert threads.count(0) == 2
        assert threads.count(1) == 2

    def test_max_per_thread_validation(self):
        with pytest.raises(ValueError):
            LeastOccupancyScheduler(max_per_thread=0)


class TestChurnManager:
    def test_maintains_target_count(self, tiny_registry):
        engine = make_engine(LeastOccupancyScheduler(max_per_thread=4))
        mixer = WorkloadMixer(tiny_registry.all(), seed=3)
        churn = ChurnManager(mixer, target_count=6, thread_ids=list(range(8)))
        churn.attach(engine)
        assert churn.active_count == 6
        engine.run_for(0.2)
        assert churn.active_count == 6
        assert churn.launched_count > 6  # replacements happened

    def test_zero_target_is_a_noop(self, tiny_registry):
        engine = make_engine(DedicatedCoreScheduler())
        churn = ChurnManager(WorkloadMixer(tiny_registry.all()), target_count=0)
        churn.attach(engine)
        assert churn.active_count == 0

    def test_negative_target_rejected(self, tiny_registry):
        with pytest.raises(ValueError):
            ChurnManager(WorkloadMixer(tiny_registry.all()), target_count=-1)


class TestRepeatingSubmitter:
    def test_runs_exact_repetition_count(self, tiny_registry):
        engine = make_engine(DedicatedCoreScheduler())
        submitter = RepeatingSubmitter(tiny_registry.get("auth-go"), repetitions=3, thread_id=0)
        submitter.attach(engine)
        assert engine.run_until(lambda e: submitter.done, max_seconds=30.0)
        assert len(submitter.completed) == 3
        # Invocations ran back to back on the same thread.
        assert {inv.thread_id for inv in submitter.completed} == {0}

    def test_group_aggregates_by_spec(self, tiny_registry):
        engine = make_engine(DedicatedCoreScheduler())
        specs = [tiny_registry.get("auth-go"), tiny_registry.get("aes-go")]
        group = SubmitterGroup(
            [RepeatingSubmitter(spec, repetitions=2, thread_id=i) for i, spec in enumerate(specs)]
        )
        group.attach(engine)
        assert engine.run_until(lambda e: group.done, max_seconds=30.0)
        by_spec = group.completed_by_spec()
        assert set(by_spec) == {"auth-go", "aes-go"}
        assert all(len(v) == 2 for v in by_spec.values())

    def test_invalid_repetitions(self, tiny_registry):
        with pytest.raises(ValueError):
            RepeatingSubmitter(tiny_registry.get("auth-go"), repetitions=0)


class TestWorkQueueDriver:
    def test_processes_all_items(self, tiny_registry):
        engine = make_engine(LeastOccupancyScheduler(max_per_thread=2))
        items = [tiny_registry.get("auth-go")] * 5 + [tiny_registry.get("aes-go")] * 2
        driver = WorkQueueDriver(items, allowed_threads=[0, 1], max_per_thread=2)
        driver.attach(engine)
        assert engine.run_until(lambda e: driver.done, max_seconds=60.0)
        assert len(driver.completed) == 7
        assert len(driver.completed_by_spec()["auth-go"]) == 5

    def test_respects_max_per_thread(self, tiny_registry):
        engine = make_engine(LeastOccupancyScheduler(max_per_thread=1))
        items = [tiny_registry.get("auth-go")] * 4
        driver = WorkQueueDriver(items, allowed_threads=[0], max_per_thread=1)
        driver.attach(engine)
        assert engine.cpu.thread(0).occupancy == 1
        assert not driver.done
        assert engine.run_until(lambda e: driver.done, max_seconds=60.0)
        assert len(driver.completed) == 4

    def test_requires_threads(self, tiny_registry):
        with pytest.raises(ValueError):
            WorkQueueDriver([tiny_registry.get("auth-go")], allowed_threads=[])
