"""Additional engine behaviours: SMT contention, turbo frequency, generators."""

import pytest

from repro.experiments.harness import FigureResult, oracle_for, registry_for
from repro.experiments.config import one_per_core
from repro.hardware.cpu import CPU
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.engine import SimulationEngine
from repro.platform.invoker import InvocationState
from repro.platform.metering import measure_invocation
from repro.platform.scheduler import DedicatedCoreScheduler, LeastOccupancyScheduler
from repro.workloads.function import PhaseCursor
from repro.workloads.registry import default_registry
from repro.workloads.traffic import GeneratorKind, generator


@pytest.fixture(scope="module")
def tiny_registry():
    return default_registry().scaled(0.05)


class TestSMTExecution:
    def _run_pair(self, spec, thread_a, thread_b):
        cpu = CPU(CASCADE_LAKE_5218, smt_enabled=True)
        engine = SimulationEngine(cpu, LeastOccupancyScheduler(max_per_thread=1))
        a = engine.submit(spec, thread_id=thread_a)
        b = engine.submit(spec, thread_id=thread_b)
        assert engine.run_until(
            lambda e: a.is_completed and b.is_completed, max_seconds=30.0
        )
        return measure_invocation(a).t_total_seconds

    def test_smt_siblings_slower_than_separate_cores(self, tiny_registry):
        spec = tiny_registry.get("aes-go")
        separate_cores = self._run_pair(spec, 0, 1)
        # Threads 0 and 32 are the two SMT contexts of physical core 0.
        smt_siblings = self._run_pair(spec, 0, CASCADE_LAKE_5218.cores)
        assert smt_siblings > separate_cores * 1.2


class TestTurboFrequency:
    def test_single_function_runs_faster_with_turbo(self, tiny_registry):
        spec = tiny_registry.get("fib-go")
        durations = {}
        for policy in (FrequencyPolicy.FIXED, FrequencyPolicy.TURBO):
            engine = SimulationEngine(
                CPU(CASCADE_LAKE_5218, frequency_policy=policy), DedicatedCoreScheduler()
            )
            invocation = engine.submit(spec)
            assert engine.run_until(lambda e: invocation.is_completed, max_seconds=30.0)
            durations[policy] = measure_invocation(invocation).t_total_seconds
        # A lone function rides the maximum turbo bin and finishes sooner.
        assert durations[FrequencyPolicy.TURBO] < durations[FrequencyPolicy.FIXED]


class TestTrafficGeneratorExecution:
    def test_generators_never_finish_and_are_not_probed(self):
        engine = SimulationEngine(CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler())
        generator_spec = generator(GeneratorKind.CT, 1).thread_specs()[0]
        invocation = engine.submit(generator_spec, thread_id=0)
        engine.run_for(0.05)
        assert invocation.state is InvocationState.RUNNING
        assert not invocation.startup_recorded
        assert invocation.counters.instructions > 0

    def test_generator_cursor_reports_startup_complete(self):
        cursor = PhaseCursor(generator(GeneratorKind.CT, 1).thread_specs()[0])
        assert cursor.startup_complete
        assert not cursor.finished


class TestHarnessCaches:
    def test_registry_and_oracle_are_shared_per_scale(self):
        config = one_per_core()
        assert registry_for(config) is registry_for(config)
        spec = registry_for(config).test_functions()[0]
        assert oracle_for(config).profile(spec) is oracle_for(config).profile(spec)

    def test_figure_result_render_contains_columns_and_summary(self):
        result = FigureResult(
            name="demo",
            description="Demo figure",
            columns=("function", "value"),
            rows=({"function": "aes-py", "value": 1.25},),
            summary={"gmean": 1.25},
        )
        rendered = result.render()
        assert "Demo figure" in rendered
        assert "aes-py" in rendered
        assert "gmean = 1.2500" in rendered
