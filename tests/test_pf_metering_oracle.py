"""Tests for metering, the solo oracle, sandboxes and invocations."""

import pytest

from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218, ICE_LAKE_4314
from repro.platform.engine import SimulationEngine
from repro.platform.invoker import Invocation, InvocationState
from repro.platform.metering import measure_invocation, measure_startup
from repro.platform.oracle import SoloOracle
from repro.platform.sandbox import Sandbox
from repro.platform.scheduler import DedicatedCoreScheduler
from repro.workloads.registry import default_registry
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind, generator


@pytest.fixture(scope="module")
def tiny_registry():
    return default_registry().scaled(0.05)


@pytest.fixture(scope="module")
def completed_invocation(tiny_registry):
    engine = SimulationEngine(CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler())
    invocation = engine.submit(tiny_registry.get("aes-py"))
    assert engine.run_until(lambda e: invocation.is_completed, max_seconds=20.0)
    return invocation


class TestSandbox:
    def test_memory_gb(self):
        sandbox = Sandbox(sandbox_id=1, memory_mb=512, language=Language.PYTHON)
        assert sandbox.memory_gb == pytest.approx(0.5)

    def test_rejects_non_positive_memory(self):
        with pytest.raises(ValueError):
            Sandbox(sandbox_id=1, memory_mb=0, language=Language.GO)


class TestInvocationLifecycle:
    def test_cannot_finish_before_start(self, tiny_registry):
        spec = tiny_registry.get("aes-py")
        invocation = Invocation(
            invocation_id=1,
            spec=spec,
            sandbox=Sandbox(1, spec.memory_mb, spec.language),
            submit_time=0.0,
        )
        assert invocation.state is InvocationState.PENDING
        with pytest.raises(ValueError):
            invocation.mark_finished(1.0)

    def test_role_default(self, tiny_registry):
        spec = tiny_registry.get("aes-py")
        invocation = Invocation(
            invocation_id=1,
            spec=spec,
            sandbox=Sandbox(1, spec.memory_mb, spec.language),
            submit_time=0.0,
        )
        assert invocation.role() == "unspecified"

    def test_occupancy_tracking(self, tiny_registry):
        spec = tiny_registry.get("aes-py")
        invocation = Invocation(
            invocation_id=1,
            spec=spec,
            sandbox=Sandbox(1, spec.memory_mb, spec.language),
            submit_time=0.0,
        )
        assert invocation.mean_thread_occupancy == 1.0
        invocation.observe_occupancy(4, 1.0)
        invocation.observe_occupancy(2, 1.0)
        assert invocation.mean_thread_occupancy == pytest.approx(3.0)


class TestMetering:
    def test_measurement_splits_time(self, completed_invocation):
        measurement = measure_invocation(completed_invocation)
        assert measurement.t_total_seconds == pytest.approx(
            measurement.occupied_seconds, rel=1e-9
        )
        assert 0.0 < measurement.shared_fraction < 1.0
        assert measurement.ipc > 0

    def test_startup_measurement(self, completed_invocation):
        startup = measure_startup(completed_invocation)
        assert startup.language == "python"
        assert startup.instructions >= completed_invocation.spec.startup_instructions
        assert startup.t_total_seconds < measure_invocation(completed_invocation).t_total_seconds
        assert startup.machine_l3_misses > 0

    def test_measure_requires_completion(self, tiny_registry):
        engine = SimulationEngine(CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler())
        invocation = engine.submit(tiny_registry.get("aes-py"))
        with pytest.raises(ValueError, match="has not completed"):
            measure_invocation(invocation)

    def test_measure_startup_requires_window(self, tiny_registry):
        engine = SimulationEngine(CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler())
        invocation = engine.submit(tiny_registry.get("aes-py"))
        with pytest.raises(ValueError, match="no recorded startup"):
            measure_startup(invocation)


class TestSoloOracle:
    def test_profiles_are_cached(self, tiny_registry):
        oracle = SoloOracle(CASCADE_LAKE_5218)
        spec = tiny_registry.get("auth-go")
        first = oracle.profile(spec)
        second = oracle.profile(spec)
        assert first is second

    def test_profile_contains_startup(self, tiny_registry):
        oracle = SoloOracle(CASCADE_LAKE_5218)
        profile = oracle.profile(tiny_registry.get("auth-go"))
        assert profile.startup is not None
        assert profile.t_total_seconds > 0

    def test_rejects_traffic_generators(self):
        oracle = SoloOracle(CASCADE_LAKE_5218)
        with pytest.raises(ValueError):
            oracle.profile(generator(GeneratorKind.CT, 1).thread_specs()[0])

    def test_different_machines_give_different_times(self, tiny_registry):
        spec = tiny_registry.get("recogn-py")
        fast = SoloOracle(CASCADE_LAKE_5218).profile(spec)
        slow = SoloOracle(ICE_LAKE_4314).profile(spec)
        # Ice Lake runs at a lower fixed frequency, so the same work takes longer.
        assert slow.t_total_seconds > fast.t_total_seconds
