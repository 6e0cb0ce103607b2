"""Unit tests for the engine fast path's penalty-signature cache and stats."""

import dataclasses

import pytest

from repro.core.calibration import Calibrator
from repro.core.litmus_test import probe_spec
from repro.core.persistence import calibration_to_dict
from repro.experiments.config import one_per_core
from repro.experiments.harness import registry_for
from repro.hardware.contention import ContentionParameters, ContentionResult
from repro.hardware.cpu import CPU
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.drivers import WorkQueueDriver
from repro.platform.engine import (
    EngineConfig,
    FastPathStats,
    PenaltySignatureCache,
    SimulationEngine,
)
from repro.platform.scheduler import DedicatedCoreScheduler, LeastOccupancyScheduler
from repro.platform.twins import twin_classes
from repro.workloads.function import FunctionSpec
from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.registry import default_registry
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind, generator


def _result(*workload_ids: int, hit: float = 0.5) -> ContentionResult:
    return ContentionResult(
        {workload_id: hit for workload_id in workload_ids},
        l3_hit_latency_cycles=40.0,
        memory_latency_cycles=220.0,
        ring_utilization=0.1,
        bandwidth_utilization=0.2,
        private_inflation=1.01,
    )


_SIG_A = (3, ((0, 1, 1), (1, 0, 1)))
_SIG_B = (3, ((0, 2, 1), (1, 0, 1)))  # one invocation crossed a phase boundary


class TestPenaltySignatureCache:
    def test_miss_on_empty_cache(self):
        cache = PenaltySignatureCache()
        assert cache.lookup(_SIG_A) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_hit_requires_convergence(self):
        cache = PenaltySignatureCache()
        result = _result(0, 1)
        cache.store(_SIG_A, result, converged=False)
        assert cache.lookup(_SIG_A) is None
        cache.store(_SIG_A, result, converged=True)
        assert cache.lookup(_SIG_A) is result
        assert cache.hits == 1

    def test_signature_mismatch_misses(self):
        cache = PenaltySignatureCache()
        cache.store(_SIG_A, _result(0), converged=True)
        assert cache.lookup(_SIG_B) is None

    def test_store_overwrites_previous_entry(self):
        # The cache deliberately keeps one entry: an entry is only provably
        # reusable when the immediately preceding epoch produced it.
        cache = PenaltySignatureCache()
        cache.store(_SIG_A, _result(0), converged=True)
        cache.store(_SIG_B, _result(0, hit=0.4), converged=True)
        assert cache.lookup(_SIG_A) is None
        assert cache.lookup(_SIG_B) is not None

    def test_invalidate(self):
        cache = PenaltySignatureCache()
        cache.store(_SIG_A, _result(0), converged=True)
        cache.invalidate()
        assert not cache.converged
        assert cache.lookup(_SIG_A) is None


class TestEngineFastPathStats:
    def _run(self, fast_path: bool):
        engine = SimulationEngine(
            CPU(CASCADE_LAKE_5218),
            DedicatedCoreScheduler(),
            config=EngineConfig(fast_path=fast_path),
        )
        # Full-length phases (hundreds of epochs each) so the steady
        # stretches are long enough for skip-ahead to engage.
        spec = default_registry().get("auth-py")
        invocation = engine.submit(spec)
        assert engine.run_until(lambda e: invocation.is_completed, max_seconds=30.0)
        return engine, invocation

    def test_solo_run_uses_spans(self):
        engine, _ = self._run(fast_path=True)
        stats = engine.fast_path_stats
        assert stats.spans > 0
        assert stats.span_epochs > 0
        # Most epochs of a steady solo run should be skip-ahead epochs.
        assert stats.span_epochs > stats.stepped_epochs

    def test_disabled_fast_path_never_spans(self):
        engine, _ = self._run(fast_path=False)
        stats = engine.fast_path_stats
        assert stats.spans == 0
        assert stats.span_epochs == 0
        assert stats.fixed_point_reuses == 0

    def test_fast_and_slow_runs_agree_exactly(self):
        fast_engine, fast_inv = self._run(fast_path=True)
        slow_engine, slow_inv = self._run(fast_path=False)
        assert fast_inv.finish_time == slow_inv.finish_time
        assert fast_inv.counters.snapshot() == slow_inv.counters.snapshot()
        assert (
            fast_engine.cpu.global_counters.snapshot()
            == slow_engine.cpu.global_counters.snapshot()
        )

    def test_fast_path_is_faster_in_epoch_work(self):
        engine, _ = self._run(fast_path=True)
        stats = engine.fast_path_stats
        # The fixed point must have been evaluated far fewer times than the
        # number of simulated epochs.
        assert stats.fixed_point_evaluations < stats.total_epochs / 2


class TestTwinLanes:
    def _calibration(self, fast_path: bool):
        config = one_per_core()
        return Calibrator(
            config.machine,
            registry_for(config),
            config.calibration_scenario,
            stress_levels=(4, 18),
            engine_config=EngineConfig(fast_path=fast_path),
        ).calibrate()

    def test_dedicated_calibration_is_bit_identical(self):
        # Both generators at two stress levels: 3 and 17 twins per stepped
        # epoch next to one probe or reference function.
        assert calibration_to_dict(self._calibration(True)) == calibration_to_dict(
            self._calibration(False)
        )


def _hex(values):
    return [value.hex() for value in values]


def _state(invocation):
    """What a caller can read of an invocation's progress, float for float."""
    cursor = invocation.cursor
    return (
        invocation.invocation_id,
        _hex(dataclasses.astuple(invocation.counters.snapshot())),
        cursor.phase_index,
        _hex([cursor.instructions_retired, cursor.phase_instructions_remaining()]),
        invocation.mean_thread_occupancy.hex(),
    )


def _active_states(engine):
    return [_state(invocation) for invocation in engine.active_invocations()]


class TestTwinCatchUp:
    """Twins step as their class's leader and catch up from it; whatever a
    caller or a finish listener reads must equal plain stepping's."""

    @staticmethod
    def _engine(fast_path: bool):
        engine = SimulationEngine(
            CPU(CASCADE_LAKE_5218),
            LeastOccupancyScheduler(max_per_thread=1),
            config=EngineConfig(fast_path=fast_path),
        )
        # Three CT-Gen threads (one leader, two twins) next to a probe.
        for spec, thread_id in zip(generator(GeneratorKind.CT, 3).thread_specs(), (8, 9, 10)):
            engine.submit(spec, thread_id=thread_id, tags={"role": "generator"})
        engine.submit(probe_spec(Language.PYTHON), thread_id=0)
        return engine

    def test_history_is_part_of_the_key(self):
        engine = self._engine(fast_path=True)
        lanes = [
            (invocation, 1e-3, 1)
            for invocation in engine.active_invocations()
            if invocation.is_traffic_generator
        ][:2]
        multipliers = {invocation.invocation_id: 1.0 for invocation, _, _ in lanes}
        classes = twin_classes(lanes, multipliers, {})
        assert classes is not None
        assert classes.pairs == ((lanes[1][0], lanes[0][0]),)
        # Equal cursor positions, different counters: copying the first
        # lane's counters onto the second would be wrong.
        lanes[1][0].counters.cycles += 1.0
        assert twin_classes(lanes, multipliers, {}) is None
        lanes[1][0].counters.cycles = lanes[0][0].counters.cycles
        lanes[1][0].observe_occupancy(2, 1e-3)
        assert twin_classes(lanes, multipliers, {}) is None

    def test_run_for_returns_caught_up(self):
        fast = self._engine(fast_path=True)
        slow = self._engine(fast_path=False)
        for engine in (fast, slow):
            # Past the probe's finish, mid-stress.
            engine.run_for(0.040)
        assert fast.fast_path_stats.twin_lane_epochs > 0
        assert fast.completed_invocations()
        assert _active_states(fast) == _active_states(slow)

    def test_every_run_epoch_returns_caught_up(self):
        fast = self._engine(fast_path=True)
        slow = self._engine(fast_path=False)
        for _ in range(40):
            fast.run_epoch()
            slow.run_epoch()
            assert _active_states(fast) == _active_states(slow)
        assert fast.fast_path_stats.twin_lane_epochs > 0

    def test_finish_listeners_see_caught_up_twins(self):
        def run(fast_path):
            engine = self._engine(fast_path)
            snapshots = []
            engine.add_finish_listener(
                lambda finished, eng: snapshots.append(
                    [
                        _state(invocation)
                        for invocation in eng.active_invocations()
                        if invocation.is_traffic_generator
                    ]
                )
            )
            driver = WorkQueueDriver(
                [probe_spec(language) for language in Language], allowed_threads=[1]
            )
            driver.attach(engine)
            assert engine.run_until(lambda e: driver.done, max_seconds=10.0)
            return engine, snapshots

        fast, fast_snapshots = run(True)
        _, slow_snapshots = run(False)
        assert fast.fast_path_stats.twin_lane_epochs > 0
        assert len(fast_snapshots) >= 4
        assert fast_snapshots == slow_snapshots


class TestStressPointWorkCounts:
    """The fast path's exact work on two fixed calibration stress points.

    Each runs a generator at level 18 on threads 14-31 next to one driver
    on thread 0 that runs the three startup probes, then the 13 reference
    functions.  The counts are a pure function of the engine's code: a
    change that steps, skips or evaluates different epochs must refresh
    them and say why.
    """

    @pytest.mark.parametrize(
        "kind, expected",
        [
            (GeneratorKind.CT, FastPathStats(365, 1175, 25, 292, 73, 6205)),
            (GeneratorKind.MB, FastPathStats(833, 952, 13, 807, 26, 14161)),
        ],
    )
    def test_counts(self, kind, expected):
        engine = SimulationEngine(
            CPU(CASCADE_LAKE_5218, frequency_policy=FrequencyPolicy.FIXED),
            LeastOccupancyScheduler(max_per_thread=1),
        )
        for spec, thread_id in zip(generator(kind, 18).thread_specs(), range(14, 32)):
            engine.submit(spec, thread_id=thread_id)
        items = [probe_spec(language) for language in Language]
        items += default_registry().reference_functions()
        driver = WorkQueueDriver(items, allowed_threads=[0])
        driver.attach(engine)
        assert engine.run_until(lambda e: driver.done, max_seconds=60.0)
        assert len(driver.completed) == 16
        assert engine.fast_path_stats == expected


class TestFixedPointInputs:
    """The fast fixed point caches its inputs per runnable set and phase;
    each change they depend on must rebuild them."""

    def _run(self, fast_path: bool):
        engine = SimulationEngine(
            CPU(CASCADE_LAKE_5218),
            DedicatedCoreScheduler(),
            config=EngineConfig(fast_path=fast_path),
        )
        # Two CT-Gen threads form a twin class next to two functions that
        # cross phases (at 2, 3, 4 and 9 ms, then after the throttle)
        # without a runnable-set change in between.
        for spec in generator(GeneratorKind.CT, 2).thread_specs():
            engine.submit(spec, tags={"role": "generator"})
        registry = default_registry()
        invocations = [engine.submit(registry.get(name)) for name in ("auth-py", "fib-go")]
        engine.run_for(0.010)
        # Mid-phase, between two stepped epochs of one runnable set.
        engine.set_frequency_scale(0.7)
        engine.run_for(0.020)
        engine.set_contention_parameters(
            ContentionParameters(memory_queueing_coefficient=0.8)
        )
        assert engine.run_until(
            lambda e: all(invocation.is_completed for invocation in invocations),
            max_seconds=30.0,
        )
        return engine, invocations

    @staticmethod
    def _bits(snapshot):
        return [value.hex() for value in dataclasses.astuple(snapshot)]

    def test_phase_frequency_and_model_changes_stay_bit_identical(self):
        fast_engine, fast_invocations = self._run(fast_path=True)
        slow_engine, slow_invocations = self._run(fast_path=False)
        assert fast_engine.fast_path_stats.twin_lane_epochs > 0
        assert fast_engine.time_seconds.hex() == slow_engine.time_seconds.hex()
        assert self._bits(fast_engine.cpu.global_counters.snapshot()) == self._bits(
            slow_engine.cpu.global_counters.snapshot()
        )
        for fast, slow in zip(fast_invocations, slow_invocations):
            assert fast.finish_time.hex() == slow.finish_time.hex()
            assert self._bits(fast.counters.snapshot()) == self._bits(
                slow.counters.snapshot()
            )


    def test_footprint_flag_flips_stay_bit_identical(self):
        # A function whose body alternates between phases with and without
        # a cache footprint, next to a CT-Gen twin class: each crossing
        # either refreshes a row or, when the footprint flag flips,
        # rebuilds the inputs.
        def profile(working_set_mb):
            return ResourceProfile(
                cpi_base=0.6,
                l2_mpki=8.0,
                working_set_mb=working_set_mb,
                solo_l3_hit_fraction=0.7,
            )

        spec = FunctionSpec(
            name="Footprint Flip",
            abbreviation="flip-py",
            language=Language.PYTHON,
            suite="test",
            memory_mb=128,
            body_phases=tuple(
                ExecutionPhase(f"body-{index}", PhaseKind.BODY, 4e6, profile(ws))
                for index, ws in enumerate((6.0, 0.0, 3.0, 2.0, 0.0, 5.0))
            ),
        )

        def run(fast_path):
            engine = SimulationEngine(
                CPU(CASCADE_LAKE_5218),
                DedicatedCoreScheduler(),
                config=EngineConfig(fast_path=fast_path),
            )
            for generator_spec in generator(GeneratorKind.CT, 2).thread_specs():
                engine.submit(generator_spec, tags={"role": "generator"})
            invocation = engine.submit(spec)
            assert engine.run_until(lambda e: invocation.is_completed, max_seconds=10.0)
            return engine, invocation

        fast_engine, fast = run(True)
        slow_engine, slow = run(False)
        assert fast_engine.fast_path_stats.twin_lane_epochs > 0
        assert fast.finish_time.hex() == slow.finish_time.hex()
        assert _state(fast) == _state(slow)
        assert _active_states(fast_engine) == _active_states(slow_engine)
        assert self._bits(fast_engine.cpu.global_counters.snapshot()) == self._bits(
            slow_engine.cpu.global_counters.snapshot()
        )


class TestEngineConfigFlag:
    def test_fast_path_default_on(self):
        assert EngineConfig().fast_path is True

    def test_validation_unchanged(self):
        with pytest.raises(ValueError):
            EngineConfig(epoch_seconds=0.0)
        with pytest.raises(ValueError):
            EngineConfig(fixed_point_iterations=0)
