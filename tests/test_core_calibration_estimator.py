"""Tests for calibration and the congestion estimator (shared small sweep)."""

import pytest

from repro import diskcache
from repro.core.calibration import CalibrationScenario, calibrate_cached
from repro.core.litmus_test import LitmusObservation
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind


class TestCalibrationScenario:
    def test_dedicated_defaults(self):
        scenario = CalibrationScenario.dedicated()
        assert scenario.functions_per_thread == 1
        assert scenario.resolved_background_functions == 0

    def test_shared_background_derivation(self):
        scenario = CalibrationScenario.shared(function_thread_count=5, functions_per_thread=10)
        assert scenario.resolved_background_functions == 45

    def test_smt_scenario_uses_both_contexts(self):
        scenario = CalibrationScenario.smt(physical_cores=5, functions_per_thread=5)
        assert scenario.smt_enabled
        assert scenario.function_thread_count == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationScenario(name="bad", function_thread_count=0)
        with pytest.raises(ValueError):
            CalibrationScenario(name="bad", function_thread_count=1, functions_per_thread=0)


class TestCalibrationResult:
    def test_tables_cover_all_levels_and_generators(self, small_calibration):
        result = small_calibration
        for kind in (GeneratorKind.CT, GeneratorKind.MB):
            assert result.performance_table.stress_levels(kind) == [4, 12]
            for language in Language:
                levels = [
                    e.stress_level
                    for e in result.congestion_table.entries(generator=kind, language=language)
                ]
                assert levels == [4, 12]

    def test_startup_baselines_for_every_language(self, small_calibration):
        assert set(small_calibration.startup_baselines) == set(Language)
        for baseline in small_calibration.startup_baselines.values():
            assert baseline.private_seconds > 0
            assert baseline.shared_seconds > 0

    def test_reference_baselines_match_reference_set(self, small_calibration, small_registry):
        expected = {spec.abbreviation for spec in small_registry.reference_functions()}
        assert set(small_calibration.reference_baselines) == expected

    def test_slowdowns_increase_with_stress_level(self, small_calibration):
        performance = small_calibration.performance_table
        for kind in (GeneratorKind.CT, GeneratorKind.MB):
            low = performance.get(kind, 4)
            high = performance.get(kind, 12)
            assert high.total_slowdown >= low.total_slowdown
            assert high.shared_slowdown >= low.shared_slowdown

    def test_mb_gen_produces_more_l3_misses_than_ct_gen(self, small_calibration):
        congestion = small_calibration.congestion_table
        for level in (4, 12):
            ct = congestion.get(GeneratorKind.CT, level, Language.PYTHON)
            mb = congestion.get(GeneratorKind.MB, level, Language.PYTHON)
            assert mb.machine_l3_misses > ct.machine_l3_misses

    def test_mb_gen_slows_shared_time_more_than_ct_gen(self, small_calibration):
        performance = small_calibration.performance_table
        assert (
            performance.get(GeneratorKind.MB, 12).shared_slowdown
            > performance.get(GeneratorKind.CT, 12).shared_slowdown * 0.9
        )

    def test_probe_round_trip(self, small_calibration):
        probe = small_calibration.probe()
        for language in Language:
            assert probe.baseline(language) == small_calibration.startup_baselines[language]

    def test_per_reference_slowdowns_recorded(self, small_calibration, small_registry):
        key = (GeneratorKind.MB, 12)
        per_reference = small_calibration.reference_slowdowns[key]
        assert len(per_reference) == len(small_registry.reference_functions())
        for private, shared, total in per_reference.values():
            assert private >= 0.9
            assert shared >= 0.9
            assert total >= 0.9


class TestCalibrationCache:
    def test_cache_reuses_results(self, machine, small_registry, small_oracle):
        diskcache.forget()
        first = calibrate_cached(
            machine,
            CalibrationScenario.dedicated(),
            registry=small_registry,
            stress_levels=(4, 8),
            oracle=small_oracle,
        )
        second = calibrate_cached(
            machine,
            CalibrationScenario.dedicated(),
            registry=small_registry,
            stress_levels=(4, 8),
            oracle=small_oracle,
        )
        assert first is second
        diskcache.forget()


class TestCongestionEstimator:
    def _observation(self, calibration, level=12, generator=GeneratorKind.MB):
        entry = calibration.congestion_table.get(generator, level, Language.PYTHON)
        return LitmusObservation(
            function="synthetic",
            language=Language.PYTHON,
            private_slowdown=entry.private_slowdown,
            shared_slowdown=entry.shared_slowdown,
            total_slowdown=entry.total_slowdown,
            machine_l3_misses=entry.machine_l3_misses,
            startup_wall_seconds=0.0,
        )

    def test_models_exist_for_every_language_generator_pair(self, small_estimator):
        quality = small_estimator.regression_quality()
        assert len(quality) == len(Language) * 2 * 4
        assert all(-1.0 <= value <= 1.0 for value in quality.values())

    def test_estimate_recovers_calibrated_point(self, small_calibration, small_estimator):
        observation = self._observation(small_calibration)
        estimate = small_estimator.estimate(observation)
        expected = small_calibration.performance_table.get(GeneratorKind.MB, 12)
        assert estimate.shared_slowdown == pytest.approx(expected.shared_slowdown, rel=0.2)
        assert estimate.private_slowdown == pytest.approx(expected.private_slowdown, rel=0.05)
        # The observation's L3 misses are MB-like, so the blend should lean MB.
        assert estimate.mb_weight > 0.5

    def test_ct_like_observation_leans_ct(self, small_calibration, small_estimator):
        observation = self._observation(small_calibration, generator=GeneratorKind.CT)
        estimate = small_estimator.estimate(observation)
        assert estimate.mb_weight < 0.5

    def test_higher_congestion_never_decreases_slowdown(self, small_calibration, small_estimator):
        low = small_estimator.estimate(self._observation(small_calibration, level=4))
        high = small_estimator.estimate(self._observation(small_calibration, level=12))
        assert high.total_slowdown >= low.total_slowdown - 1e-6

    def test_estimates_never_below_one(self, small_estimator):
        observation = LitmusObservation(
            function="idle",
            language=Language.PYTHON,
            private_slowdown=0.9,
            shared_slowdown=0.9,
            total_slowdown=0.9,
            machine_l3_misses=10.0,
            startup_wall_seconds=0.0,
        )
        estimate = small_estimator.estimate(observation)
        assert estimate.private_slowdown >= 1.0
        assert estimate.shared_slowdown >= 1.0

    def test_unknown_language_model_raises(self, small_estimator):
        with pytest.raises(KeyError):
            small_estimator.models_for(Language.PYTHON, "not-a-generator")  # type: ignore[arg-type]
