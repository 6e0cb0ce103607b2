"""Tests for the experiment configuration presets."""

import pytest

from repro.core.calibration import CalibrationScenario
from repro.experiments.config import (
    ChurnPool,
    ExperimentConfig,
    PricingMethod,
    heavy_320,
    icelake_70,
    one_per_core,
    sharing_160,
    sharing_240_reused,
    smt_160,
    unfixed_frequency_160,
)
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.topology import CASCADE_LAKE_5218, ICE_LAKE_4314


class TestPresets:
    def test_one_per_core_matches_section_7_1(self):
        config = one_per_core()
        assert config.total_functions == 27
        assert config.functions_per_thread == 1
        assert config.co_runners == 26
        assert config.method is PricingMethod.PLAIN
        assert config.eval_thread_ids() == tuple(range(27))

    def test_sharing_160_method2(self):
        config = sharing_160(PricingMethod.METHOD2)
        assert config.total_functions == 160
        assert config.eval_physical_cores == 16
        assert config.functions_per_thread == 10
        assert config.calibration_scenario.functions_per_thread == 10

    def test_sharing_160_method1_uses_dedicated_tables(self):
        config = sharing_160(PricingMethod.METHOD1)
        assert config.method is PricingMethod.METHOD1
        assert config.calibration_scenario.functions_per_thread == 1

    def test_heavy_320_uses_memory_intensive_pool(self):
        config = heavy_320()
        assert config.total_functions == 320
        assert config.churn_pool is ChurnPool.MEMORY_INTENSIVE

    def test_turbo_preset(self):
        assert unfixed_frequency_160().frequency_policy is FrequencyPolicy.TURBO

    def test_icelake_preset(self):
        config = icelake_70()
        assert config.machine is ICE_LAKE_4314
        assert config.total_functions == 70
        assert max(config.calibration_levels) <= ICE_LAKE_4314.cores - 5

    def test_sharing_240_reuses_10_per_core_tables(self):
        config = sharing_240_reused()
        assert config.functions_per_thread == 15
        assert config.calibration_scenario.functions_per_thread == 10

    def test_smt_preset_doubles_threads(self):
        config = smt_160()
        assert config.smt_enabled
        thread_ids = config.eval_thread_ids()
        assert len(thread_ids) == 16
        assert CASCADE_LAKE_5218.cores in thread_ids  # an SMT-sibling id


class TestConfigValidation:
    def test_rejects_more_cores_than_machine(self):
        with pytest.raises(ValueError):
            one_per_core(eval_physical_cores=64)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            one_per_core(total_functions=0)
        with pytest.raises(ValueError):
            one_per_core(repetitions=0)
        with pytest.raises(ValueError):
            one_per_core(registry_scale=0)

    def test_quick_and_full_variants(self):
        config = one_per_core()
        quick = config.quick()
        assert quick.repetitions == 1
        assert quick.registry_scale < config.registry_scale
        full = config.full()
        assert full.registry_scale == 1.0
        assert full.repetitions >= config.repetitions

    def test_scenario_default_is_dedicated(self):
        config = ExperimentConfig(name="x")
        assert isinstance(config.calibration_scenario, CalibrationScenario)
        assert config.calibration_scenario.functions_per_thread == 1
