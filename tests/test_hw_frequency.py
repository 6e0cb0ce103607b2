"""Tests for the frequency governor."""

import pytest

from repro.hardware.frequency import FrequencyGovernor, FrequencyPolicy
from repro.hardware.topology import CASCADE_LAKE_5218


class TestFixedPolicy:
    def test_fixed_frequency_independent_of_load(self):
        governor = FrequencyGovernor(machine=CASCADE_LAKE_5218, policy=FrequencyPolicy.FIXED)
        assert governor.frequency_ghz(0) == pytest.approx(2.8)
        assert governor.frequency_ghz(32) == pytest.approx(2.8)


class TestTurboPolicy:
    def test_single_thread_reaches_max_turbo(self):
        governor = FrequencyGovernor(machine=CASCADE_LAKE_5218, policy=FrequencyPolicy.TURBO)
        assert governor.frequency_ghz(1) == pytest.approx(3.9)

    def test_frequency_decays_with_active_threads(self):
        governor = FrequencyGovernor(machine=CASCADE_LAKE_5218, policy=FrequencyPolicy.TURBO)
        frequencies = [governor.frequency_ghz(n) for n in (1, 2, 4, 8, 16, 32)]
        assert frequencies == sorted(frequencies, reverse=True)
        assert frequencies[-1] >= CASCADE_LAKE_5218.base_frequency_ghz

    def test_never_below_base(self):
        governor = FrequencyGovernor(machine=CASCADE_LAKE_5218, policy=FrequencyPolicy.TURBO)
        assert governor.frequency_ghz(64) >= CASCADE_LAKE_5218.base_frequency_ghz

    def test_negative_thread_count_rejected(self):
        governor = FrequencyGovernor(machine=CASCADE_LAKE_5218)
        with pytest.raises(ValueError):
            governor.frequency_ghz(-1)

    def test_frequency_hz_conversion(self):
        governor = FrequencyGovernor(machine=CASCADE_LAKE_5218)
        assert governor.frequency_hz(4) == pytest.approx(2.8e9)
