"""Tests for the memory-bandwidth and ring/uncore latency models."""

import pytest

from repro.hardware.memory import MemoryBandwidthModel, MemoryLoad
from repro.hardware.uncore import RingBandwidthModel, RingLoad


class TestMemoryBandwidthModel:
    def make(self, **kwargs):
        defaults = dict(peak_bandwidth_gbs=100.0, unloaded_latency_cycles=238.0)
        defaults.update(kwargs)
        return MemoryBandwidthModel(**defaults)

    def test_unloaded_latency_at_zero_traffic(self):
        model = self.make()
        assert model.effective_latency_cycles(MemoryLoad(0.0)) == pytest.approx(238.0)

    def test_latency_increases_with_utilization(self):
        model = self.make()
        light = model.effective_latency_cycles(MemoryLoad(10e9))
        heavy = model.effective_latency_cycles(MemoryLoad(90e9))
        assert heavy > light > 238.0

    def test_utilization_clamped(self):
        model = self.make(max_utilization=0.95)
        assert model.utilization(MemoryLoad(1e12)) == pytest.approx(0.95)

    def test_monotone_in_load(self):
        model = self.make()
        loads = [MemoryLoad(x * 1e9) for x in (0, 20, 40, 60, 80, 120)]
        latencies = [model.effective_latency_cycles(load) for load in loads]
        assert latencies == sorted(latencies)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            self.make(peak_bandwidth_gbs=0)
        with pytest.raises(ValueError):
            self.make(unloaded_latency_cycles=0)
        with pytest.raises(ValueError):
            self.make(max_utilization=1.0)
        with pytest.raises(ValueError):
            MemoryLoad(-1.0)


class TestRingBandwidthModel:
    def make(self, **kwargs):
        defaults = dict(peak_accesses_per_us=950.0, unloaded_latency_cycles=44.0)
        defaults.update(kwargs)
        return RingBandwidthModel(**defaults)

    def test_unloaded_latency(self):
        assert self.make().effective_latency_cycles(RingLoad(0.0)) == pytest.approx(44.0)

    def test_latency_increases_with_traffic(self):
        model = self.make()
        light = model.effective_latency_cycles(RingLoad(100e6))
        heavy = model.effective_latency_cycles(RingLoad(900e6))
        assert heavy > light

    def test_ring_saturates_below_memory_latency_scale(self):
        # Even saturated, an L3 hit should remain far cheaper than DRAM.
        model = self.make()
        saturated = model.effective_latency_cycles(RingLoad(5e9))
        assert saturated < 238.0 * 5

    def test_peak_property_round_trip(self):
        assert self.make().peak_accesses_per_us == pytest.approx(950.0)

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            RingLoad(-5.0)
