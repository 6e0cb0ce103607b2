"""Tests for machine topology descriptions."""

import pytest

from repro.hardware.topology import (
    CASCADE_LAKE_5218,
    ICE_LAKE_4314,
    CacheSpec,
    machine_by_name,
)


class TestCacheSpec:
    def test_size_mb_conversion(self):
        cache = CacheSpec(level="L3", size_kb=22 * 1024, latency_cycles=44, shared=True)
        assert cache.size_mb == pytest.approx(22.0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            CacheSpec(level="L1", size_kb=0, latency_cycles=4)

    def test_rejects_non_positive_latency(self):
        with pytest.raises(ValueError):
            CacheSpec(level="L1", size_kb=32, latency_cycles=0)


class TestMachineSpec:
    def test_cascade_lake_matches_paper_testbed(self):
        machine = CASCADE_LAKE_5218
        assert machine.architecture == "cascade-lake"
        assert machine.cores == 32
        assert machine.smt_ways == 2
        assert machine.base_frequency_ghz == pytest.approx(2.8)
        assert machine.l2.size_mb == pytest.approx(1.0)
        assert machine.l3.size_mb == pytest.approx(22.0)
        assert machine.l3.shared

    def test_ice_lake_is_smaller(self):
        assert ICE_LAKE_4314.cores < CASCADE_LAKE_5218.cores
        assert ICE_LAKE_4314.memory_gb < CASCADE_LAKE_5218.memory_gb

    def test_memory_latency_cycles_scales_with_frequency(self):
        machine = CASCADE_LAKE_5218
        assert machine.memory_latency_cycles == pytest.approx(
            machine.memory_latency_ns * machine.base_frequency_ghz
        )

    def test_scaled_override(self):
        smaller = CASCADE_LAKE_5218.scaled(cores=8)
        assert smaller.cores == 8
        assert smaller.name == CASCADE_LAKE_5218.name
        # The original is untouched.
        assert CASCADE_LAKE_5218.cores == 32

    def test_turbo_must_be_at_least_base(self):
        with pytest.raises(ValueError):
            CASCADE_LAKE_5218.scaled(max_turbo_frequency_ghz=1.0)

    def test_l3_must_be_shared(self):
        bad_l3 = CacheSpec(level="L3", size_kb=1024, latency_cycles=40, shared=False)
        with pytest.raises(ValueError):
            CASCADE_LAKE_5218.scaled(l3=bad_l3)


class TestMachineLookup:
    def test_lookup_by_name(self):
        assert machine_by_name("xeon-gold-5218") is CASCADE_LAKE_5218
        assert machine_by_name("ice-lake") is ICE_LAKE_4314

    def test_unknown_machine_raises(self):
        with pytest.raises(KeyError, match="unknown machine"):
            machine_by_name("epyc-7742")
