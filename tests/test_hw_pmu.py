"""Tests for PMU counter accumulation and snapshots."""

import pytest

from repro.hardware.pmu import CounterSnapshot, PMUCounters


class TestPMUCounters:
    def test_observe_accumulates(self):
        pmu = PMUCounters()
        pmu.observe(cycles=100, instructions=80, stall_cycles_l2_miss=20, l2_misses=5)
        pmu.observe(cycles=50, instructions=40, stall_cycles_l2_miss=10, l3_misses=2)
        assert pmu.cycles == 150
        assert pmu.instructions == 120
        assert pmu.stall_cycles_l2_miss == 30
        assert pmu.l2_misses == 5
        assert pmu.l3_misses == 2

    def test_negative_increment_rejected(self):
        pmu = PMUCounters()
        with pytest.raises(ValueError, match="must be >= 0"):
            pmu.observe(cycles=-1)

    def test_private_and_shared_cycles(self):
        pmu = PMUCounters()
        pmu.observe(cycles=100, stall_cycles_l2_miss=30)
        assert pmu.private_cycles == 70
        assert pmu.shared_cycles == 30

    def test_ipc(self):
        pmu = PMUCounters()
        assert pmu.ipc == 0.0
        pmu.observe(cycles=200, instructions=100)
        assert pmu.ipc == pytest.approx(0.5)

    def test_merge(self):
        a = PMUCounters()
        b = PMUCounters()
        a.observe(cycles=10, instructions=5)
        b.observe(cycles=20, instructions=15, context_switches=1)
        a.merge(b)
        assert a.cycles == 30
        assert a.instructions == 20
        assert a.context_switches == 1


class TestCounterSnapshot:
    def test_snapshot_is_immutable_copy(self):
        pmu = PMUCounters()
        pmu.observe(cycles=10)
        snapshot = pmu.snapshot()
        pmu.observe(cycles=10)
        assert snapshot.cycles == 10
        assert pmu.cycles == 20

    def test_delta(self):
        pmu = PMUCounters()
        pmu.observe(cycles=100, instructions=50, l3_misses=3, elapsed_seconds=0.5)
        before = pmu.snapshot()
        pmu.observe(cycles=40, instructions=20, l3_misses=1, elapsed_seconds=0.1)
        delta = pmu.snapshot().delta(before)
        assert delta.cycles == pytest.approx(40)
        assert delta.instructions == pytest.approx(20)
        assert delta.l3_misses == pytest.approx(1)
        assert delta.elapsed_seconds == pytest.approx(0.1)

    def test_shared_fraction_bounds(self):
        snap = CounterSnapshot(cycles=100, stall_cycles_l2_miss=25)
        assert snap.shared_fraction() == pytest.approx(0.25)
        assert CounterSnapshot().shared_fraction() == 0.0

    def test_private_cycles_never_negative(self):
        snap = CounterSnapshot(cycles=10, stall_cycles_l2_miss=20)
        assert snap.private_cycles == 0.0
