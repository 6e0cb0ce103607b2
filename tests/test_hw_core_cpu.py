"""Tests for cores, hardware threads and the CPU sharing domain."""

import pytest

from repro.hardware.core import Core, HardwareThread, build_cores
from repro.hardware.cpu import CPU
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.topology import CASCADE_LAKE_5218


class TestBuildCores:
    def test_core_and_thread_counts(self):
        cores = build_cores(4, 2)
        assert len(cores) == 4
        assert all(core.smt_ways == 2 for core in cores)

    def test_linux_style_thread_numbering(self):
        cores = build_cores(4, 2)
        first = cores[0]
        assert [t.thread_id for t in first.threads] == [0, 4]
        assert [t.smt_index for t in first.threads] == [0, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_cores(0, 1)
        with pytest.raises(ValueError):
            build_cores(4, 0)


class TestHardwareThread:
    def test_enqueue_dequeue(self):
        thread = HardwareThread(thread_id=0, core_id=0, smt_index=0)
        thread.enqueue(7)
        assert thread.is_busy and thread.occupancy == 1
        thread.dequeue(7)
        assert not thread.is_busy

    def test_double_enqueue_rejected(self):
        thread = HardwareThread(thread_id=0, core_id=0, smt_index=0)
        thread.enqueue(7)
        with pytest.raises(ValueError):
            thread.enqueue(7)

    def test_dequeue_missing_rejected(self):
        thread = HardwareThread(thread_id=0, core_id=0, smt_index=0)
        with pytest.raises(ValueError):
            thread.dequeue(3)


class TestCore:
    def test_sibling_of(self):
        core = build_cores(1, 2)[0]
        assert core.sibling_of(core.threads[0]) is core.threads[1]

    def test_sibling_of_single_threaded_core(self):
        core = build_cores(1, 1)[0]
        assert core.sibling_of(core.threads[0]) is None

    def test_mismatched_thread_core_rejected(self):
        with pytest.raises(ValueError):
            Core(core_id=1, threads=[HardwareThread(thread_id=0, core_id=0, smt_index=0)])


class TestCPU:
    def test_smt_disabled_by_default(self):
        cpu = CPU(CASCADE_LAKE_5218)
        assert len(cpu.threads) == 32
        assert not cpu.smt_enabled

    def test_smt_enabled_doubles_threads(self):
        cpu = CPU(CASCADE_LAKE_5218, smt_enabled=True)
        assert len(cpu.threads) == 64

    def test_thread_lookup_and_core_of(self):
        cpu = CPU(CASCADE_LAKE_5218, smt_enabled=True)
        thread = cpu.thread(35)
        assert thread.core_id == 3
        assert cpu.core_of(35).core_id == 3
        with pytest.raises(KeyError):
            cpu.thread(999)

    def test_active_thread_count(self):
        cpu = CPU(CASCADE_LAKE_5218)
        assert cpu.active_thread_count == 0
        cpu.thread(0).enqueue(1)
        cpu.thread(5).enqueue(2)
        assert cpu.active_thread_count == 2

    def test_smt_private_penalty_requires_busy_sibling(self):
        cpu = CPU(CASCADE_LAKE_5218, smt_enabled=True)
        assert cpu.smt_private_penalty(0) == pytest.approx(1.0)
        cpu.thread(0).enqueue(1)
        assert cpu.smt_private_penalty(0) == pytest.approx(1.0)
        cpu.thread(32).enqueue(2)  # SMT sibling of core 0
        assert cpu.smt_private_penalty(0) == pytest.approx(
            CASCADE_LAKE_5218.smt_private_penalty
        )

    def test_no_smt_penalty_when_smt_disabled(self):
        cpu = CPU(CASCADE_LAKE_5218, smt_enabled=False)
        cpu.thread(0).enqueue(1)
        assert cpu.smt_private_penalty(0) == pytest.approx(1.0)

    def test_turbo_frequency_policy(self):
        cpu = CPU(CASCADE_LAKE_5218, frequency_policy=FrequencyPolicy.TURBO)
        idle_frequency = cpu.governor.frequency_ghz(cpu.active_thread_count)
        for i in range(16):
            cpu.thread(i).enqueue(i)
        busy_frequency = cpu.governor.frequency_ghz(cpu.active_thread_count)
        assert busy_frequency < idle_frequency
