"""Tests for execution phases, resource profiles and language runtimes."""

import pytest

from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.runtimes import Language, runtime_for


def profile(**kwargs):
    defaults = dict(
        cpi_base=0.5, l2_mpki=5.0, working_set_mb=10.0, solo_l3_hit_fraction=0.8, mlp=4.0
    )
    defaults.update(kwargs)
    return ResourceProfile(**defaults)


class TestResourceProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            profile(cpi_base=0)
        with pytest.raises(ValueError):
            profile(l2_mpki=-1)
        with pytest.raises(ValueError):
            profile(solo_l3_hit_fraction=1.2)
        with pytest.raises(ValueError):
            profile(mlp=0)

    def test_scaled_returns_modified_copy(self):
        base = profile()
        changed = base.scaled(l2_mpki=10.0)
        assert changed.l2_mpki == 10.0
        assert changed.cpi_base == base.cpi_base
        assert base.l2_mpki == 5.0

    def test_solo_stall_per_instruction(self):
        p = profile(l2_mpki=10.0, solo_l3_hit_fraction=0.5, mlp=2.0)
        stall = p.solo_stall_cycles_per_instruction(40.0, 200.0)
        expected = (10.0 / 1000.0) * ((0.5 * 40.0 + 0.5 * 200.0) / 2.0)
        assert stall == pytest.approx(expected)


class TestExecutionPhase:
    def test_requires_positive_instructions(self):
        with pytest.raises(ValueError):
            ExecutionPhase(name="x", kind=PhaseKind.BODY, instructions=0, profile=profile())

    def test_scaled_changes_length_only(self):
        phase = ExecutionPhase(name="x", kind=PhaseKind.BODY, instructions=1e6, profile=profile())
        scaled = phase.scaled(0.5)
        assert scaled.instructions == pytest.approx(5e5)
        assert scaled.profile is phase.profile
        with pytest.raises(ValueError):
            phase.scaled(0)


class TestLanguageRuntimes:
    def test_all_three_runtimes_exist(self):
        assert {runtime_for(language).language for language in Language} == set(Language)

    def test_startup_phases_are_startup_kind(self):
        for language in Language:
            runtime = runtime_for(language)
            assert all(p.kind is PhaseKind.STARTUP for p in runtime.startup_phases)

    def test_python_startup_instruction_budget_matches_paper(self):
        # The paper measures the first ~45 M instructions of a Python startup.
        runtime = runtime_for(Language.PYTHON)
        assert runtime.startup_instructions == pytest.approx(45e6)

    def test_relative_startup_lengths(self):
        # Node.js startups are the longest, Go startups the shortest (Fig. 6).
        python = runtime_for(Language.PYTHON).startup_instructions
        nodejs = runtime_for(Language.NODEJS).startup_instructions
        go = runtime_for(Language.GO).startup_instructions
        assert nodejs > python > go

    def test_startup_for_scaling(self):
        runtime = runtime_for(Language.GO)
        scaled = runtime.startup_for(0.5)
        assert sum(p.instructions for p in scaled) == pytest.approx(
            runtime.startup_instructions * 0.5
        )
        with pytest.raises(ValueError):
            runtime.startup_for(0)

    def test_language_short_codes(self):
        assert Language.PYTHON.short == "py"
        assert Language.NODEJS.short == "nj"
        assert Language.GO.short == "go"
