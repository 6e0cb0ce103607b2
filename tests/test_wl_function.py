"""Tests for function specs and the phase cursor."""

import pytest

from repro.workloads.function import FunctionSpec, PhaseCursor
from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.registry import default_registry
from repro.workloads.runtimes import Language, runtime_for


def body_phase(instructions=1e6, name="body"):
    return ExecutionPhase(
        name=name,
        kind=PhaseKind.BODY,
        instructions=instructions,
        profile=ResourceProfile(
            cpi_base=0.5, l2_mpki=5.0, working_set_mb=4.0, solo_l3_hit_fraction=0.8
        ),
    )


def make_spec(instructions=1e6):
    return FunctionSpec(
        name="Test Function",
        abbreviation="test-py",
        language=Language.PYTHON,
        suite="test",
        memory_mb=128,
        body_phases=(body_phase(instructions),),
    )


class TestFunctionSpec:
    def test_phases_prepend_runtime_startup(self):
        spec = make_spec()
        phases = spec.phases
        startup_count = len(runtime_for(Language.PYTHON).startup_phases)
        assert len(phases) == startup_count + 1
        assert all(p.kind is PhaseKind.STARTUP for p in phases[:startup_count])
        assert phases[-1].kind is PhaseKind.BODY

    def test_instruction_accounting(self):
        spec = make_spec(2e6)
        assert spec.body_instructions == pytest.approx(2e6)
        assert spec.startup_instructions == pytest.approx(45e6)
        assert spec.total_instructions == pytest.approx(47e6)

    def test_memory_gb(self):
        assert make_spec().memory_gb == pytest.approx(0.125)

    def test_scaled_only_affects_body(self):
        spec = make_spec(2e6).scaled(0.5)
        assert spec.body_instructions == pytest.approx(1e6)
        assert spec.startup_instructions == pytest.approx(45e6)

    def test_body_phase_cannot_be_startup_kind(self):
        bad = ExecutionPhase(
            name="bad",
            kind=PhaseKind.STARTUP,
            instructions=1e6,
            profile=ResourceProfile(
                cpi_base=0.5, l2_mpki=1.0, working_set_mb=1.0, solo_l3_hit_fraction=0.9
            ),
        )
        with pytest.raises(ValueError):
            FunctionSpec(
                name="x",
                abbreviation="x",
                language=Language.PYTHON,
                suite="test",
                memory_mb=128,
                body_phases=(bad,),
            )

    def test_requires_a_body_unless_generator(self):
        with pytest.raises(ValueError):
            FunctionSpec(
                name="x",
                abbreviation="x",
                language=Language.PYTHON,
                suite="test",
                memory_mb=128,
                body_phases=(),
            )


class TestPhaseCursor:
    def test_advance_within_phase(self):
        cursor = PhaseCursor(make_spec())
        retired = cursor.advance(1e6)
        assert retired == pytest.approx(1e6)
        assert cursor.instructions_retired == pytest.approx(1e6)
        assert not cursor.finished

    def test_advance_stops_at_phase_boundary(self):
        cursor = PhaseCursor(make_spec())
        first_phase = cursor.current_phase
        retired = cursor.advance(first_phase.instructions + 5e6)
        assert retired == pytest.approx(first_phase.instructions)
        assert cursor.current_phase is not first_phase

    def test_startup_complete_flag(self):
        spec = make_spec()
        cursor = PhaseCursor(spec)
        assert not cursor.startup_complete
        while not cursor.startup_complete:
            assert cursor.current_phase.kind is PhaseKind.STARTUP
            cursor.advance(cursor.phase_instructions_remaining())
        assert cursor.current_phase.kind is not PhaseKind.STARTUP
        assert cursor.instructions_retired == pytest.approx(spec.startup_instructions)

    def test_run_to_completion(self):
        spec = make_spec(1e6)
        cursor = PhaseCursor(spec)
        guard = 0
        while not cursor.finished:
            cursor.advance(1e7)
            guard += 1
            assert guard < 100
        assert cursor.instructions_retired == pytest.approx(spec.total_instructions)
        assert cursor.instructions_remaining == pytest.approx(0.0)
        assert cursor.current_profile is None
        assert cursor.advance(1e6) == 0.0

    def test_negative_advance_rejected(self):
        cursor = PhaseCursor(make_spec())
        with pytest.raises(ValueError):
            cursor.advance(-1)

    def test_registry_specs_have_cursors(self):
        spec = default_registry().get("aes-py")
        cursor = PhaseCursor(spec)
        assert cursor.spec is spec
        assert cursor.current_profile is not None
