"""Serverless function specifications and execution progress tracking.

A :class:`FunctionSpec` is a static description of a serverless function:
its identity (name, suite, language), its sandbox memory size, and its
execution phases.  The phases are the language runtime's startup phases
followed by the function's body phases, so the first part of every
invocation is the Litmus-probe window.

A :class:`PhaseCursor` tracks an in-flight invocation's progress through the
phase list; the platform engine advances it by instruction counts and reads
the current resource profile each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.runtimes import Language, LanguageRuntime, runtime_for


@dataclass(frozen=True)
class FunctionSpec:
    """Static description of one serverless function."""

    name: str
    abbreviation: str
    language: Language
    suite: str
    memory_mb: float
    body_phases: Tuple[ExecutionPhase, ...]
    is_reference: bool = False
    is_traffic_generator: bool = False
    startup_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if not self.body_phases and not self.is_traffic_generator:
            raise ValueError(f"function {self.name!r} needs at least one body phase")
        for phase in self.body_phases:
            if phase.kind is PhaseKind.STARTUP:
                raise ValueError(
                    f"body phase {phase.name!r} of {self.name!r} must not be a "
                    "STARTUP phase; startup phases come from the language runtime"
                )
        if self.startup_scale <= 0:
            raise ValueError("startup_scale must be positive")

    @property
    def runtime(self) -> LanguageRuntime:
        return runtime_for(self.language)

    # The phase list and its instruction totals are immutable once the spec
    # is built but sit on the engine's per-epoch hot path, so they are
    # computed once per instance (``cached_property`` stores into the
    # instance ``__dict__``, which works on frozen dataclasses and does not
    # participate in equality or hashing).
    @cached_property
    def phases(self) -> Tuple[ExecutionPhase, ...]:
        """Startup phases followed by body phases."""
        if self.is_traffic_generator:
            return self.body_phases
        startup = tuple(self.runtime.startup_for(self.startup_scale))
        return startup + self.body_phases

    @cached_property
    def startup_instructions(self) -> float:
        """Instructions executed before the function body begins."""
        if self.is_traffic_generator:
            return 0.0
        return sum(
            phase.instructions
            for phase in self.phases
            if phase.kind is PhaseKind.STARTUP
        )

    @cached_property
    def body_instructions(self) -> float:
        return sum(phase.instructions for phase in self.body_phases)

    @cached_property
    def total_instructions(self) -> float:
        return sum(phase.instructions for phase in self.phases)

    @property
    def memory_gb(self) -> float:
        return self.memory_mb / 1024.0

    def scaled(self, factor: float) -> "FunctionSpec":
        """Return a copy with body phases scaled in length by ``factor``.

        Startup phases are never scaled — they are the probe window and the
        experiments rely on their instruction budget being fixed per
        language.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return FunctionSpec(
            name=self.name,
            abbreviation=self.abbreviation,
            language=self.language,
            suite=self.suite,
            memory_mb=self.memory_mb,
            body_phases=tuple(phase.scaled(factor) for phase in self.body_phases),
            is_reference=self.is_reference,
            is_traffic_generator=self.is_traffic_generator,
            startup_scale=self.startup_scale,
        )


class PhaseCursor:
    """Tracks an invocation's progress through its function's phases.

    ``profile`` is the current phase's resource profile (``None`` once
    finished), kept in an attribute that :meth:`advance` refreshes on each
    phase transition so the engine's fast path reads it without a lookup.
    :attr:`current_profile` derives the same value from the phase index and
    is what the engine's reference path uses.  Treat ``profile`` as
    read-only.
    """

    def __init__(self, spec: FunctionSpec) -> None:
        self._spec = spec
        self._phases: Sequence[ExecutionPhase] = spec.phases
        self._phase_count = len(self._phases)
        self._total_instructions = spec.total_instructions
        self._startup_instructions = spec.startup_instructions
        self._phase_index = 0
        self._instructions_into_phase = 0.0
        self._instructions_retired = 0.0
        self.profile: Optional[ResourceProfile] = (
            self._phases[0].profile if self._phases else None
        )

    @property
    def spec(self) -> FunctionSpec:
        return self._spec

    @property
    def finished(self) -> bool:
        return self._phase_index >= self._phase_count

    @property
    def phase_index(self) -> int:
        """Index of the current phase (== phase count once finished)."""
        return self._phase_index

    @property
    def instructions_retired(self) -> float:
        return self._instructions_retired

    @property
    def instructions_remaining(self) -> float:
        # max(remaining, 0.0), as the builtin resolves it.
        remaining = self._total_instructions - self._instructions_retired
        return 0.0 if 0.0 > remaining else remaining

    @property
    def current_phase(self) -> Optional[ExecutionPhase]:
        if self.finished:
            return None
        return self._phases[self._phase_index]

    @property
    def current_profile(self) -> Optional[ResourceProfile]:
        phase = self.current_phase
        return None if phase is None else phase.profile

    @property
    def startup_complete(self) -> bool:
        """True once every STARTUP phase has fully retired."""
        if self._spec.is_traffic_generator:
            return True
        return self._instructions_retired >= self._startup_instructions

    def phase_instructions_remaining(self) -> float:
        """Instructions left in the current phase (0 when finished)."""
        phase = self.current_phase
        if phase is None:
            return 0.0
        return phase.instructions - self._instructions_into_phase

    def span_snapshot(self) -> Tuple[float, float]:
        """The two progress accumulators, for the engine's skip-ahead path.

        Returns ``(instructions_into_phase, instructions_retired)``.  The
        fast-path engine advances these as local floats (replicating the
        exact sequence of additions :meth:`advance` would have performed)
        and writes them back with :meth:`span_restore`.
        """
        return self._instructions_into_phase, self._instructions_retired

    def span_restore(self, instructions_into_phase: float, instructions_retired: float) -> None:
        """Write back accumulators advanced externally by the skip-ahead path.

        The caller must guarantee the restored position is still strictly
        inside the current phase — skip-ahead spans never cross phase
        boundaries, so no boundary bookkeeping happens here.
        """
        self._instructions_into_phase = instructions_into_phase
        self._instructions_retired = instructions_retired

    def take_position(self, other: "PhaseCursor") -> None:
        """Move to ``other``'s position: phase, progress into it and profile.

        For the engine's twin lanes: a twin takes its leader's position
        when it catches up (:meth:`Invocation.take_progress`).  The caller
        must guarantee that the two cursors stood at equal positions at the
        last catch-up, with equal phase lists from there on and equal
        advances since, so the copy is exactly what advancing this cursor
        would have computed.
        """
        self._phase_index = other._phase_index
        self._instructions_into_phase = other._instructions_into_phase
        self._instructions_retired = other._instructions_retired
        self.profile = other.profile

    def advance(self, instructions: float) -> float:
        """Retire up to ``instructions`` within the *current* phase.

        Returns the number of instructions actually retired (bounded by the
        end of the current phase); the caller loops if it wants to spend a
        larger budget across phase boundaries.
        """
        if instructions < 0:
            raise ValueError("instructions must be >= 0")
        index = self._phase_index
        if index >= self._phase_count:
            return 0.0
        phase = self._phases[index]
        available = phase.instructions - self._instructions_into_phase
        # min(instructions, available), as the builtin resolves it.
        retired = available if available < instructions else instructions
        self._instructions_into_phase += retired
        self._instructions_retired += retired
        if self._instructions_into_phase >= phase.instructions - 1e-9:
            index += 1
            self._phase_index = index
            self._instructions_into_phase = 0.0
            self.profile = (
                self._phases[index].profile if index < self._phase_count else None
            )
        return retired
