"""Language runtime startup models.

The Litmus test hinges on one empirical observation (paper Figure 6): the
startup of a language runtime is a fixed routine — prepare the interpreter /
VM, load images and libraries, import modules, warm the JIT — so every
function written in the same language shows a nearly identical counter
signature during startup.  Because that routine contains bursts of memory
reads, its measured slowdown and the machine's L3 miss count during it act
as a probe of shared-resource congestion.

Each :class:`LanguageRuntime` models that routine as a small sequence of
startup phases whose profiles differ enough to produce the IPC fluctuation
visible in Figure 6.  The phase structure (relative lengths, miss rates) is
shared by all functions of that language; individual functions only add a
tiny amount of per-function import work, which is deliberately kept small so
startups remain comparable across functions of the same language.

Instruction budgets follow the paper: Python startups are measured over
their first ~45 million instructions (~19 ms at 2.8 GHz), Node.js startups
are several times longer (~97 ms timeline in Figure 6) and Go startups are
very short (~6 ms).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile


class Language(enum.Enum):
    """The three language runtimes used by the paper's benchmarks."""

    PYTHON = "python"
    NODEJS = "nodejs"
    GO = "go"

    @property
    def short(self) -> str:
        return {"python": "py", "nodejs": "nj", "go": "go"}[self.value]


@dataclass(frozen=True)
class LanguageRuntime:
    """Startup model and bookkeeping for one language runtime."""

    language: Language
    version: str
    startup_phases: tuple[ExecutionPhase, ...]
    #: Baseline sandbox memory attributed to the runtime itself, in MB.
    runtime_memory_mb: float

    def __post_init__(self) -> None:
        if not self.startup_phases:
            raise ValueError("a runtime needs at least one startup phase")
        for phase in self.startup_phases:
            if phase.kind is not PhaseKind.STARTUP:
                raise ValueError(
                    f"runtime startup phase {phase.name!r} must have kind STARTUP"
                )

    @property
    def startup_instructions(self) -> float:
        """Total instructions executed by the startup routine."""
        return sum(phase.instructions for phase in self.startup_phases)

    def startup_for(self, scale: float = 1.0) -> List[ExecutionPhase]:
        """Return a copy of the startup phases, optionally scaled in length."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale == 1.0:
            return list(self.startup_phases)
        return [phase.scaled(scale) for phase in self.startup_phases]


def _python_runtime() -> LanguageRuntime:
    phases = (
        ExecutionPhase(
            name="py-interpreter-init",
            kind=PhaseKind.STARTUP,
            instructions=9e6,
            profile=ResourceProfile(
                cpi_base=0.55,
                l2_mpki=2.5,
                working_set_mb=6.0,
                solo_l3_hit_fraction=0.88,
                mlp=4.0,
            ),
        ),
        ExecutionPhase(
            name="py-module-import",
            kind=PhaseKind.STARTUP,
            instructions=22e6,
            profile=ResourceProfile(
                cpi_base=0.62,
                l2_mpki=6.0,
                working_set_mb=18.0,
                solo_l3_hit_fraction=0.72,
                mlp=4.5,
            ),
        ),
        ExecutionPhase(
            name="py-bytecode-compile",
            kind=PhaseKind.STARTUP,
            instructions=14e6,
            profile=ResourceProfile(
                cpi_base=0.50,
                l2_mpki=3.0,
                working_set_mb=10.0,
                solo_l3_hit_fraction=0.85,
                mlp=4.0,
            ),
        ),
    )
    return LanguageRuntime(
        language=Language.PYTHON,
        version="3.10.6",
        startup_phases=phases,
        runtime_memory_mb=48.0,
    )


def _nodejs_runtime() -> LanguageRuntime:
    phases = (
        ExecutionPhase(
            name="nj-v8-init",
            kind=PhaseKind.STARTUP,
            instructions=45e6,
            profile=ResourceProfile(
                cpi_base=0.48,
                l2_mpki=2.0,
                working_set_mb=8.0,
                solo_l3_hit_fraction=0.9,
                mlp=4.0,
            ),
        ),
        ExecutionPhase(
            name="nj-snapshot-load",
            kind=PhaseKind.STARTUP,
            instructions=70e6,
            profile=ResourceProfile(
                cpi_base=0.6,
                l2_mpki=7.0,
                working_set_mb=30.0,
                solo_l3_hit_fraction=0.68,
                mlp=5.0,
            ),
        ),
        ExecutionPhase(
            name="nj-module-resolution",
            kind=PhaseKind.STARTUP,
            instructions=60e6,
            profile=ResourceProfile(
                cpi_base=0.55,
                l2_mpki=4.5,
                working_set_mb=22.0,
                solo_l3_hit_fraction=0.78,
                mlp=4.5,
            ),
        ),
        ExecutionPhase(
            name="nj-jit-warmup",
            kind=PhaseKind.STARTUP,
            instructions=40e6,
            profile=ResourceProfile(
                cpi_base=0.45,
                l2_mpki=2.5,
                working_set_mb=14.0,
                solo_l3_hit_fraction=0.86,
                mlp=4.0,
            ),
        ),
    )
    return LanguageRuntime(
        language=Language.NODEJS,
        version="12.22.9",
        startup_phases=phases,
        runtime_memory_mb=96.0,
    )


def _go_runtime() -> LanguageRuntime:
    phases = (
        ExecutionPhase(
            name="go-runtime-init",
            kind=PhaseKind.STARTUP,
            instructions=7e6,
            profile=ResourceProfile(
                cpi_base=0.42,
                l2_mpki=3.0,
                working_set_mb=5.0,
                solo_l3_hit_fraction=0.85,
                mlp=4.5,
            ),
        ),
        ExecutionPhase(
            name="go-binary-load",
            kind=PhaseKind.STARTUP,
            instructions=9e6,
            profile=ResourceProfile(
                cpi_base=0.5,
                l2_mpki=5.0,
                working_set_mb=9.0,
                solo_l3_hit_fraction=0.76,
                mlp=5.0,
            ),
        ),
    )
    return LanguageRuntime(
        language=Language.GO,
        version="1.19.2",
        startup_phases=phases,
        runtime_memory_mb=24.0,
    )


_RUNTIMES = {
    Language.PYTHON: _python_runtime(),
    Language.NODEJS: _nodejs_runtime(),
    Language.GO: _go_runtime(),
}


def runtime_for(language: Language) -> LanguageRuntime:
    """Return the runtime model for ``language``."""
    return _RUNTIMES[language]
