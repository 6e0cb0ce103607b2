"""Figure 6: IPC of serverless functions during their startup phase.

The paper shows that functions written in the same language trace nearly
identical IPC curves while their runtime starts up — the observation that
makes the startup usable as a probe.  This module replays each language's
startup alone on the machine, sampling IPC once per simulation epoch until
the startup completes.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.litmus_test import probe_spec
from repro.experiments.config import ExperimentConfig, one_per_core
from repro.experiments.harness import FigureResult
from repro.hardware.cpu import CPU
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.scheduler import DedicatedCoreScheduler
from repro.workloads.runtimes import Language

#: Hard bound on the number of epochs sampled per language.
_MAX_SAMPLES = 2000


def startup_ipc_trace(
    config: ExperimentConfig, language: Language
) -> List[Mapping[str, object]]:
    """Per-epoch IPC samples of one language runtime's startup (solo)."""
    cpu = CPU(config.machine)
    engine = SimulationEngine(
        cpu,
        DedicatedCoreScheduler(),
        config=EngineConfig(epoch_seconds=config.epoch_seconds),
    )
    invocation = engine.submit(probe_spec(language), tags={"role": "ipc-trace"})
    samples: List[Mapping[str, object]] = []
    previous = invocation.counters.snapshot()
    for _ in range(_MAX_SAMPLES):
        if invocation.cursor.startup_complete:
            break
        engine.run_epoch()
        current = invocation.counters.snapshot()
        delta = current.delta(previous)
        previous = current
        if delta.cycles <= 0:
            continue
        samples.append(
            {
                "language": language.value,
                "time_ms": engine.time_seconds * 1e3,
                "ipc": delta.ipc,
            }
        )
    return samples


def run(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """Regenerate Figure 6 (startup IPC traces per language)."""
    config = config or one_per_core()
    rows: List[Mapping[str, object]] = []
    durations: dict[str, float] = {}
    for language in Language:
        trace = startup_ipc_trace(config, language)
        rows.extend(trace)
        if trace:
            durations[language.value] = float(trace[-1]["time_ms"])

    summary = {
        f"{language}_startup_ms": duration for language, duration in durations.items()
    }
    ipc_values = [float(row["ipc"]) for row in rows]
    summary["min_ipc"] = min(ipc_values)
    summary["max_ipc"] = max(ipc_values)
    return FigureResult(
        name="fig06",
        description="Figure 6: IPC during the startup phase, per language runtime",
        columns=("language", "time_ms", "ipc"),
        rows=tuple(rows),
        summary=summary,
    )
