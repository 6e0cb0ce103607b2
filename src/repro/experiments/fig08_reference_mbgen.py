"""Figure 8: reference-function slowdowns under MB-Gen stress.

The paper shows the per-reference private/shared/total slowdowns while
MB-Gen runs at stress level 14, plus their geometric mean — the values that
populate one row of the performance table.  This module reads the same
numbers from the calibration sweep (which includes level 14 by default).
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.analysis.stats import geometric_mean
from repro.experiments.config import ExperimentConfig, one_per_core
from repro.experiments.harness import FigureResult, calibration_for
from repro.workloads.traffic import GeneratorKind


def run(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """Regenerate Figure 8 (reference slowdowns under MB-Gen)."""
    config = config or one_per_core()
    calibration = calibration_for(config)
    available = calibration.performance_table.stress_levels(GeneratorKind.MB)
    # Use the calibrated level closest to the paper's level 14.
    stress_level = min(available, key=lambda level: abs(level - 14))
    per_reference = calibration.reference_slowdowns[(GeneratorKind.MB, stress_level)]

    rows: List[Mapping[str, object]] = []
    for abbreviation, (private, shared, total) in sorted(per_reference.items()):
        rows.append(
            {
                "function": abbreviation,
                "normalized_t_private": private,
                "normalized_t_shared": shared,
                "normalized_t_total": total,
            }
        )
    rows.append(
        {
            "function": "gmean",
            "normalized_t_private": geometric_mean(v[0] for v in per_reference.values()),
            "normalized_t_shared": geometric_mean(v[1] for v in per_reference.values()),
            "normalized_t_total": geometric_mean(v[2] for v in per_reference.values()),
        }
    )
    startup = calibration.congestion_table.entries(generator=GeneratorKind.MB)
    startup_at_level = [e for e in startup if e.stress_level == stress_level]
    rows.append(
        {
            "function": "start-py",
            "normalized_t_private": startup_at_level[0].private_slowdown,
            "normalized_t_shared": startup_at_level[0].shared_slowdown,
            "normalized_t_total": startup_at_level[0].total_slowdown,
        }
    )
    performance = calibration.performance_table.get(GeneratorKind.MB, stress_level)
    return FigureResult(
        name="fig08",
        description=f"Figure 8: reference slowdowns under MB-Gen at level {stress_level}",
        columns=(
            "function",
            "normalized_t_private",
            "normalized_t_shared",
            "normalized_t_total",
        ),
        rows=tuple(rows),
        summary={
            "stress_level": float(stress_level),
            "gmean_total_slowdown": performance.total_slowdown,
            "gmean_shared_slowdown": performance.shared_slowdown,
            "gmean_private_slowdown": performance.private_slowdown,
        },
    )
