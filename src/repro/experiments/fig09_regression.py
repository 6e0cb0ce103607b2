"""Figure 9: correlation between startup slowdown and reference slowdown.

For each traffic generator the paper fits a linear regression from the
Python startup's slowdown to the reference functions' slowdown, separately
for ``T_private``, ``T_shared`` and the total time, reporting R^2 between
0.84 and 0.99.  This module reports the calibration scatter points, the
fitted slopes/intercepts and the R^2 of every model.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.estimator import CongestionEstimator
from repro.experiments.config import ExperimentConfig, one_per_core
from repro.experiments.harness import FigureResult, calibration_for
from repro.workloads.runtimes import Language


def run(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """Regenerate Figure 9 (startup-vs-reference regressions) for the Python probe."""
    config = config or one_per_core()
    language = Language.PYTHON
    calibration = calibration_for(config)
    estimator = CongestionEstimator(calibration)

    rows: List[Mapping[str, object]] = []
    summary: dict[str, float] = {}
    for kind in calibration.generators:
        probe_entries = calibration.congestion_table.entries(
            generator=kind, language=language
        )
        for probe_obs in probe_entries:
            perf = calibration.performance_table.get(kind, probe_obs.stress_level)
            rows.append(
                {
                    "generator": kind.value,
                    "stress_level": probe_obs.stress_level,
                    "startup_private_slowdown": probe_obs.private_slowdown,
                    "startup_shared_slowdown": probe_obs.shared_slowdown,
                    "startup_total_slowdown": probe_obs.total_slowdown,
                    "reference_private_slowdown": perf.private_slowdown,
                    "reference_shared_slowdown": perf.shared_slowdown,
                    "reference_total_slowdown": perf.total_slowdown,
                }
            )
        models = estimator.models_for(language, kind)
        prefix = kind.value.replace("-", "_")
        summary[f"{prefix}_r2_private"] = models.private.r_squared
        summary[f"{prefix}_r2_shared"] = models.shared.r_squared
        summary[f"{prefix}_r2_total"] = models.total.r_squared
        summary[f"{prefix}_slope_total"] = models.total.slope
    return FigureResult(
        name="fig09",
        description="Figure 9: startup slowdown vs reference slowdown regressions",
        columns=(
            "generator",
            "stress_level",
            "startup_private_slowdown",
            "startup_shared_slowdown",
            "startup_total_slowdown",
            "reference_private_slowdown",
            "reference_shared_slowdown",
            "reference_total_slowdown",
        ),
        rows=tuple(rows),
        summary=summary,
    )
