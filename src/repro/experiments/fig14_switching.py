"""Figure 14: temporal-sharing (context switching) overhead on T_private.

The overhead grows with the number of functions co-located on one core and
saturates — around +2.5 % at roughly 10-20 co-located functions — which is
what makes Method 1's single calibration factor workable.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.sharing import measure_switching_curve
from repro.experiments.config import ExperimentConfig, one_per_core
from repro.experiments.harness import FigureResult, registry_for
from repro.platform.engine import EngineConfig


def run(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """Regenerate Figure 14 (T_private inflation vs co-located functions)."""
    config = config or one_per_core()
    points = measure_switching_curve(
        config.machine,
        registry=registry_for(config),
        engine_config=EngineConfig(epoch_seconds=config.epoch_seconds),
    )
    rows: List[Mapping[str, object]] = [
        {
            "functions_per_core": point.functions_per_thread,
            "normalized_t_private": point.t_private_inflation,
        }
        for point in points
    ]
    inflations = [point.t_private_inflation for point in points]
    saturation = inflations[-1]
    half_way = next(
        (
            point.functions_per_thread
            for point in points
            if point.t_private_inflation >= 1.0 + (saturation - 1.0) * 0.9
        ),
        points[-1].functions_per_thread,
    )
    return FigureResult(
        name="fig14",
        description="Figure 14: T_private inflation vs co-located function count",
        columns=("functions_per_core", "normalized_t_private"),
        rows=tuple(rows),
        summary={
            "max_inflation": max(inflations),
            "inflation_at_saturation": saturation,
            "count_at_90pct_saturation": float(half_way),
        },
    )
