"""Figure 10: estimating the discount by logarithmic L3-miss interpolation.

Given a startup slowdown, the two generators' models disagree about the
discount because they represent different kinds of congestion.  The machine
L3 miss count observed during the probe decides where between those two
extremes the system sits: close to CT-Gen's expected misses → small
discount, close to MB-Gen's → large discount, in between → logarithmic
interpolation.  This module sweeps hypothetical L3-miss observations across
that range and reports the blended discount at each point.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional

from repro.core.estimator import CongestionEstimator
from repro.core.litmus_test import LitmusObservation
from repro.experiments.config import ExperimentConfig, one_per_core
from repro.experiments.harness import FigureResult, calibration_for
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind

#: Number of interpolation sample points between the two extremes.
_SAMPLES = 9


def run(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """Regenerate Figure 10 (discount vs observed L3 misses) for the Python probe."""
    config = config or one_per_core()
    language = Language.PYTHON
    calibration = calibration_for(config)
    estimator = CongestionEstimator(calibration)

    # Anchor the sweep at a mid-level probe reading: the average of the
    # congestion-table observations across the two generators.
    levels = calibration.congestion_table.stress_levels(GeneratorKind.CT)
    mid_level = levels[len(levels) // 2]
    ct_obs = calibration.congestion_table.get(GeneratorKind.CT, mid_level, language)
    mb_obs = calibration.congestion_table.get(GeneratorKind.MB, mid_level, language)
    private_slowdown = (ct_obs.private_slowdown + mb_obs.private_slowdown) / 2.0
    shared_slowdown = (ct_obs.shared_slowdown + mb_obs.shared_slowdown) / 2.0
    total_slowdown = (ct_obs.total_slowdown + mb_obs.total_slowdown) / 2.0

    base = LitmusObservation(
        function="interpolation-sweep",
        language=language,
        private_slowdown=private_slowdown,
        shared_slowdown=shared_slowdown,
        total_slowdown=total_slowdown,
        machine_l3_misses=1.0,
        startup_wall_seconds=0.0,
    )
    ct_expected = estimator.predict_for_generator(base, GeneratorKind.CT).expected_l3_misses
    mb_expected = estimator.predict_for_generator(base, GeneratorKind.MB).expected_l3_misses
    low, high = sorted((ct_expected, mb_expected))
    low = max(low / 2.0, 1.0)
    high = high * 2.0

    rows: List[Mapping[str, object]] = []
    discounts: List[float] = []
    for index in range(_SAMPLES):
        fraction = index / (_SAMPLES - 1)
        l3 = math.exp(math.log(low) + fraction * (math.log(high) - math.log(low)))
        observation = LitmusObservation(
            function="interpolation-sweep",
            language=language,
            private_slowdown=private_slowdown,
            shared_slowdown=shared_slowdown,
            total_slowdown=total_slowdown,
            machine_l3_misses=l3,
            startup_wall_seconds=0.0,
        )
        estimate = estimator.estimate(observation)
        discount = 1.0 - 1.0 / estimate.total_slowdown
        discounts.append(discount)
        rows.append(
            {
                "observed_l3_misses": l3,
                "mb_weight": estimate.mb_weight,
                "estimated_total_slowdown": estimate.total_slowdown,
                "discount": discount,
            }
        )
    return FigureResult(
        name="fig10",
        description="Figure 10: discount estimated by logarithmic interpolation on L3 misses",
        columns=("observed_l3_misses", "mb_weight", "estimated_total_slowdown", "discount"),
        rows=tuple(rows),
        summary={
            "ct_expected_l3_misses": ct_expected,
            "mb_expected_l3_misses": mb_expected,
            "min_discount": min(discounts),
            "max_discount": max(discounts),
        },
    )
