"""Litmus pricing — the paper's contribution.

The flow mirrors Sections 5 and 6 of the paper:

1. **Calibrate** (provider, offline): run Litmus-probe startups and the
   reference functions against CT-Gen and MB-Gen at increasing stress
   levels, recording startup slowdowns and L3-miss counts in the
   *congestion table* and reference-function slowdowns in the *performance
   table* (:mod:`repro.core.calibration`, :mod:`repro.core.tables`).
2. **Model**: fit per-language, per-generator regression models from probe
   slowdowns to reference slowdowns, and exponential models from probe
   slowdowns to machine L3 misses (:mod:`repro.core.regression`,
   :mod:`repro.core.estimator`).
3. **Probe** (per invocation, online): measure the startup window of each
   function — its private/shared slowdown against the solo startup baseline
   and the machine-wide L3 misses — at zero extra cost
   (:mod:`repro.core.litmus_test`).
4. **Price**: blend the two generators' predictions by the L3-miss position
   (logarithmic interpolation), derive per-component charging rates
   ``R = R_base * T_solo / T_congestion`` and charge
   ``P = R_private * T_private + R_shared * T_shared``
   (:mod:`repro.core.pricing`).  Commercial (no discount) and ideal
   (oracle slowdown) pricing are provided as baselines, and
   :mod:`repro.core.sharing` adds the Method 1 / Method 2 adaptations for
   temporally shared CPUs.
"""

from repro.core.regression import LinearRegressionModel, ExponentialRegressionModel
from repro.core.litmus_test import LitmusObservation, LitmusProbe, probe_spec
from repro.core.tables import (
    CongestionObservation,
    CongestionTable,
    PerformanceObservation,
    PerformanceTable,
)
from repro.core.calibration import (
    CalibrationResult,
    CalibrationScenario,
    Calibrator,
    calibrate_cached,
)
from repro.core.estimator import CongestionEstimate, CongestionEstimator
from repro.core.pricing import (
    CommercialPricing,
    IdealPricing,
    LitmusPricingEngine,
    PriceQuote,
    PricingComponents,
    charging_rate,
)
from repro.core.sharing import Method1Adjustment, measure_switching_curve
from repro.core.persistence import calibration_from_dict, calibration_to_dict

__all__ = [
    "LinearRegressionModel",
    "ExponentialRegressionModel",
    "LitmusObservation",
    "LitmusProbe",
    "probe_spec",
    "CongestionObservation",
    "CongestionTable",
    "PerformanceObservation",
    "PerformanceTable",
    "CalibrationResult",
    "CalibrationScenario",
    "Calibrator",
    "calibrate_cached",
    "CongestionEstimate",
    "CongestionEstimator",
    "CommercialPricing",
    "IdealPricing",
    "LitmusPricingEngine",
    "PriceQuote",
    "PricingComponents",
    "charging_rate",
    "Method1Adjustment",
    "measure_switching_curve",
    "calibration_from_dict",
    "calibration_to_dict",
]
