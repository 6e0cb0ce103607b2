"""Drift-aware continuous calibration of the contention model.

The paper calibrates its coefficients once against the testbed
(Section 6); this package keeps that fit honest over time.  It bundles:

* :mod:`repro.calibrate.profile` — hardware profiles as data
  (machine topology + contention coefficients), dot-path parameter
  addressing, and the shipped alternate platforms
  (``sg2042-like``, ``icelake-like``).
* :mod:`repro.calibrate.drift` — mid-run hardware drift, segmented with
  the fault machinery so both engine backends flip coefficients at the
  same epoch.
* :mod:`repro.calibrate.measure` — the "measured" stream: per-epoch
  cumulative shared-stall fractions from a steady-churn co-location
  window, scalar engine as ground truth.
* :mod:`repro.calibrate.service` — the loop: sliding-window MAPE drift
  detection, parallel linspace grid search, atomic republish through the
  versioned diskcache.

See docs/calibration.md for the cookbook.
"""

from repro.calibrate.drift import DriftEvent, DriftInjector
from repro.calibrate.measure import MEASURE_BACKENDS, MeasureConfig, measure_series
from repro.calibrate.profile import (
    PROFILE_DIR,
    HardwareProfile,
    ProfileError,
    default_profile,
    get_param,
    list_profiles,
    load_profile,
    numeric_paths,
    perturbed,
    profile_by_name,
    set_param,
)
from repro.calibrate.service import (
    PUBLISH_KIND,
    CalibrationConfig,
    CandidateScore,
    ContinuousCalibrator,
    RoundResult,
    best_candidate,
    calibrate_once,
    fit_key,
    fitted_profile,
    grid_search,
    linspace,
    load_fit,
    publish_fit,
)

__all__ = [
    "MEASURE_BACKENDS",
    "PROFILE_DIR",
    "PUBLISH_KIND",
    "CalibrationConfig",
    "CandidateScore",
    "ContinuousCalibrator",
    "DriftEvent",
    "DriftInjector",
    "HardwareProfile",
    "MeasureConfig",
    "ProfileError",
    "RoundResult",
    "best_candidate",
    "calibrate_once",
    "default_profile",
    "fit_key",
    "fitted_profile",
    "get_param",
    "grid_search",
    "linspace",
    "list_profiles",
    "load_fit",
    "load_profile",
    "measure_series",
    "numeric_paths",
    "perturbed",
    "profile_by_name",
    "publish_fit",
    "set_param",
]
