"""Regression models used by Litmus pricing.

The paper builds two kinds of models from its calibration tables
(Section 6, step 3 and Figures 9/10):

* **linear** models relating the startup (probe) slowdown to the reference
  functions' slowdown at the same stress level, one per traffic generator
  and time component, and
* a **logarithmic/exponential** model relating the probe slowdown to the
  machine's L3 miss count, used to place a runtime observation between the
  CT-Gen extreme (few L3 misses) and the MB-Gen extreme (many L3 misses).

Both are tiny ordinary-least-squares fits implemented with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _validate_xy(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(list(x), dtype=float)
    ys = np.asarray(list(y), dtype=float)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("x and y must be one-dimensional sequences")
    if xs.size != ys.size:
        raise ValueError("x and y must have the same length")
    if xs.size < 2:
        raise ValueError("at least two points are required to fit a regression")
    return xs, ys


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(np.sum((y - predicted) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    if total == 0.0:
        # A constant target is matched exactly by the fitted constant model.
        return 1.0 if residual < 1e-12 else 0.0
    return 1.0 - residual / total


@dataclass(frozen=True)
class LinearRegressionModel:
    """Least-squares fit of ``y = intercept + slope * x``."""

    slope: float
    intercept: float
    r_squared: float

    @classmethod
    def fit(cls, x: Sequence[float], y: Sequence[float]) -> "LinearRegressionModel":
        xs, ys = _validate_xy(x, y)
        if np.allclose(xs, xs[0]):
            # Degenerate calibration (all probes saw the same slowdown):
            # fall back to a constant model at the mean.
            return cls(slope=0.0, intercept=float(ys.mean()), r_squared=_r_squared(ys, np.full_like(ys, ys.mean())))
        slope, intercept = np.polyfit(xs, ys, deg=1)
        predicted = intercept + slope * xs
        return cls(slope=float(slope), intercept=float(intercept), r_squared=_r_squared(ys, predicted))

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass(frozen=True)
class ExponentialRegressionModel:
    """Least-squares fit of ``y = exp(intercept + slope * x)`` (y > 0).

    Fitting is done in log space, which is the natural scale for L3 miss
    counts that span several orders of magnitude between the CT-Gen and
    MB-Gen regimes (Figure 10a).
    """

    slope: float
    intercept: float
    r_squared: float

    @classmethod
    def fit(cls, x: Sequence[float], y: Sequence[float]) -> "ExponentialRegressionModel":
        xs, ys = _validate_xy(x, y)
        if np.any(ys <= 0):
            raise ValueError("exponential regression requires positive y values")
        log_y = np.log(ys)
        if np.allclose(xs, xs[0]):
            mean_log = float(log_y.mean())
            return cls(slope=0.0, intercept=mean_log, r_squared=_r_squared(log_y, np.full_like(log_y, mean_log)))
        slope, intercept = np.polyfit(xs, log_y, deg=1)
        predicted = intercept + slope * xs
        return cls(slope=float(slope), intercept=float(intercept), r_squared=_r_squared(log_y, predicted))

    def predict(self, x: float) -> float:
        return math.exp(self.intercept + self.slope * x)


def log_interpolation_weight(value: float, low: float, high: float) -> float:
    """Position of ``value`` between ``low`` and ``high`` on a log scale.

    Returns 0.0 when ``value`` is at (or below) ``low``, 1.0 when at or above
    ``high``, and the logarithmic interpolation factor in between — the
    paper's Figure 10 procedure for blending the CT-Gen and MB-Gen discount
    predictions by the observed L3 miss count.  When the two anchors are
    (nearly) identical the midpoint 0.5 is returned.
    """
    if value <= 0 or low <= 0 or high <= 0:
        raise ValueError("log interpolation requires positive values")
    if high < low:
        low, high = high, low
    if math.isclose(low, high, rel_tol=1e-9):
        return 0.5
    weight = (math.log(value) - math.log(low)) / (math.log(high) - math.log(low))
    return min(max(weight, 0.0), 1.0)
