"""Small statistics helpers shared by calibration, pricing and experiments.

The paper reports most aggregates as geometric means (slowdowns, normalized
prices), so that is the default aggregator throughout the reproduction.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Raises :class:`ValueError` on an empty input or non-positive values —
    silently returning 0 or skipping entries would hide calibration bugs.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of an empty sequence is undefined")
    total = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric_mean requires positive values, got {value}")
        total += math.log(value)
    return math.exp(total / len(values))


def mape(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute percentage error of ``predicted`` against ``actual``.

    The calibration score (see :mod:`repro.calibrate`): each element
    contributes ``|predicted - actual| / max(|actual|, 1e-12)`` — the
    denominator floor keeps an exact-zero observation from blowing the
    mean up to infinity while still punishing any disagreement about it.
    An identical pair of series scores exactly 0.0.
    """
    if len(predicted) != len(actual):
        raise ValueError(
            f"mape needs series of equal length, got {len(predicted)} vs {len(actual)}"
        )
    if not actual:
        raise ValueError("mape of empty series is undefined")
    total = 0.0
    for guess, truth in zip(predicted, actual):
        total += abs(guess - truth) / max(abs(truth), 1e-12)
    return total / len(actual)
