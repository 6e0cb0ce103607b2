"""Tests for the regression models and log interpolation."""

import math

import pytest

from repro.core.regression import (
    ExponentialRegressionModel,
    LinearRegressionModel,
    log_interpolation_weight,
)


class TestLinearRegression:
    def test_fits_exact_line(self):
        model = LinearRegressionModel.fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)
        assert model.r_squared == pytest.approx(1.0)
        assert model.predict(5) == pytest.approx(11.0)

    def test_noisy_fit_has_lower_r_squared(self):
        x = [1, 2, 3, 4, 5, 6]
        y = [2.1, 3.9, 6.4, 7.6, 10.5, 11.4]
        model = LinearRegressionModel.fit(x, y)
        assert 0.9 < model.r_squared <= 1.0

    def test_constant_x_falls_back_to_mean(self):
        model = LinearRegressionModel.fit([2, 2, 2], [1, 3, 5])
        assert model.slope == 0.0
        assert model.predict(10) == pytest.approx(3.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            LinearRegressionModel.fit([1], [2])

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            LinearRegressionModel.fit([1, 2], [1])


class TestExponentialRegression:
    def test_fits_exact_exponential(self):
        x = [1.0, 1.5, 2.0, 2.5]
        y = [math.exp(0.5 + 2.0 * xi) for xi in x]
        model = ExponentialRegressionModel.fit(x, y)
        assert model.slope == pytest.approx(2.0, rel=1e-6)
        assert model.intercept == pytest.approx(0.5, rel=1e-6)
        assert model.r_squared == pytest.approx(1.0)
        assert model.predict(3.0) == pytest.approx(math.exp(0.5 + 6.0), rel=1e-6)

    def test_predict_log(self):
        model = ExponentialRegressionModel.fit([1, 2, 3], [10, 100, 1000])
        assert math.log(model.predict(2)) == pytest.approx(math.log(100), rel=1e-6)

    def test_requires_positive_y(self):
        with pytest.raises(ValueError):
            ExponentialRegressionModel.fit([1, 2], [1, -1])

    def test_constant_x_falls_back_to_geometric_mean(self):
        model = ExponentialRegressionModel.fit([3, 3, 3], [10, 100, 1000])
        assert model.predict(3) == pytest.approx(100.0, rel=1e-6)


class TestLogInterpolationWeight:
    def test_endpoints(self):
        assert log_interpolation_weight(10, 10, 1000) == pytest.approx(0.0)
        assert log_interpolation_weight(1000, 10, 1000) == pytest.approx(1.0)

    def test_geometric_midpoint_is_half(self):
        assert log_interpolation_weight(100, 10, 1000) == pytest.approx(0.5)

    def test_clamped_outside_range(self):
        assert log_interpolation_weight(1, 10, 1000) == 0.0
        assert log_interpolation_weight(1e6, 10, 1000) == 1.0

    def test_swapped_bounds_are_reordered(self):
        assert log_interpolation_weight(100, 1000, 10) == pytest.approx(0.5)

    def test_identical_bounds_give_midpoint(self):
        assert log_interpolation_weight(50, 10, 10) == pytest.approx(0.5)

    def test_requires_positive_values(self):
        with pytest.raises(ValueError):
            log_interpolation_weight(0, 10, 100)
