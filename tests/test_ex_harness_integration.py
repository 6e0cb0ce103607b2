"""Integration tests: characterization, calibration-backed figure modules and
end-to-end pricing on a small one-function-per-core environment.

These tests exercise the full stack (workloads → platform → calibration →
estimator → pricing → experiment harness) on deliberately small
configurations so the whole file runs in well under a minute.
"""

import pytest

from repro.experiments import (
    fig02_corun_slowdown,
    fig03_time_split,
    fig05_tables,
    fig07_probe_timeline,
    fig08_reference_mbgen,
    fig09_regression,
    fig10_interpolation,
    fig11_price_26,
    fig12_price_errors,
    fig13_discount_lines,
)
from repro.experiments.harness import (
    price_evaluation_cached,
    run_characterization,
)


@pytest.fixture(scope="module")
def characterization(quick_config):
    return run_characterization(quick_config)


@pytest.fixture(scope="module")
def price_result(quick_config):
    return price_evaluation_cached(quick_config)


class TestCharacterization:
    def test_covers_all_benchmarks(self, characterization, registry):
        assert len(characterization.functions) == len(registry)

    def test_corunning_slows_functions_down(self, characterization):
        # Paper Figure 2: a noticeable geometric-mean slowdown, nothing absurd.
        assert 1.02 < characterization.gmean_total_slowdown < 1.4
        assert characterization.max_total_slowdown < 2.0

    def test_shared_time_far_more_sensitive_than_private(self, characterization):
        # Paper Figure 3: T_shared inflates by multiples, T_private by a few %.
        assert characterization.gmean_shared_slowdown > 1.5
        assert 1.0 <= characterization.gmean_private_slowdown < 1.1
        assert (
            characterization.gmean_shared_slowdown
            > characterization.gmean_private_slowdown * 1.3
        )

    def test_compute_bound_functions_least_affected(self, characterization):
        by_function = {f.function: f for f in characterization.functions}
        assert by_function["float-py"].total_slowdown < characterization.gmean_total_slowdown
        assert by_function["float-py"].solo_shared_fraction < 0.1


class TestFigure2And3Modules:
    def test_fig02_rows(self, quick_config):
        result = fig02_corun_slowdown.run(quick_config)
        assert result.rows[-1]["function"] == "gmean"
        assert result.summary["gmean_slowdown"] > 1.0

    def test_fig03_rows(self, quick_config):
        result = fig03_time_split.run(quick_config)
        assert result.summary["gmean_shared_slowdown"] > result.summary["gmean_private_slowdown"]


class TestCalibrationBackedFigures:
    def test_fig05_tables_populated(self, quick_config):
        result = fig05_tables.run(quick_config)
        assert result.summary["congestion_entries"] == 2 * 2 * 3  # generators x levels x languages
        assert result.summary["performance_entries"] == 2 * 2

    def test_fig08_reference_slowdowns(self, quick_config):
        result = fig08_reference_mbgen.run(quick_config)
        functions = [row["function"] for row in result.rows]
        assert "gmean" in functions
        assert "start-py" in functions
        assert result.summary["gmean_total_slowdown"] > 1.0

    def test_fig09_regressions_have_good_fit(self, quick_config):
        result = fig09_regression.run(quick_config)
        r2_values = [v for k, v in result.summary.items() if "_r2_" in k]
        assert r2_values
        assert all(value > 0.5 for value in r2_values)

    def test_fig10_interpolation_blends_between_generators(self, quick_config):
        result = fig10_interpolation.run(quick_config)
        discounts = [row["discount"] for row in result.rows]
        weights = [row["mb_weight"] for row in result.rows]
        # The MB-likeness weight grows monotonically with observed L3 misses
        # and the blended discount always stays between the two extremes.
        assert weights == sorted(weights)
        assert weights[0] == pytest.approx(0.0, abs=1e-9)
        assert weights[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= d < 0.6 for d in discounts)
        assert result.summary["mb_expected_l3_misses"] > result.summary["ct_expected_l3_misses"]

    def test_fig07_probe_timeline(self, quick_config):
        result = fig07_probe_timeline.run(quick_config)
        assert result.summary["probes"] >= 4
        assert result.summary["max_estimated_slowdown"] >= result.summary["min_estimated_slowdown"]
        times = [row["time_s"] for row in result.rows]
        assert times == sorted(times)


class TestPriceEvaluation:
    def test_prices_ordered_commercial_litmus_ideal(self, price_result):
        for row in price_result.rows:
            assert 0.5 < row.litmus_normalized_price <= 1.0 + 1e-9
            assert 0.5 < row.ideal_normalized_price <= 1.0 + 1e-9

    def test_average_discounts_are_close(self, price_result):
        # The headline property: Litmus tracks the ideal discount closely.
        assert abs(price_result.discount_gap) < 0.05
        assert price_result.average_litmus_discount > 0.0
        assert price_result.average_ideal_discount > 0.0

    def test_per_function_errors_are_bounded(self, price_result):
        assert price_result.max_abs_error < 0.12
        assert price_result.abs_error_geomean < 0.06

    def test_compute_bound_functions_overcompensated(self, price_result):
        # float-py barely slows down yet receives the system-wide discount,
        # so its Litmus price should undercut its ideal price (paper Sec. 7.1).
        row = next(row for row in price_result.rows if row.function == "float-py")
        assert row.litmus_normalized_price <= row.ideal_normalized_price + 0.01

    def test_cache_returns_same_object(self, quick_config):
        assert price_evaluation_cached(quick_config) is price_evaluation_cached(quick_config)


class TestPriceFigureModules:
    def test_fig11_summary(self, quick_config):
        result = fig11_price_26.run(quick_config)
        assert result.rows[-1]["function"] == "gmean"
        assert 0.0 < result.summary["average_litmus_discount"] < 0.5

    def test_fig12_errors(self, quick_config):
        result = fig12_price_errors.run(quick_config)
        assert result.summary["max_abs_error"] < 0.15
        assert len(result.rows) == 15  # 14 test functions + abs geomean row

    def test_fig13_rates(self, quick_config):
        result = fig13_discount_lines.run(quick_config)
        assert 0.5 < result.summary["gmean_private_rate"] <= 1.0
        assert 0.0 < result.summary["gmean_shared_rate"] <= 1.0
        # Shared resources are discounted more heavily than private ones.
        assert result.summary["gmean_shared_rate"] < result.summary["gmean_private_rate"]
