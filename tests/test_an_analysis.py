"""Tests for the statistics helpers, error metrics and text reporting."""


import pytest

from repro.analysis.errors import price_error_breakdown
from repro.analysis.reporting import format_table
from repro.analysis.stats import geometric_mean


class TestStats:
    def test_geometric_mean_basics(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([3]) == pytest.approx(3.0)

    def test_geometric_mean_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_geometric_mean_below_arithmetic(self):
        values = [1.0, 2.0, 10.0]
        assert geometric_mean(values) < sum(values) / len(values)


class TestPriceErrorBreakdown:
    def test_zero_error_when_prices_match(self):
        breakdown = price_error_breakdown(
            function="aes-py",
            litmus_private=0.8,
            litmus_shared=0.2,
            ideal_private=0.8,
            ideal_shared=0.2,
        )
        assert breakdown.private_error == pytest.approx(0.0)
        assert breakdown.shared_error == pytest.approx(0.0)
        assert breakdown.total_error == pytest.approx(0.0)

    def test_positive_error_means_undercompensation(self):
        breakdown = price_error_breakdown(
            function="aes-py",
            litmus_private=0.9,
            litmus_shared=0.2,
            ideal_private=0.8,
            ideal_shared=0.2,
        )
        assert breakdown.total_error > 0
        assert breakdown.private_error > 0
        assert breakdown.absolute_total_error == pytest.approx(breakdown.total_error)

    def test_component_errors_are_weighted(self):
        # A 50% error on a tiny shared component barely moves the weighted error.
        breakdown = price_error_breakdown(
            function="float-py",
            litmus_private=1.0,
            litmus_shared=0.015,
            ideal_private=1.0,
            ideal_shared=0.01,
        )
        assert abs(breakdown.shared_error) < 0.01

    def test_weighted_component_errors_sum_to_total(self):
        breakdown = price_error_breakdown(
            function="x",
            litmus_private=0.7,
            litmus_shared=0.4,
            ideal_private=0.8,
            ideal_shared=0.3,
        )
        assert breakdown.private_error + breakdown.shared_error == pytest.approx(
            breakdown.total_error
        )

    def test_requires_positive_ideal_price(self):
        with pytest.raises(ValueError):
            price_error_breakdown(
                function="x",
                litmus_private=1.0,
                litmus_shared=0.0,
                ideal_private=0.0,
                ideal_shared=0.0,
            )


class TestReporting:
    def test_format_table_alignment_and_values(self):
        rows = [
            {"function": "aes-py", "price": 0.91234},
            {"function": "float-py", "price": 0.8},
        ]
        text = format_table(rows, ["function", "price"], title="Prices")
        lines = text.splitlines()
        assert lines[0] == "Prices"
        assert "aes-py" in text
        assert "0.9123" in text

    def test_format_table_requires_columns(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_format_table_renders_booleans(self):
        text = format_table([{"ref": True}], ["ref"])
        assert "yes" in text
