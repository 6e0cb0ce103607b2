"""Statistics, error metrics and plain-text reporting helpers."""

from repro.analysis.stats import geometric_mean
from repro.analysis.errors import PriceErrorBreakdown, price_error_breakdown
from repro.analysis.reporting import format_table

__all__ = [
    "geometric_mean",
    "PriceErrorBreakdown",
    "price_error_breakdown",
    "format_table",
]
