"""Regression tests for the parallel-runner calibration warm-up.

``python -m repro run --jobs 2`` used to take ~137s against ~50s
sequential: every pool worker started with cold in-process caches at the
same instant and recomputed the same calibration sweeps concurrently
(the disk cache deduplicates *sequential* work, not simultaneous work).
The fix warms each distinct calibration once in the parent before the
fan-out; these tests pin down the dedup arithmetic and the disk-cache
reuse that makes the warmed workers actually start warm.
"""

from __future__ import annotations

import pytest

from repro.core.calibration import Calibrator
from repro.experiments import harness
from repro.experiments.config import PricingMethod, sharing_160, unfixed_frequency_160
from repro.experiments.harness import (
    calibration_for,
    calibration_identity,
    clear_experiment_caches,
    warm_shared_calibrations,
)
from repro.experiments.runner import FIGURE_MODULES


def test_full_sweep_warms_exactly_four_distinct_calibrations(monkeypatch):
    """All 26 figure jobs share just 4 calibration tables."""
    warmed = []
    monkeypatch.setattr(
        harness, "calibration_for", lambda config: warmed.append(config)
    )
    count = warm_shared_calibrations(list(FIGURE_MODULES))
    assert count == len(warmed) == 4
    assert len({calibration_identity(config) for config in warmed}) == 4
    # The four: dedicated/Cascade, shared/Cascade, shared/IceLake, smt/Cascade.
    assert sorted(
        (config.machine.name, config.calibration_scenario.name) for config in warmed
    ) == [
        ("xeon-gold-5218", "dedicated-14"),
        ("xeon-gold-5218", "shared-5x10"),
        ("xeon-gold-5218", "smt-5x5"),
        ("xeon-silver-4314", "shared-5x10"),
    ]


def test_calibration_free_figures_warm_nothing(monkeypatch):
    monkeypatch.setattr(
        harness,
        "calibration_for",
        lambda config: pytest.fail("no calibration should be computed"),
    )
    assert warm_shared_calibrations(["table1", "fig01", "fig02", "fig14"]) == 0


def test_turbo_config_shares_the_shared_cascade_tables():
    """frequency_policy must stay out of the identity: fig18 (turbo) reuses
    fig16's calibration rather than forcing a fifth sweep."""
    assert calibration_identity(unfixed_frequency_160()) == calibration_identity(
        sharing_160(PricingMethod.METHOD2)
    )
    # ...while METHOD1's dedicated scenario is a genuinely different table.
    assert calibration_identity(sharing_160(PricingMethod.METHOD1)) != calibration_identity(
        sharing_160(PricingMethod.METHOD2)
    )


def test_warmed_calibration_is_reused_from_disk_by_cold_workers(
    quick_config, monkeypatch
):
    """A worker with cold in-process caches must load the parent's warmed
    calibration from disk instead of re-running the sweep."""
    reference = calibration_for(quick_config)  # parent warms (and persists)

    # Simulate a fresh worker process: in-process caches empty...
    clear_experiment_caches()
    # ...and any attempt to actually calibrate is an error.
    monkeypatch.setattr(
        Calibrator,
        "calibrate",
        lambda self: pytest.fail("cold worker recomputed a warmed calibration"),
    )
    reloaded = calibration_for(quick_config)
    assert reloaded.machine.name == reference.machine.name
    assert reloaded.scenario == reference.scenario
