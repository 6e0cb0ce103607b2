"""The calibration service: search, detection, atomic republish."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import diskcache
from repro.calibrate import (
    CalibrationConfig,
    ContinuousCalibrator,
    DriftEvent,
    DriftInjector,
    best_candidate,
    calibrate_once,
    fit_key,
    fitted_profile,
    get_param,
    grid_search,
    linspace,
    load_fit,
    measure_series,
    perturbed,
    profile_by_name,
    publish_fit,
)
from repro.calibrate.service import CandidateScore
from repro.obs import CalibrationEvent

PATH = "contention.memory_queueing_coefficient"


@pytest.fixture(scope="module")
def profile():
    return profile_by_name("sg2042-like")


@pytest.fixture(scope="module")
def config():
    return CalibrationConfig()


def test_linspace_is_inclusive_and_even():
    values = linspace(0.0, 1.0, 5)
    assert values == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        linspace(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        linspace(1.0, 1.0, 3)


def test_config_validation():
    for kwargs in (
        {"linspace_points": 1},
        {"max_parallel_workers": 0},
        {"mape_window_epochs": 0},
        {"drift_mape_threshold": 0.0},
        {"epochs_per_round": 0},
        {"search_min": 2.0, "search_max": 1.0},
    ):
        with pytest.raises(ValueError):
            CalibrationConfig(**kwargs)


def test_grid_anchors_at_the_nominal_fit(profile, config):
    grid = config.grid(profile)
    nominal = get_param(profile, PATH)
    assert grid[0] == pytest.approx(0.5 * nominal)
    assert grid[-1] == pytest.approx(2.0 * nominal)
    assert len(grid) == config.linspace_points


def test_best_candidate_tie_breaks_on_value():
    scores = [
        CandidateScore(value=2.0, mape=0.1),
        CandidateScore(value=1.0, mape=0.1),
        CandidateScore(value=3.0, mape=0.2),
    ]
    assert best_candidate(scores).value == 1.0


def test_grid_search_recovers_within_one_step(profile, config):
    """The acceptance bar: a 1.3x-perturbed truth lands one grid step away."""
    truth_profile = perturbed(profile, PATH, 1.3)
    truth = measure_series(truth_profile, config.measure, config.mape_window_epochs)
    scores = grid_search(profile, config, truth)
    best = best_candidate(scores)
    grid = config.grid(profile)
    step = grid[1] - grid[0]
    assert abs(best.value - get_param(truth_profile, PATH)) <= step
    assert best.mape <= config.drift_mape_threshold
    # the stale nominal fit is distinguishable from the recovered one
    nominal_mape = min(
        s.mape for s in scores if abs(s.value - get_param(profile, PATH)) <= step
    )
    assert nominal_mape > best.mape


def test_grid_search_is_worker_count_independent(profile, config):
    truth = measure_series(
        perturbed(profile, PATH, 1.3), config.measure, config.mape_window_epochs
    )
    inline = grid_search(profile, config, truth)
    parallel = grid_search(
        profile,
        dataclasses.replace(config, max_parallel_workers=2),
        truth,
    )
    assert inline == parallel


def test_publish_and_load_roundtrip(profile, config):
    key, payload, path = publish_fit(
        profile, config, value=0.875, fit_mape=0.0012, round_index=3
    )
    assert path is not None and path.exists()
    assert key == fit_key(profile, config)
    loaded = load_fit(profile, config)
    assert loaded is not None
    assert loaded["value"] == 0.875
    assert loaded["round_index"] == 3
    assert loaded["fingerprint"] == payload["fingerprint"]
    fitted = fitted_profile(profile, config)
    assert get_param(fitted, PATH) == 0.875


def test_tampered_fit_is_rejected(profile, config):
    _, _, path = publish_fit(
        profile, config, value=0.875, fit_mape=0.0012, round_index=0
    )
    document = json.loads(path.read_text(encoding="utf-8"))
    document["payload"]["value"] = 99.0  # hand-edited fit, stale fingerprint
    path.write_text(json.dumps(document), encoding="utf-8")
    assert load_fit(profile, config) is None
    assert fitted_profile(profile, config) == profile  # falls back to nominal


def test_fit_slots_are_distinct_per_search_shape(profile, config):
    other = dataclasses.replace(config, linspace_points=5)
    assert fit_key(profile, config) != fit_key(profile, other)
    assert fit_key(profile, config) != fit_key(
        profile_by_name("icelake-like"), config
    )


def test_republish_overwrites_the_slot_atomically(profile, config):
    publish_fit(profile, config, value=0.7, fit_mape=0.01, round_index=0)
    publish_fit(profile, config, value=0.875, fit_mape=0.001, round_index=1)
    loaded = load_fit(profile, config)
    assert loaded["value"] == 0.875
    assert loaded["round_index"] == 1
    # one entry per slot: the cache holds the newest fit only
    entries = list(diskcache.cache_dir().glob(f"calibration-fit-{fit_key(profile, config)}.json"))
    assert len(entries) == 1


def test_drift_free_rounds_never_fire(profile, config):
    calibrator = ContinuousCalibrator(profile, config)
    results = calibrator.run(3)
    assert all(not r.drift_detected for r in results)
    assert all(r.windowed_mape == 0.0 for r in results)
    assert calibrator.incumbent == profile


def test_drift_is_detected_and_repaired(profile, config):
    events = []
    injector = DriftInjector(
        profile, (DriftEvent(start_seconds=0.030, path=PATH, scale=1.4),)
    )
    calibrator = ContinuousCalibrator(
        profile, config, drift=injector, observer=events.append
    )
    results = calibrator.run(8)
    fired = [r for r in results if r.drift_detected]
    assert fired, "drift was never detected"
    repair = fired[0]
    truth_value = get_param(profile, PATH) * 1.4
    grid = config.grid(profile)
    step = grid[1] - grid[0]
    assert repair.best is not None
    assert abs(repair.best.value - truth_value) <= step
    assert repair.fit_fingerprint
    # the repaired incumbent holds for the remaining rounds
    after = [r for r in results if r.round_index > repair.round_index]
    assert after and all(not r.drift_detected for r in after)
    assert get_param(calibrator.incumbent, PATH) == repair.best.value
    # the repair was republished through the cache
    loaded = load_fit(profile, config)
    assert loaded is not None and loaded["value"] == repair.best.value
    # observer saw rounds, candidates and the republish
    kinds = {e.kind for e in events}
    assert kinds == {"round", "candidate", "republish"}
    assert all(isinstance(e, CalibrationEvent) for e in events)


def test_calibrate_once_converges(profile, config):
    result = calibrate_once(
        perturbed(profile, PATH, 1.3), config, incumbent=profile
    )
    assert result.converged
    assert result.best is not None
    grid = config.grid(profile)
    step = grid[1] - grid[0]
    assert abs(result.best.value - get_param(profile, PATH) * 1.3) <= step


def test_mismatched_machines_are_rejected(profile, config):
    other = profile_by_name("icelake-like")
    with pytest.raises(ValueError, match="machine"):
        ContinuousCalibrator(profile, config, incumbent=other)
    with pytest.raises(ValueError, match="machine"):
        calibrate_once(profile, config, incumbent=other)


def test_event_render_lines_are_informative():
    round_event = CalibrationEvent(
        kind="round",
        round_index=2,
        parameter=PATH,
        value=0.7,
        mape=0.0098,
        threshold=0.005,
        drift_detected=True,
    )
    assert "drift detected" in round_event.render_line()
    republish = CalibrationEvent(
        kind="republish",
        round_index=2,
        parameter=PATH,
        value=0.875,
        mape=0.0012,
        fingerprint="abcdef0123456789",
    )
    line = republish.render_line()
    assert "republish" in line and "abcdef012345" in line
    candidate = CalibrationEvent(
        kind="candidate",
        round_index=0,
        parameter=PATH,
        value=0.35,
        mape=0.02,
        candidate_index=0,
        candidates_total=9,
    )
    assert "1/9" in candidate.render_line()


def test_oracle_cache_keys_on_contention_parameters(monkeypatch):
    """The same fit reuses its solo profile without re-simulating; a refit
    gets its own."""
    from repro.experiments.config import one_per_core
    from repro.experiments.harness import oracle_for, registry_for
    from repro.hardware.contention import ContentionParameters
    from repro.platform.oracle import SoloOracle

    config = one_per_core()
    spec = registry_for(config).test_functions()[0]
    refit = ContentionParameters(memory_queueing_coefficient=0.875)
    nominal = oracle_for(config).profile(spec)
    recalibrated = oracle_for(config, contention_parameters=refit).profile(spec)
    monkeypatch.setattr(
        SoloOracle, "_run_solo", lambda self, spec: pytest.fail("re-simulated a profile")
    )
    assert oracle_for(config).profile(spec) is nominal
    assert oracle_for(config, contention_parameters=refit).profile(spec) is recalibrated
    assert recalibrated != nominal
