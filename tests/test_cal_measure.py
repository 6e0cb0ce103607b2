"""The measured stream: determinism, backend agreement, drift hooks."""

from __future__ import annotations

import pytest

from repro.calibrate import (
    DriftEvent,
    DriftInjector,
    MeasureConfig,
    measure_series,
    perturbed,
    profile_by_name,
)
from repro.hardware.contention import ContentionParameters
from repro.hardware.cpu import CPU
from repro.platform.batch.vector_engine import VectorEngine, VectorEngineConfig
from repro.platform.engine import EngineConfig, SimulationEngine
from repro.platform.scheduler import LeastOccupancyScheduler
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import WorkloadMixer

PATH = "contention.memory_queueing_coefficient"


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-12)


@pytest.fixture(scope="module")
def profile():
    return profile_by_name("sg2042-like")


@pytest.fixture(scope="module")
def config():
    return MeasureConfig()


def test_measure_series_is_deterministic(profile, config):
    one = measure_series(profile, config, 24)
    two = measure_series(profile, config, 24)
    assert one == two
    assert len(one) == 24
    # shared-stall fractions live in [0, 1] and the window is non-trivial
    assert all(0.0 <= v <= 1.0 for v in one)
    assert one[-1] > 0.0


def test_same_parameters_reproduce_bit_for_bit(profile, config):
    """A candidate matching the truth coefficients scores exactly zero."""
    truth = measure_series(perturbed(profile, PATH, 1.3), config, 24)
    replay = measure_series(perturbed(profile, PATH, 1.3), config, 24)
    assert truth == replay  # bit-identical, not approximately equal


def test_wrong_parameters_move_the_series(profile, config):
    nominal = measure_series(profile, config, 24)
    drifted = measure_series(perturbed(profile, PATH, 1.3), config, 24)
    assert nominal != drifted


def test_vector_backend_agrees_with_scalar(profile, config):
    scalar = measure_series(profile, config, 24, backend="scalar")
    vector = measure_series(profile, config, 24, backend="vector")
    assert len(scalar) == len(vector)
    for got, expected in zip(vector, scalar):
        assert _rel(got, expected) < 1e-9


def test_backends_segment_mid_window_drift_identically(profile, config):
    injector = DriftInjector(
        profile, (DriftEvent(start_seconds=0.012, path=PATH, scale=1.5),)
    )
    scalar = measure_series(profile, config, 24, drift=injector)
    vector = measure_series(profile, config, 24, drift=injector, backend="vector")
    undrifted = measure_series(profile, config, 24)
    for got, expected in zip(vector, scalar):
        assert _rel(got, expected) < 1e-9
    # the drift boundary at epoch 12 is where the series first diverge
    assert scalar[:12] == undrifted[:12]
    assert scalar[12:] != undrifted[12:]


def test_window_start_places_the_drift_clock(profile, config):
    injector = DriftInjector(
        profile, (DriftEvent(start_seconds=0.012, path=PATH, scale=1.5),)
    )
    # a window starting after the event sees drifted hardware throughout
    late = measure_series(
        profile, config, 24, start_seconds=0.1, drift=injector
    )
    drifted_profile = injector.profile_at(0.1)
    assert late == measure_series(drifted_profile, config, 24)


def test_measure_config_validation(profile):
    with pytest.raises(ValueError):
        MeasureConfig(cores=0)
    with pytest.raises(ValueError):
        MeasureConfig(colocation=0)
    with pytest.raises(ValueError):
        MeasureConfig(epoch_seconds=0.0)
    with pytest.raises(ValueError, match="backend"):
        measure_series(profile, MeasureConfig(), 8, backend="quantum")
    with pytest.raises(ValueError):
        measure_series(profile, MeasureConfig(), 0)
    with pytest.raises(ValueError, match="cores"):
        measure_series(profile, MeasureConfig(cores=64), 8)


def test_recalibrated_engines_stay_bit_exact():
    """Swapped-in coefficients keep vector and scalar in lockstep.

    The repo-wide correctness bar: under recalibrated parameters applied
    mid-run through ``set_contention_parameters``, the vector engine's
    machine counters still match the scalar engine's exactly.
    """
    profile = profile_by_name("sg2042-like")
    recalibrated = ContentionParameters(memory_queueing_coefficient=0.875)
    registry = default_registry().scaled(0.05)
    pool = registry.all()
    epoch = 1e-3

    scalar = SimulationEngine(
        CPU(profile.machine, contention_parameters=profile.contention),
        LeastOccupancyScheduler(),
        config=EngineConfig(epoch_seconds=epoch),
    )
    vector = VectorEngine(
        profile.machine,
        machines=1,
        config=VectorEngineConfig(epoch_seconds=epoch),
        contention_parameters=profile.contention,
        materialize_handles=False,
    )
    for engine, is_vector in ((scalar, False), (vector, True)):
        mixer = WorkloadMixer(pool, seed=7)
        for thread in range(4):
            for _ in range(2):
                if is_vector:
                    engine.submit(mixer.next(), machine=0, thread_id=thread)
                else:
                    engine.submit(mixer.next(), thread_id=thread)
    for _ in range(10):
        scalar.run_epoch()
        vector.run_epoch()
    scalar.set_contention_parameters(recalibrated)
    vector.set_contention_parameters(recalibrated)
    for _ in range(10):
        scalar.run_epoch()
        vector.run_epoch()

    got = vector.machine_counters(0)
    expected = scalar.cpu.global_counters
    assert got.instructions == pytest.approx(expected.instructions, rel=1e-12)
    assert got.cycles == pytest.approx(expected.cycles, rel=1e-12)
    assert got.stall_cycles_l2_miss == pytest.approx(
        expected.stall_cycles_l2_miss, rel=1e-12
    )
