"""Tests for the pricing engines (commercial, ideal, Litmus, Method 1)."""

import pytest

from repro.core.litmus_test import LitmusObservation
from repro.core.pricing import (
    CommercialPricing,
    IdealPricing,
    LitmusPricingEngine,
    PricingComponents,
    charging_rate,
)
from repro.core.sharing import Method1Adjustment
from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.engine import SimulationEngine
from repro.platform.metering import measure_invocation
from repro.platform.scheduler import DedicatedCoreScheduler
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind, generator


class TestChargingRate:
    def test_no_congestion_means_full_rate(self):
        assert charging_rate(1.0, 1.0) == pytest.approx(1.0)

    def test_rate_discounted_by_slowdown(self):
        assert charging_rate(1.0, 2.0) == pytest.approx(0.5)

    def test_rate_never_exceeds_base(self):
        assert charging_rate(1.0, 0.5) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            charging_rate(0.0, 1.0)
        with pytest.raises(ValueError):
            charging_rate(1.0, 0.0)


class TestCommercialAndIdealPricing:
    def test_commercial_price_is_time_times_memory(self):
        components = PricingComponents(
            t_private_seconds=0.08, t_shared_seconds=0.02, memory_gb=0.5
        )
        price = CommercialPricing(rate_per_gb_second=2.0).price(components)
        assert price.total == pytest.approx(2.0 * 0.5 * 0.1)
        assert price.private == pytest.approx(2.0 * 0.5 * 0.08)

    def test_components_validation(self):
        with pytest.raises(ValueError):
            PricingComponents(t_private_seconds=-1, t_shared_seconds=0, memory_gb=1)
        with pytest.raises(ValueError):
            PricingComponents(t_private_seconds=1, t_shared_seconds=0, memory_gb=0)

    def test_ideal_price_charges_solo_time(self, oracle, small_registry):
        spec = small_registry.get("aes-py")
        solo = oracle.profile(spec)
        price = IdealPricing().price(spec.memory_gb, solo)
        assert price.total == pytest.approx(spec.memory_gb * solo.t_total_seconds)


@pytest.fixture(scope="module")
def congested_invocation():
    """One aes-py invocation run against MB-Gen congestion."""
    from repro.workloads.registry import default_registry

    spec = default_registry().scaled(0.25).get("aes-py")
    engine = SimulationEngine(CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler())
    victim = engine.submit(spec, thread_id=0)
    for index, gen_spec in enumerate(generator(GeneratorKind.MB, 10).thread_specs()):
        engine.submit(gen_spec, thread_id=index + 1)
    assert engine.run_until(lambda e: victim.is_completed, max_seconds=60.0)
    return victim


class TestLitmusPricingEngine:
    def test_quote_discounts_against_commercial(self, small_estimator, congested_invocation):
        engine = LitmusPricingEngine(small_estimator)
        quote = engine.quote(congested_invocation)
        assert quote.litmus.total <= quote.commercial.total + 1e-12
        assert 0.0 <= quote.discount < 1.0
        assert quote.normalized_price == pytest.approx(
            quote.litmus.total / quote.commercial.total
        )

    def test_discount_tracks_actual_slowdown(self, small_estimator, small_oracle, congested_invocation, small_registry):
        engine = LitmusPricingEngine(small_estimator)
        quote = engine.quote(congested_invocation)
        solo = small_oracle.profile(small_registry.get("aes-py"))
        actual_slowdown = (
            measure_invocation(congested_invocation).t_total_seconds / solo.t_total_seconds
        )
        ideal_discount = 1.0 - 1.0 / actual_slowdown
        # Litmus is an estimate, not an oracle: allow a generous band.
        assert quote.discount == pytest.approx(ideal_discount, abs=0.1)

    def test_method1_adjusts_probe_before_estimation(self, small_estimator, congested_invocation):
        plain = LitmusPricingEngine(small_estimator).quote(congested_invocation)
        method1 = LitmusPricingEngine(
            small_estimator, method1=Method1Adjustment(functions_per_thread=10)
        ).quote(congested_invocation)
        # Method 1 removes the switching overhead from the probe reading, so
        # its congestion estimate can only be lower or equal...
        assert method1.estimate.private_slowdown <= plain.estimate.private_slowdown + 1e-12
        assert method1.observation.private_slowdown < plain.observation.private_slowdown
        # ...while the price stays within a whisker of the plain quote in a
        # dedicated-core environment (there is no real switching overhead to
        # compensate here).
        assert method1.litmus.total == pytest.approx(plain.litmus.total, rel=0.02)

    def test_uncongested_invocation_gets_tiny_discount(self, small_estimator, small_registry):
        spec = small_registry.get("fib-go")
        engine = SimulationEngine(CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler())
        invocation = engine.submit(spec)
        assert engine.run_until(lambda e: invocation.is_completed, max_seconds=30.0)
        quote = LitmusPricingEngine(small_estimator).quote(invocation)
        assert quote.discount < 0.05


class TestMethod1Adjustment:
    def test_adjusts_private_slowdown_only(self):
        adjustment = Method1Adjustment(functions_per_thread=10)
        observation = LitmusObservation(
            function="x",
            language=Language.PYTHON,
            private_slowdown=1.05,
            shared_slowdown=2.0,
            total_slowdown=1.2,
            machine_l3_misses=1e5,
            startup_wall_seconds=0.0,
        )
        adjusted = adjustment.adjust_observation(observation)
        assert adjusted.private_slowdown < observation.private_slowdown
        assert adjusted.shared_slowdown == observation.shared_slowdown

    def test_switching_factor_matches_model(self):
        adjustment = Method1Adjustment(functions_per_thread=10)
        assert adjustment.switching_factor == pytest.approx(1.023, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            Method1Adjustment(functions_per_thread=0)

