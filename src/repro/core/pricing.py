"""Pricing engines: Litmus, commercial (no discount) and ideal (oracle).

The paper's pricing equations (Section 5.2):

    P = P_private + P_shared                                  (Eq. 1)
    P = R_private * T_private + R_shared * T_shared           (Eq. 2)
    R = R_base * T_solo / T_congestion                        (Eq. 3)

``T_private`` / ``T_shared`` are the measured occupancy split of the tenant's
invocation.  The charging rates are discounted by the *estimated* slowdown of
each component at the current congestion level (from the Litmus test +
tables), not by the tenant's own slowdown — that is the whole point: no
per-function profiling is needed.

Prices are expressed in abstract "rate units x GB x seconds"; all evaluation
figures normalize against the commercial price, so the absolute unit cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.estimator import CongestionEstimate, CongestionEstimator
from repro.core.litmus_test import LitmusObservation
from repro.core.sharing import Method1Adjustment
from repro.platform.invoker import Invocation
from repro.platform.metering import (
    InvocationMeasurement,
    StartupMeasurement,
    measure_invocation,
    measure_startup,
)
from repro.platform.oracle import SoloProfile


def charging_rate(base_rate: float, estimated_slowdown: float) -> float:
    """Equation 3: the discounted charging rate for one component.

    ``T_solo / T_congestion`` equals ``1 / slowdown``, so the rate is the
    base rate divided by the estimated slowdown (never raised above the base
    rate: congestion can only discount, not surcharge).
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if estimated_slowdown <= 0:
        raise ValueError("estimated_slowdown must be positive")
    return base_rate / max(estimated_slowdown, 1.0)


@dataclass(frozen=True)
class PricingComponents:
    """The measured billing inputs of one invocation."""

    t_private_seconds: float
    t_shared_seconds: float
    memory_gb: float

    def __post_init__(self) -> None:
        if self.t_private_seconds < 0 or self.t_shared_seconds < 0:
            raise ValueError("time components must be >= 0")
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")

    @property
    def t_total_seconds(self) -> float:
        return self.t_private_seconds + self.t_shared_seconds

    @classmethod
    def from_measurement(cls, measurement: InvocationMeasurement) -> "PricingComponents":
        return cls(
            t_private_seconds=measurement.t_private_seconds,
            t_shared_seconds=measurement.t_shared_seconds,
            memory_gb=measurement.memory_gb,
        )


@dataclass(frozen=True)
class Price:
    """A price split into its private and shared components."""

    private: float
    shared: float

    @property
    def total(self) -> float:
        return self.private + self.shared


class CommercialPricing:
    """Today's pay-as-you-go pricing: execution time x memory, no discount."""

    def __init__(self, rate_per_gb_second: float = 1.0) -> None:
        if rate_per_gb_second <= 0:
            raise ValueError("rate_per_gb_second must be positive")
        self._rate = rate_per_gb_second

    def price(self, components: PricingComponents) -> Price:
        return Price(
            private=self._rate * components.memory_gb * components.t_private_seconds,
            shared=self._rate * components.memory_gb * components.t_shared_seconds,
        )


class IdealPricing:
    """The oracle price: discount exactly proportional to the slowdown.

    Charging the solo execution time is equivalent to discounting the
    commercial price by the function's actual slowdown, which is what the
    paper's "ideal price" does.  It requires knowing the function's
    interference-free times, which is exactly the information a real
    platform does not have — hence Litmus.
    """

    def __init__(self, rate_per_gb_second: float = 1.0) -> None:
        if rate_per_gb_second <= 0:
            raise ValueError("rate_per_gb_second must be positive")
        self._rate = rate_per_gb_second

    def price(self, memory_gb: float, solo: SoloProfile) -> Price:
        if memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        return Price(
            private=self._rate * memory_gb * solo.t_private_seconds,
            shared=self._rate * memory_gb * solo.t_shared_seconds,
        )


@dataclass(frozen=True)
class PriceQuote:
    """One invocation priced by Litmus alongside the commercial price."""

    function: str
    components: PricingComponents
    observation: LitmusObservation
    estimate: CongestionEstimate
    litmus: Price
    commercial: Price

    @property
    def normalized_price(self) -> float:
        """Litmus price relative to the commercial price (<= 1)."""
        if self.commercial.total <= 0:
            return 1.0
        return self.litmus.total / self.commercial.total

    @property
    def discount(self) -> float:
        """Fraction of the commercial price returned to the tenant."""
        return 1.0 - self.normalized_price


class LitmusPricingEngine:
    """Prices invocations with Litmus tests and calibrated tables."""

    def __init__(
        self,
        estimator: CongestionEstimator,
        *,
        base_rate_per_gb_second: float = 1.0,
        method1: Optional[Method1Adjustment] = None,
    ) -> None:
        self._estimator = estimator
        self._probe = estimator.calibration.probe()
        self._commercial = CommercialPricing(base_rate_per_gb_second)
        self._base_rate = base_rate_per_gb_second
        self._method1 = method1

    # ------------------------------------------------------------------ #
    # Quoting
    # ------------------------------------------------------------------ #
    def quote_measurements(
        self,
        measurement: InvocationMeasurement,
        startup: StartupMeasurement,
    ) -> PriceQuote:
        """Price one invocation from its measurement pair."""
        observation = self._probe.observe_measurement(startup)
        if self._method1 is not None:
            observation = self._method1.adjust_observation(observation)
        estimate = self._estimator.estimate(observation)
        components = PricingComponents.from_measurement(measurement)

        private_slowdown = estimate.private_slowdown
        shared_slowdown = estimate.shared_slowdown
        if self._method1 is not None:
            # Method 1 additionally compensates the temporal-sharing overhead
            # that the dedicated-core tables cannot see (Section 7.2).
            private_slowdown *= self._method1.switching_factor

        rate_private = charging_rate(self._base_rate, private_slowdown)
        rate_shared = charging_rate(self._base_rate, shared_slowdown)
        litmus = Price(
            private=rate_private * components.memory_gb * components.t_private_seconds,
            shared=rate_shared * components.memory_gb * components.t_shared_seconds,
        )
        commercial = self._commercial.price(components)
        return PriceQuote(
            function=measurement.function,
            components=components,
            observation=observation,
            estimate=estimate,
            litmus=litmus,
            commercial=commercial,
        )

    def quote(self, invocation: Invocation) -> PriceQuote:
        """Price a completed invocation."""
        return self.quote_measurements(
            measure_invocation(invocation), measure_startup(invocation)
        )
