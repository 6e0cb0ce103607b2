"""Congestion estimation: from a Litmus observation to expected slowdowns.

The estimator is built from a :class:`repro.core.calibration.CalibrationResult`
and implements Section 6, step 3:

* for each (language, generator) pair it fits linear models mapping the
  startup probe's private/shared slowdown to the reference functions'
  private/shared slowdown at the same stress level (Figure 9), and an
  exponential model mapping the probe's slowdown to the machine L3 miss
  count at that level (Figure 10a);
* at run time, an observation is evaluated under both generators' models,
  producing two candidate slowdowns; the machine's observed L3 miss count is
  placed between the two generators' expected L3 miss counts on a log scale,
  and that weight blends the two candidates (Figure 10b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.calibration import CalibrationResult
from repro.core.litmus_test import LitmusObservation
from repro.core.regression import (
    ExponentialRegressionModel,
    LinearRegressionModel,
    log_interpolation_weight,
)
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind


@dataclass(frozen=True)
class GeneratorPrediction:
    """Slowdowns predicted by one traffic generator's regression models."""

    generator: GeneratorKind
    private_slowdown: float
    shared_slowdown: float
    total_slowdown: float
    expected_l3_misses: float


@dataclass(frozen=True)
class CongestionEstimate:
    """The blended slowdown estimate used to set charging rates."""

    observation: LitmusObservation
    private_slowdown: float
    shared_slowdown: float
    total_slowdown: float
    mb_weight: float
    predictions: Mapping[GeneratorKind, GeneratorPrediction]


@dataclass(frozen=True)
class _ComponentModels:
    private: LinearRegressionModel
    shared: LinearRegressionModel
    total: LinearRegressionModel
    l3: ExponentialRegressionModel
    #: Calibrated range of the total-slowdown axis.  The exponential L3-miss
    #: model is only trusted inside this range: extrapolating an on-chip
    #: (CT-Gen) model far beyond its calibration can otherwise predict more
    #: misses than the bandwidth-bound extreme, which would corrupt the
    #: interpolation weight.
    total_slowdown_range: Tuple[float, float]


class CongestionEstimator:
    """Maps Litmus observations to expected reference-function slowdowns."""

    def __init__(self, calibration: CalibrationResult) -> None:
        self._calibration = calibration
        self._models: Dict[Tuple[Language, GeneratorKind], _ComponentModels] = {}
        self._fit_models()

    @property
    def calibration(self) -> CalibrationResult:
        return self._calibration

    @property
    def generators(self) -> Tuple[GeneratorKind, ...]:
        return self._calibration.generators

    def models_for(
        self, language: Language, generator: GeneratorKind
    ) -> _ComponentModels:
        try:
            return self._models[(language, generator)]
        except KeyError:
            generator_name = getattr(generator, "value", generator)
            raise KeyError(
                f"no calibrated models for language={language.value}, "
                f"generator={generator_name}"
            ) from None

    def regression_quality(self) -> Dict[str, float]:
        """R^2 of every fitted model, keyed by "<language>/<generator>/<component>"."""
        quality: Dict[str, float] = {}
        for (language, kind), models in self._models.items():
            prefix = f"{language.value}/{kind.value}"
            quality[f"{prefix}/private"] = models.private.r_squared
            quality[f"{prefix}/shared"] = models.shared.r_squared
            quality[f"{prefix}/total"] = models.total.r_squared
            quality[f"{prefix}/l3"] = models.l3.r_squared
        return quality

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def predict_for_generator(
        self, observation: LitmusObservation, generator: GeneratorKind
    ) -> GeneratorPrediction:
        """Slowdowns the observation implies if congestion matched ``generator``."""
        models = self.models_for(observation.language, generator)
        low, high = models.total_slowdown_range
        clamped_total = min(max(observation.total_slowdown, low), high)
        return GeneratorPrediction(
            generator=generator,
            private_slowdown=max(models.private.predict(observation.private_slowdown), 1.0),
            shared_slowdown=max(models.shared.predict(observation.shared_slowdown), 1.0),
            total_slowdown=max(models.total.predict(observation.total_slowdown), 1.0),
            expected_l3_misses=max(models.l3.predict(clamped_total), 1e-6),
        )

    def estimate(self, observation: LitmusObservation) -> CongestionEstimate:
        """Blend the per-generator predictions by the observed L3 miss count."""
        predictions = {
            kind: self.predict_for_generator(observation, kind)
            for kind in self.generators
        }
        if GeneratorKind.CT in predictions and GeneratorKind.MB in predictions:
            ct = predictions[GeneratorKind.CT]
            mb = predictions[GeneratorKind.MB]
            weight = log_interpolation_weight(
                max(observation.machine_l3_misses, 1e-6),
                ct.expected_l3_misses,
                mb.expected_l3_misses,
            )
            # When MB-Gen's expected misses are (unusually) below CT-Gen's,
            # the log weight is computed over the swapped interval; re-anchor
            # it so weight=1 always means "MB-like".
            if mb.expected_l3_misses < ct.expected_l3_misses:
                weight = 1.0 - weight
            private = (1.0 - weight) * ct.private_slowdown + weight * mb.private_slowdown
            shared = (1.0 - weight) * ct.shared_slowdown + weight * mb.shared_slowdown
            total = (1.0 - weight) * ct.total_slowdown + weight * mb.total_slowdown
        else:
            # Single-generator calibration: use it directly.
            only = next(iter(predictions.values()))
            weight = 1.0 if only.generator is GeneratorKind.MB else 0.0
            private, shared, total = (
                only.private_slowdown,
                only.shared_slowdown,
                only.total_slowdown,
            )
        return CongestionEstimate(
            observation=observation,
            private_slowdown=max(private, 1.0),
            shared_slowdown=max(shared, 1.0),
            total_slowdown=max(total, 1.0),
            mb_weight=weight,
            predictions=predictions,
        )

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _fit_models(self) -> None:
        congestion = self._calibration.congestion_table
        performance = self._calibration.performance_table
        for language in self._calibration.languages():
            for kind in self._calibration.generators:
                probe_entries = congestion.entries(generator=kind, language=language)
                if len(probe_entries) < 2:
                    raise ValueError(
                        "calibration must include at least two stress levels per "
                        f"generator; got {len(probe_entries)} for {kind.value}"
                    )
                x_private, x_shared, x_total, l3 = [], [], [], []
                y_private, y_shared, y_total = [], [], []
                for probe_obs in probe_entries:
                    perf_obs = performance.get(kind, probe_obs.stress_level)
                    x_private.append(probe_obs.private_slowdown)
                    x_shared.append(probe_obs.shared_slowdown)
                    x_total.append(probe_obs.total_slowdown)
                    l3.append(max(probe_obs.machine_l3_misses, 1e-6))
                    y_private.append(perf_obs.private_slowdown)
                    y_shared.append(perf_obs.shared_slowdown)
                    y_total.append(perf_obs.total_slowdown)
                self._models[(language, kind)] = _ComponentModels(
                    private=LinearRegressionModel.fit(x_private, y_private),
                    shared=LinearRegressionModel.fit(x_shared, y_shared),
                    total=LinearRegressionModel.fit(x_total, y_total),
                    l3=ExponentialRegressionModel.fit(x_total, l3),
                    total_slowdown_range=(min(x_total), max(x_total)),
                )
