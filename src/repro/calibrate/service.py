"""Drift-aware continuous calibration: detect, search, republish.

The service closes the loop the paper leaves manual.  Litmus calibrates
its contention coefficients once, offline; real fleets drift — a BIOS
update changes prefetchers, DIMMs get swapped, thermal limits shift — and
a stale fit silently corrupts every figure built on it.  This module runs
the calibration loop continuously:

1. **Measure.**  Each round observes a fresh measurement window on the
   ground-truth hardware (:func:`repro.calibrate.measure.measure_series`
   with ``seed + round_index``, segmented at any
   :class:`repro.calibrate.drift.DriftInjector` boundaries).
2. **Predict.**  The incumbent fit replays the identical window — same
   seed, same churn draws — under its own coefficients.  On drift-free
   hardware with a correct fit the two series are bit-identical and every
   per-epoch error is exactly ``0.0``.
3. **Detect.**  Per-epoch absolute percentage errors feed a sliding
   window (``mape_window_epochs`` deep); when the windowed MAPE crosses
   ``drift_mape_threshold`` the hardware no longer matches the model.
4. **Search.**  A linspace grid over the dot-path parameter
   (``parameter``, bounds anchored at the *nominal* fit) is scored
   against a fresh probe window, each candidate replaying it under its
   own coefficients — in parallel worker processes when
   ``max_parallel_workers`` allows.  Ties break deterministically on
   ``(mape, value)``.
5. **Republish.**  The winning fit is stored atomically through the
   versioned diskcache (:mod:`repro.diskcache`), with a checkpoint-style
   self-fingerprint embedded in the payload so a tampered or
   version-skewed entry is rejected on load rather than silently reused.

Everything is a pure function of (profiles, config, drift schedule), so
two runs with the same seed republish the same fit — the property the
Hypothesis suite pins down.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import diskcache
from repro.analysis.stats import mape
from repro.calibrate.drift import DriftInjector
from repro.calibrate.measure import MeasureConfig, measure_series
from repro.calibrate.profile import HardwareProfile, get_param, set_param
from repro.obs.metrics import CalibrationEvent
from repro.obs.trace import SpanContext, Tracer, TraceSpan

#: Diskcache kind for published fits (entries: ``calibration-fit-<key>.json``).
PUBLISH_KIND = "calibration-fit"

Observer = Callable[[CalibrationEvent], None]


def linspace(lo: float, hi: float, points: int) -> List[float]:
    """``points`` evenly spaced values from ``lo`` to ``hi`` inclusive."""
    if points < 2:
        raise ValueError("linspace needs at least 2 points")
    if not hi > lo:
        raise ValueError(f"linspace needs hi > lo, got [{lo}, {hi}]")
    step = (hi - lo) / (points - 1)
    return [lo + index * step for index in range(points)]


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of the continuous-calibration loop."""

    #: Dot path of the model parameter under search (``contention.*`` is
    #: the useful namespace; any numeric leaf is addressable).
    parameter: str = "contention.memory_queueing_coefficient"
    #: Grid bounds.  ``None`` anchors at the nominal fit: half to double.
    search_min: Optional[float] = None
    search_max: Optional[float] = None
    #: Grid resolution; recovery is promised to within one step.
    linspace_points: int = 9
    #: Candidate evaluations run in this many worker processes (1 = inline).
    max_parallel_workers: int = 1
    #: Sliding-window depth (epochs) of the drift detector, and the probe
    #: window length the grid search scores against.
    mape_window_epochs: int = 48
    #: Windowed MAPE above this means the incumbent no longer fits.
    drift_mape_threshold: float = 0.005
    #: Epochs each drift-check round measures.
    epochs_per_round: int = 16
    #: The measurement window's co-location experiment.
    measure: MeasureConfig = field(default_factory=MeasureConfig)

    def __post_init__(self) -> None:
        if self.linspace_points < 2:
            raise ValueError("linspace_points must be >= 2")
        if self.max_parallel_workers < 1:
            raise ValueError("max_parallel_workers must be >= 1")
        if self.mape_window_epochs < 1:
            raise ValueError("mape_window_epochs must be >= 1")
        if self.drift_mape_threshold <= 0:
            raise ValueError("drift_mape_threshold must be positive")
        if self.epochs_per_round < 1:
            raise ValueError("epochs_per_round must be >= 1")
        if (
            self.search_min is not None
            and self.search_max is not None
            and not self.search_max > self.search_min
        ):
            raise ValueError("search_max must exceed search_min")

    def grid(self, nominal: HardwareProfile) -> List[float]:
        """The candidate values, anchored at ``nominal``'s fitted value.

        Anchoring at the nominal profile (not the evolving incumbent)
        keeps the grid — and the published fit's cache key — stable
        across rounds.
        """
        center = get_param(nominal, self.parameter)
        lo = self.search_min if self.search_min is not None else 0.5 * center
        hi = self.search_max if self.search_max is not None else 2.0 * center
        return linspace(lo, hi, self.linspace_points)


# --------------------------------------------------------------------- #
# Candidate evaluation (top-level so worker processes can pickle it)
# --------------------------------------------------------------------- #
def _score_candidate(
    task: Tuple[HardwareProfile, str, float, MeasureConfig, int, List[float]],
) -> float:
    profile, parameter, value, measure_config, epochs, truth = task
    candidate = set_param(profile, parameter, value)
    series = measure_series(candidate, measure_config, epochs)
    return mape(series, truth)


@dataclass(frozen=True)
class CandidateScore:
    value: float
    mape: float


def grid_search(
    nominal: HardwareProfile,
    config: CalibrationConfig,
    truth: List[float],
    *,
    measure_config: Optional[MeasureConfig] = None,
    round_index: int = 0,
    observer: Optional[Observer] = None,
) -> List[CandidateScore]:
    """Score every grid candidate's replay of ``truth``'s window.

    Results come back in grid order regardless of worker scheduling, so
    the argmin — tie-broken on ``(mape, value)`` — is deterministic for a
    fixed seed whatever ``max_parallel_workers`` is.
    """
    measure_config = measure_config or config.measure
    epochs = len(truth)
    values = config.grid(nominal)
    tasks = [
        (nominal, config.parameter, value, measure_config, epochs, truth)
        for value in values
    ]
    if config.max_parallel_workers > 1:
        workers = min(config.max_parallel_workers, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(_score_candidate, tasks))
    else:
        errors = [_score_candidate(task) for task in tasks]
    scores = [CandidateScore(value=v, mape=e) for v, e in zip(values, errors)]
    if observer is not None:
        for index, score in enumerate(scores):
            observer(
                CalibrationEvent(
                    kind="candidate",
                    round_index=round_index,
                    parameter=config.parameter,
                    value=score.value,
                    mape=score.mape,
                    candidate_index=index,
                    candidates_total=len(scores),
                )
            )
    return scores


def best_candidate(scores: List[CandidateScore]) -> CandidateScore:
    """Deterministic argmin: lowest MAPE, lowest value on exact ties."""
    return min(scores, key=lambda score: (score.mape, score.value))


# --------------------------------------------------------------------- #
# Atomic republish through the versioned diskcache
# --------------------------------------------------------------------- #
def fit_key(nominal: HardwareProfile, config: CalibrationConfig) -> str:
    """Cache key of the fit *slot*: profile identity + search shape.

    The key never includes the fitted value — republishing overwrites the
    slot in place (atomically, via the diskcache's temp-file +
    ``os.replace`` discipline), which is what makes the newest fit the
    only one consumers can observe.
    """
    return diskcache.fingerprint(
        PUBLISH_KIND,
        nominal.name,
        nominal.machine,
        nominal.contention,
        config.parameter,
        config.grid(nominal),
        config.measure,
        config.mape_window_epochs,
    )


def _fit_guard(key: str, body: Dict[str, Any]) -> str:
    return diskcache.fingerprint(PUBLISH_KIND, key, body)


def publish_fit(
    nominal: HardwareProfile,
    config: CalibrationConfig,
    *,
    value: float,
    fit_mape: float,
    round_index: int,
) -> Tuple[str, Dict[str, Any], Optional[Path]]:
    """Atomically publish a fit; returns ``(key, payload, path)``.

    The payload embeds a fingerprint over its own body — the stream
    checkpoints' staleness guard — so :func:`load_fit` can reject a
    hand-edited or half-migrated entry instead of silently reusing it.
    ``path`` is ``None`` when the diskcache is disabled.
    """
    key = fit_key(nominal, config)
    body: Dict[str, Any] = {
        "profile": nominal.name,
        "machine": nominal.machine.name,
        "parameter": config.parameter,
        "value": value,
        "mape": fit_mape,
        "round_index": round_index,
        "nominal_value": get_param(nominal, config.parameter),
    }
    payload = dict(body, fingerprint=_fit_guard(key, body))
    path = diskcache.store(PUBLISH_KIND, key, payload)
    return key, payload, path


def load_fit(
    nominal: HardwareProfile, config: CalibrationConfig
) -> Optional[Dict[str, Any]]:
    """The published fit for this slot, or ``None`` if absent or unsound.

    Unsound means the embedded fingerprint does not match the payload
    body — a tampered, truncated or schema-drifted entry — or the
    diskcache rejected it outright (version skew).  Either way the caller
    recalibrates instead of trusting it.
    """
    key = fit_key(nominal, config)
    payload = diskcache.load(PUBLISH_KIND, key)
    if payload is None:
        return None
    body = {k: v for k, v in payload.items() if k != "fingerprint"}
    if payload.get("fingerprint") != _fit_guard(key, body):
        return None
    return payload


def fitted_profile(
    nominal: HardwareProfile, config: CalibrationConfig
) -> HardwareProfile:
    """``nominal`` with the published fit applied (nominal when none)."""
    fit = load_fit(nominal, config)
    if fit is None:
        return nominal
    return set_param(nominal, config.parameter, float(fit["value"]))


# --------------------------------------------------------------------- #
# The continuous loop
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RoundResult:
    """What one drift-check round concluded."""

    round_index: int
    #: Windowed MAPE of the incumbent over the sliding APE window.
    windowed_mape: float
    drift_detected: bool
    #: Grid scores when a search ran this round (drift was detected).
    scores: Tuple[CandidateScore, ...] = ()
    #: The republished fit, when a search ran.
    best: Optional[CandidateScore] = None
    fit_fingerprint: str = ""
    #: Incumbent parameter value *after* the round.
    incumbent_value: float = 0.0
    #: Whether the incumbent's windowed MAPE is back under threshold.
    converged: bool = True
    #: The round's measured ground-truth window (per-epoch values) — the
    #: raw series behind ``windowed_mape``; observability consumers turn
    #: it into ``repro.obs.series`` points.
    measured: Tuple[float, ...] = ()


def _search_and_publish(
    nominal: HardwareProfile,
    config: CalibrationConfig,
    probe: List[float],
    *,
    round_index: int,
    measure_config: Optional[MeasureConfig] = None,
    observer: Optional[Observer] = None,
    tracer: Optional[Tracer] = None,
    search_span: Optional[TraceSpan] = None,
) -> RoundResult:
    """Score the grid against ``probe``, republish the best fit, report it.

    The tail of every searching round: ``grid_search``, closing the open
    ``search_span``, the argmin, the atomic republish, the ``republish``
    event and the :class:`RoundResult`.  The result reads as a
    single-shot round — the fit's own MAPE, the probe as the measured
    window; a drift-check round replaces both with its own window's.
    """
    scores = grid_search(
        nominal,
        config,
        probe,
        measure_config=measure_config,
        round_index=round_index,
        observer=observer,
    )
    if search_span is not None:
        search_span.tags["candidates"] = len(scores)
        tracer.finish(search_span)
    best = best_candidate(scores)
    _, payload, _ = publish_fit(
        nominal,
        config,
        value=best.value,
        fit_mape=best.mape,
        round_index=round_index,
    )
    if observer is not None:
        observer(
            CalibrationEvent(
                kind="republish",
                round_index=round_index,
                parameter=config.parameter,
                value=best.value,
                mape=best.mape,
                threshold=config.drift_mape_threshold,
                fingerprint=payload["fingerprint"],
            )
        )
    return RoundResult(
        round_index=round_index,
        windowed_mape=best.mape,
        drift_detected=True,
        scores=tuple(scores),
        best=best,
        fit_fingerprint=payload["fingerprint"],
        incumbent_value=best.value,
        converged=best.mape <= config.drift_mape_threshold,
        measured=tuple(probe),
    )


class ContinuousCalibrator:
    """Measure → predict → detect → search → republish, round after round.

    ``truth`` is the ground-truth hardware (what the scalar engine
    simulates as "reality"); ``incumbent`` is the model's current fit,
    defaulting to ``truth``'s own nominal coefficients.  A
    :class:`DriftInjector` over the truth profile perturbs reality
    mid-run; the calibrator only ever observes the measured series.
    """

    def __init__(
        self,
        truth: HardwareProfile,
        config: CalibrationConfig,
        *,
        incumbent: Optional[HardwareProfile] = None,
        drift: Optional[DriftInjector] = None,
        observer: Optional[Observer] = None,
        tracer: Optional[Tracer] = None,
        trace_parent: Optional[SpanContext] = None,
    ) -> None:
        if incumbent is not None and incumbent.machine != truth.machine:
            raise ValueError(
                "incumbent and truth profiles must share a machine topology"
            )
        self._truth = truth
        self._config = config
        self._incumbent = incumbent or truth
        self._nominal = self._incumbent
        self._drift = drift
        self._observer = observer
        #: Optional span tracing (repro.obs.trace); strictly read-only —
        #: spans observe the round's timings, never its arithmetic.
        self._tracer = tracer
        self._trace_parent = trace_parent
        self._apes: Deque[float] = deque(maxlen=config.mape_window_epochs)
        self._round = 0
        self._clock = 0.0

    @property
    def incumbent(self) -> HardwareProfile:
        return self._incumbent

    def _emit(self, event: CalibrationEvent) -> None:
        if self._observer is not None:
            self._observer(event)

    def _advance(self, epochs: int) -> None:
        self._clock += epochs * self._config.measure.epoch_seconds

    def run_round(self) -> RoundResult:
        """One drift-check round; searches and republishes only on drift.

        With a tracer attached, the round emits one ``phase=round`` span
        with ``measure`` / ``search`` children — the calibration limb of
        the run's trace tree.
        """
        if self._tracer is None:
            return self._run_round_inner()
        with self._tracer.span(
            f"round-{self._round}",
            parent=self._trace_parent,
            tags={"phase": "round"},
        ) as span:
            result = self._run_round_inner()
            span.tags.update(
                drift_detected=result.drift_detected,
                windowed_mape=result.windowed_mape,
            )
            return result

    def _run_round_inner(self) -> RoundResult:
        config = self._config
        round_index = self._round
        self._round += 1
        measure_config = dataclasses.replace(
            config.measure, seed=config.measure.seed + round_index
        )

        measure_span = (
            None
            if self._tracer is None
            else self._tracer.start("measure", tags={"phase": "measure"})
        )
        measured = measure_series(
            self._truth,
            measure_config,
            config.epochs_per_round,
            start_seconds=self._clock,
            drift=self._drift,
        )
        predicted = measure_series(
            self._incumbent, measure_config, config.epochs_per_round
        )
        if measure_span is not None:
            measure_span.tags["epochs"] = config.epochs_per_round
            self._tracer.finish(measure_span)
        self._advance(config.epochs_per_round)
        for guess, actual in zip(predicted, measured):
            self._apes.append(abs(guess - actual) / max(abs(actual), 1e-12))
        windowed = sum(self._apes) / len(self._apes)
        detected = windowed > config.drift_mape_threshold
        self._emit(
            CalibrationEvent(
                kind="round",
                round_index=round_index,
                parameter=config.parameter,
                value=get_param(self._incumbent, config.parameter),
                mape=windowed,
                threshold=config.drift_mape_threshold,
                drift_detected=detected,
            )
        )
        if not detected:
            return RoundResult(
                round_index=round_index,
                windowed_mape=windowed,
                drift_detected=False,
                incumbent_value=get_param(self._incumbent, config.parameter),
                converged=True,
                measured=tuple(measured),
            )

        # Drift: probe a full window of current reality and fit the grid
        # against it.  The probe is a fresh controlled experiment, so it
        # advances the drift clock like any other measurement.
        search_span = (
            None
            if self._tracer is None
            else self._tracer.start("search", tags={"phase": "search"})
        )
        probe = measure_series(
            self._truth,
            measure_config,
            config.mape_window_epochs,
            start_seconds=self._clock,
            drift=self._drift,
        )
        self._advance(config.mape_window_epochs)
        result = _search_and_publish(
            self._nominal,
            config,
            probe,
            round_index=round_index,
            measure_config=measure_config,
            observer=self._observer,
            tracer=self._tracer,
            search_span=search_span,
        )
        self._incumbent = set_param(self._nominal, config.parameter, result.best.value)
        self._apes.clear()
        return dataclasses.replace(result, windowed_mape=windowed, measured=tuple(measured))

    def run(self, rounds: int) -> List[RoundResult]:
        """Run ``rounds`` drift-check rounds (the ``--watch`` loop body)."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        return [self.run_round() for _ in range(rounds)]


def calibrate_once(
    truth: HardwareProfile,
    config: CalibrationConfig,
    *,
    incumbent: Optional[HardwareProfile] = None,
    observer: Optional[Observer] = None,
    tracer: Optional[Tracer] = None,
    trace_parent: Optional[SpanContext] = None,
) -> RoundResult:
    """Single-shot calibration: search now, republish, report convergence.

    The ``--once`` smoke path: no drift detection gate — the caller
    already believes the incumbent is stale (typically because the truth
    profile was deliberately perturbed) and wants the best fit the grid
    can produce, plus a verdict on whether it lands under threshold.
    """
    nominal = incumbent or truth
    if nominal.machine != truth.machine:
        raise ValueError("incumbent and truth profiles must share a machine topology")
    round_span = (
        None
        if tracer is None
        else tracer.start("round-0", parent=trace_parent, tags={"phase": "round"})
    )
    measure_span = (
        None if tracer is None else tracer.start("measure", tags={"phase": "measure"})
    )
    probe = measure_series(truth, config.measure, config.mape_window_epochs)
    if measure_span is not None:
        measure_span.tags["epochs"] = config.mape_window_epochs
        tracer.finish(measure_span)
    search_span = (
        None if tracer is None else tracer.start("search", tags={"phase": "search"})
    )
    result = _search_and_publish(
        nominal,
        config,
        probe,
        round_index=0,
        observer=observer,
        tracer=tracer,
        search_span=search_span,
    )
    if round_span is not None:
        tracer.finish(round_span)
    return result
