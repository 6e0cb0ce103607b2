"""Workload mixing helpers.

The paper's evaluation keeps a fixed number of co-running functions alive by
launching a randomly selected benchmark whenever one finishes.  The
:class:`WorkloadMixer` provides that random selection (deterministically,
from a seed, optionally weighted).

Scenario specs (:mod:`repro.scenarios`) describe churn traffic declaratively
with a :class:`TrafficModel` — a frozen, picklable value object naming a
draw *policy* (uniform, weighted, round-robin, or an explicit replayed
trace) that :meth:`TrafficModel.build_mixer` turns into a concrete mixer.
Every mixer draws deterministically from its seed, so two mixers built from
the same model and seed produce the same sequence — the property the
sharded sweep executor relies on for shard-count-independent results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.workloads.function import FunctionSpec

#: Draw policies a :class:`TrafficModel` understands.
TRAFFIC_POLICIES = ("uniform", "weighted", "round-robin", "trace")


class WorkloadMixer:
    """Deterministic random selection of co-runner functions."""

    def __init__(
        self,
        pool: Sequence[FunctionSpec],
        seed: int = 2024,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not pool:
            raise ValueError("the workload pool must not be empty")
        if weights is not None and len(weights) != len(pool):
            raise ValueError("weights must match the pool length")
        if weights is not None and any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self._pool = list(pool)
        self._weights = list(weights) if weights is not None else None
        self._rng = random.Random(seed)

    def next(self) -> FunctionSpec:
        """Draw the next co-runner."""
        if self._weights is None:
            return self._rng.choice(self._pool)
        return self._rng.choices(self._pool, weights=self._weights, k=1)[0]

    def draw(self, count: int) -> List[FunctionSpec]:
        """Draw ``count`` co-runners with replacement."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.next() for _ in range(count)]


class SequenceMixer:
    """Cycles deterministically through a fixed sequence of function specs.

    The churn-driver counterpart of :class:`WorkloadMixer` for non-random
    policies: round-robin traffic shuffles the pool once (seeded) and then
    replays it forever; trace traffic replays an explicit, user-provided
    sequence.  ``next()`` is the only interface the sweep backends need.
    """

    def __init__(self, sequence: Sequence[FunctionSpec]) -> None:
        if not sequence:
            raise ValueError("the mixer sequence must not be empty")
        self._sequence = list(sequence)
        self._cursor = 0

    def next(self) -> FunctionSpec:
        """Return the next spec in the cycle."""
        spec = self._sequence[self._cursor % len(self._sequence)]
        self._cursor += 1
        return spec

    def draw(self, count: int) -> List[FunctionSpec]:
        """Draw ``count`` specs, advancing the cycle."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.next() for _ in range(count)]


#: Anything :meth:`TrafficModel.build_mixer` can return: draws one
#: :class:`FunctionSpec` per ``next()`` call.
Mixer = Union[WorkloadMixer, SequenceMixer]


@dataclass(frozen=True)
class TrafficModel:
    """Declarative description of the churn traffic on one scenario.

    A frozen value object (hashable, picklable — it crosses process
    boundaries in sharded sweeps) that scenario specs attach to a
    :class:`repro.platform.batch.FleetScenario`.  Fields:

    ``policy``
        One of :data:`TRAFFIC_POLICIES`.  ``uniform`` draws independently
        and uniformly from the pool; ``weighted`` draws with the given
        per-function weights; ``round-robin`` cycles through a seeded
        shuffle of the pool; ``trace`` replays an explicit sequence of
        function abbreviations cyclically.
    ``functions``
        Optional explicit pool (function abbreviations).  When empty the
        scenario's ``mix`` string decides the pool.
    ``weights``
        Per-function draw weights, parallel to the resolved pool
        (``weighted`` policy only).
    ``trace``
        The abbreviation sequence to replay (``trace`` policy only); every
        entry must name a function in the pool.
    """

    policy: str = "uniform"
    functions: Tuple[str, ...] = ()
    weights: Tuple[float, ...] = ()
    trace: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in TRAFFIC_POLICIES:
            known = ", ".join(TRAFFIC_POLICIES)
            raise ValueError(
                f"unknown traffic policy {self.policy!r}; valid policies: {known}"
            )
        if self.policy == "weighted":
            if not self.weights:
                raise ValueError("'weighted' traffic requires weights")
            if any(w < 0 for w in self.weights):
                raise ValueError("traffic weights must be non-negative")
            if not any(w > 0 for w in self.weights):
                raise ValueError("at least one traffic weight must be positive")
        elif self.weights:
            raise ValueError(f"weights are only valid with the 'weighted' policy, not {self.policy!r}")
        if self.policy == "trace":
            if not self.trace:
                raise ValueError("'trace' traffic requires a non-empty trace")
        elif self.trace:
            raise ValueError(f"a trace is only valid with the 'trace' policy, not {self.policy!r}")
        if self.weights and self.functions and len(self.weights) != len(self.functions):
            raise ValueError(
                f"got {len(self.weights)} weights for {len(self.functions)} functions"
            )

    def build_mixer(self, pool: Sequence[FunctionSpec], seed: int) -> Mixer:
        """Instantiate the concrete mixer for one machine's churn stream.

        ``pool`` is the scenario's resolved function pool (already ordered);
        ``seed`` is the per-machine seed, so every machine of a scenario
        draws an independent but reproducible stream.
        """
        if not pool:
            raise ValueError("the traffic pool must not be empty")
        if self.policy == "uniform":
            return WorkloadMixer(pool, seed=seed)
        if self.policy == "weighted":
            if len(self.weights) != len(pool):
                raise ValueError(
                    f"got {len(self.weights)} weights for a pool of {len(pool)}"
                )
            return WorkloadMixer(pool, seed=seed, weights=self.weights)
        if self.policy == "round-robin":
            shuffled = list(pool)
            random.Random(seed).shuffle(shuffled)
            return SequenceMixer(shuffled)
        # trace: replay the abbreviation sequence against the pool.
        by_abbreviation = {spec.abbreviation: spec for spec in pool}
        resolved: List[FunctionSpec] = []
        for token in self.trace:
            if token not in by_abbreviation:
                known = ", ".join(sorted(by_abbreviation))
                raise ValueError(
                    f"trace entry {token!r} is not in the scenario pool; "
                    f"pool functions: {known}"
                )
            resolved.append(by_abbreviation[token])
        return SequenceMixer(resolved)
