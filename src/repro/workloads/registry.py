"""The paper's Table 1: 27 serverless benchmarks across three runtimes.

Every entry models one benchmark as a single-profile body (plus the shared
language-runtime startup).  The profiles were chosen to reproduce the
paper's characterization:

* compute-bound functions (``float-py``, ``fib-py``) spend essentially all
  of their time on private resources (Figure 4: up to 99.96 % ``T_private``)
  and barely slow down under congestion;
* graph / disk / compression workloads (``pager-py``, ``mst-py``,
  ``bfs-py``, ``randDisk-py``, ``compre-py``) have large working sets and
  high L2 MPKI, so their ``T_shared`` inflates by multiples under pressure
  (Figure 3) and they see the largest end-to-end slowdowns (Figure 2);
* Node.js functions carry the heavier V8 startup and a garbage-collected
  heap, giving them a visibly larger shared-resource component than their
  Go counterparts (the paper singles out ``fib-nj`` as memory-intensive).

The 13 functions starred in Table 1 are marked ``is_reference=True``; the
remaining 14 are the test set priced in the evaluation figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.workloads.function import FunctionSpec
from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.runtimes import Language


@dataclass(frozen=True)
class _BenchmarkRow:
    """One row of the construction table below."""

    abbreviation: str
    name: str
    suite: str
    language: Language
    is_reference: bool
    memory_mb: float
    body_minstructions: float
    cpi_base: float
    l2_mpki: float
    working_set_mb: float
    solo_l3_hit_fraction: float
    mlp: float


# Columns: abbr, full name, suite, language, reference?, memory MB,
#          body Minstr, CPI, L2 MPKI, WS MB, solo L3 hit fraction, MLP.
_TABLE1: Tuple[_BenchmarkRow, ...] = (
    # --- SeBS (Python) -------------------------------------------------- #
    _BenchmarkRow("dyn-py", "Dynamic HTML", "sebs", Language.PYTHON, False, 256, 240, 0.55, 1.4, 12.0, 0.80, 4.0),
    _BenchmarkRow("thum-py", "Thumbnail", "sebs", Language.PYTHON, True, 512, 360, 0.60, 1.87, 22.0, 0.72, 5.0),
    _BenchmarkRow("compre-py", "Compression", "sebs", Language.PYTHON, False, 512, 520, 0.65, 2.18, 30.0, 0.70, 5.0),
    _BenchmarkRow("recogn-py", "Image Recognition", "sebs", Language.PYTHON, False, 1024, 900, 0.70, 1.25, 40.0, 0.75, 6.0),
    _BenchmarkRow("pager-py", "Graph Pagerank", "sebs", Language.PYTHON, False, 512, 600, 0.75, 5.2, 48.0, 0.62, 4.0),
    _BenchmarkRow("mst-py", "Graph MST", "sebs", Language.PYTHON, False, 384, 480, 0.70, 4.16, 36.0, 0.68, 4.0),
    _BenchmarkRow("bfs-py", "Graph BFS", "sebs", Language.PYTHON, True, 384, 440, 0.72, 4.68, 42.0, 0.65, 4.0),
    _BenchmarkRow("visual-py", "DNA Visualization", "sebs", Language.PYTHON, True, 512, 400, 0.60, 1.09, 16.0, 0.80, 4.0),
    # --- FunctionBench (Python) ----------------------------------------- #
    _BenchmarkRow("chame-py", "Chameleon", "functionbench", Language.PYTHON, False, 256, 320, 0.55, 0.94, 10.0, 0.84, 4.0),
    _BenchmarkRow("float-py", "Float Operations", "functionbench", Language.PYTHON, False, 128, 900, 0.45, 0.02, 0.5, 0.95, 2.0),
    _BenchmarkRow("gzip-py", "Gzip Compression", "functionbench", Language.PYTHON, True, 256, 440, 0.60, 1.56, 18.0, 0.78, 5.0),
    _BenchmarkRow("randDisk-py", "Random Disk IO", "functionbench", Language.PYTHON, True, 256, 300, 0.80, 5.72, 52.0, 0.55, 3.0),
    _BenchmarkRow("seqDisk-py", "Sequential Disk IO", "functionbench", Language.PYTHON, False, 256, 340, 0.65, 2.03, 26.0, 0.80, 7.0),
    # --- Other / AWS authorizer (Python) -------------------------------- #
    _BenchmarkRow("aes-py", "AES Encryption", "other", Language.PYTHON, False, 128, 280, 0.50, 1.72, 14.0, 0.76, 4.0),
    _BenchmarkRow("auth-py", "Authentication", "other", Language.PYTHON, True, 128, 160, 0.58, 1.87, 16.0, 0.74, 4.0),
    _BenchmarkRow("fib-py", "Fibonacci", "other", Language.PYTHON, True, 128, 400, 0.42, 0.12, 1.0, 0.90, 2.0),
    # --- Online Boutique / Other (Node.js) ------------------------------ #
    _BenchmarkRow("aes-nj", "AES Encryption", "other", Language.NODEJS, True, 256, 400, 0.50, 1.09, 12.0, 0.80, 4.0),
    _BenchmarkRow("auth-nj", "Authentication", "other", Language.NODEJS, False, 256, 225, 0.55, 1.25, 14.0, 0.78, 4.0),
    _BenchmarkRow("fib-nj", "Fibonacci", "other", Language.NODEJS, True, 256, 600, 0.50, 3.9, 34.0, 0.66, 4.0),
    _BenchmarkRow("cur-nj", "Currency Conversion", "online-boutique", Language.NODEJS, True, 256, 275, 0.55, 1.4, 16.0, 0.77, 4.0),
    _BenchmarkRow("pay-nj", "Payment", "online-boutique", Language.NODEJS, False, 256, 325, 0.58, 1.56, 18.0, 0.75, 4.0),
    # --- Hotel Reservation / Other (Go) ---------------------------------- #
    _BenchmarkRow("aes-go", "AES Encryption", "other", Language.GO, True, 128, 325, 0.42, 0.78, 8.0, 0.84, 5.0),
    _BenchmarkRow("auth-go", "Authentication", "other", Language.GO, False, 128, 175, 0.45, 1.09, 10.0, 0.80, 5.0),
    _BenchmarkRow("fib-go", "Fibonacci", "other", Language.GO, True, 128, 450, 0.38, 1.87, 24.0, 0.70, 5.0),
    _BenchmarkRow("geo-go", "Hotel Geo", "hotel-reservation", Language.GO, False, 256, 250, 0.50, 2.03, 22.0, 0.72, 5.0),
    _BenchmarkRow("profile-go", "Hotel Profile", "hotel-reservation", Language.GO, True, 256, 300, 0.52, 2.18, 26.0, 0.70, 5.0),
    _BenchmarkRow("rate-go", "Hotel Rate", "hotel-reservation", Language.GO, False, 256, 225, 0.48, 1.25, 12.0, 0.80, 5.0),
)

#: The eight functions the paper picks for the heavy-congestion experiment
#: (Figure 17) because they produce the most L2 misses among the benchmarks.
MEMORY_INTENSIVE_ABBREVIATIONS: Tuple[str, ...] = (
    "aes-py",
    "compre-py",
    "thum-py",
    "bfs-py",
    "auth-py",
    "fib-go",
    "geo-go",
    "profile-go",
)


def _spec_from_row(row: _BenchmarkRow) -> FunctionSpec:
    body = ExecutionPhase(
        name=f"{row.abbreviation}-body",
        kind=PhaseKind.BODY,
        instructions=row.body_minstructions * 1e6,
        profile=ResourceProfile(
            cpi_base=row.cpi_base,
            l2_mpki=row.l2_mpki,
            working_set_mb=row.working_set_mb,
            solo_l3_hit_fraction=row.solo_l3_hit_fraction,
            mlp=row.mlp,
        ),
    )
    return FunctionSpec(
        name=row.name,
        abbreviation=row.abbreviation,
        language=row.language,
        suite=row.suite,
        memory_mb=row.memory_mb,
        body_phases=(body,),
        is_reference=row.is_reference,
    )


class FunctionRegistry:
    """A collection of function specs keyed by abbreviation."""

    def __init__(self, specs: Iterable[FunctionSpec]) -> None:
        self._specs: Dict[str, FunctionSpec] = {}
        for spec in specs:
            if spec.abbreviation in self._specs:
                raise ValueError(f"duplicate function {spec.abbreviation!r}")
            self._specs[spec.abbreviation] = spec

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, abbreviation: str) -> bool:
        return abbreviation in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def get(self, abbreviation: str) -> FunctionSpec:
        try:
            return self._specs[abbreviation]
        except KeyError:
            known = ", ".join(sorted(self._specs))
            raise KeyError(
                f"unknown function {abbreviation!r}; known functions: {known}"
            ) from None

    def all(self) -> List[FunctionSpec]:
        return list(self._specs.values())

    def abbreviations(self) -> List[str]:
        return list(self._specs.keys())

    def reference_functions(self) -> List[FunctionSpec]:
        """The starred functions providers profile offline (13 in Table 1)."""
        return [spec for spec in self._specs.values() if spec.is_reference]

    def test_functions(self) -> List[FunctionSpec]:
        """The functions priced in the evaluation (the non-starred 14)."""
        return [spec for spec in self._specs.values() if not spec.is_reference]

    def by_language(self, language: Language) -> List[FunctionSpec]:
        return [spec for spec in self._specs.values() if spec.language == language]

    def memory_intensive(self) -> List[FunctionSpec]:
        """The eight high-L2-miss functions used for heavy congestion."""
        return [self.get(abbr) for abbr in MEMORY_INTENSIVE_ABBREVIATIONS]

    def subset(self, abbreviations: Sequence[str]) -> "FunctionRegistry":
        return FunctionRegistry(self.get(abbr) for abbr in abbreviations)

    def scaled(self, factor: float) -> "FunctionRegistry":
        """Return a registry whose function bodies are scaled by ``factor``.

        Quick test configurations use this to shrink simulation time without
        changing any resource characteristic.
        """
        return FunctionRegistry(spec.scaled(factor) for spec in self._specs.values())


_DEFAULT_REGISTRY: Optional[FunctionRegistry] = None


def default_registry() -> FunctionRegistry:
    """The full Table-1 registry (built once per process)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = FunctionRegistry(_spec_from_row(row) for row in _TABLE1)
    return _DEFAULT_REGISTRY


def reference_functions() -> List[FunctionSpec]:
    """Convenience accessor for the reference set of the default registry."""
    return default_registry().reference_functions()


def test_functions() -> List[FunctionSpec]:
    """Convenience accessor for the test set of the default registry."""
    return default_registry().test_functions()


def table1_rows() -> List[Mapping[str, object]]:
    """Render Table 1 as dictionaries (used by the Table-1 benchmark)."""
    rows: List[Mapping[str, object]] = []
    for spec in default_registry():
        rows.append(
            {
                "abbreviation": spec.abbreviation,
                "name": spec.name,
                "suite": spec.suite,
                "language": spec.language.value,
                "reference": spec.is_reference,
                "memory_mb": spec.memory_mb,
                "body_instructions": spec.body_instructions,
            }
        )
    return rows
