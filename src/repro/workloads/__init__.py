"""Workload models: serverless functions, language runtimes, traffic generators.

Serverless functions are modeled as sequences of execution phases.  Every
function of a given language starts with that language runtime's *startup
phases* (interpreter/VM bring-up, module import, JIT warm-up) followed by
function-specific *body phases*.  Each phase carries a resource profile —
base CPI, L2 misses per kilo-instruction, cache footprint, L3 hit fraction
when running alone, and memory-level parallelism — which is everything the
hardware contention model needs to advance the function under congestion.

The registry reconstructs the paper's Table 1: 27 functions drawn from SeBS,
FunctionBench, DeathStarBench Hotel Reservation, Online Boutique and the AWS
authorizer samples, written in Python, Node.js and Go, with the 13 starred
functions marked as the provider's reference set.

CT-Gen and MB-Gen, the multi-threaded traffic generators used to define
congestion levels, are modeled as continuous workloads whose threads either
miss L2 but hit L3 (CT-Gen) or miss L3 and burn memory bandwidth (MB-Gen).
"""

from repro.workloads.phases import ExecutionPhase, PhaseKind, ResourceProfile
from repro.workloads.runtimes import Language, LanguageRuntime, runtime_for
from repro.workloads.function import FunctionSpec, PhaseCursor
from repro.workloads.registry import (
    FunctionRegistry,
    default_registry,
    reference_functions,
    test_functions,
)
from repro.workloads.traffic import (
    GeneratorKind,
    TrafficGenerator,
    generator,
)
from repro.workloads.synthetic import WorkloadMixer

__all__ = [
    "ExecutionPhase",
    "PhaseKind",
    "ResourceProfile",
    "Language",
    "LanguageRuntime",
    "runtime_for",
    "FunctionSpec",
    "PhaseCursor",
    "FunctionRegistry",
    "default_registry",
    "reference_functions",
    "test_functions",
    "GeneratorKind",
    "TrafficGenerator",
    "generator",
    "WorkloadMixer",
]
