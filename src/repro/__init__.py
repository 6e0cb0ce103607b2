"""repro: a reproduction of "Litmus: Fair Pricing for Serverless Computing".

The package is organised in layers, bottom-up:

``repro.hardware``
    An analytic multicore substrate: machine topologies, shared-resource
    contention models (L3 capacity, ring/uncore bandwidth, memory bandwidth),
    SMT and frequency effects, and performance-counter bookkeeping.

``repro.workloads``
    Phase-based synthetic serverless functions (the 27 benchmarks of the
    paper's Table 1), per-language runtime startup models, and the CT-Gen /
    MB-Gen traffic generators used to calibrate congestion.

``repro.platform``
    A serverless platform substrate: sandboxes, invoker, schedulers
    (dedicated cores, temporal sharing, SMT), co-runner churn and a
    Perf-like metering session, all driven by an epoch-based engine.

``repro.core``
    The paper's contribution: the Litmus test probe, congestion and
    performance tables, regression + logarithmic interpolation models, the
    split private/shared pricing equation, and the Method 1 / Method 2
    adaptations for temporal sharing, plus ideal / commercial baselines.

``repro.scenarios``
    Declarative scenario specs: TOML/JSON files (schema-validated, with
    named presets shipped in the package) that expand into scenario grids
    and compile into fleet sweeps for the batched backend, optionally
    sharded across worker processes.

``repro.analysis`` and ``repro.experiments``
    Statistics helpers, error metrics and one module per paper figure/table
    that regenerates the corresponding result.
"""

from repro._version import __version__

__all__ = ["__version__"]
