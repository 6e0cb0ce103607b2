"""Golden outputs of the vector engine, pinned bit for bit.

The other vector tests compare against the scalar engine at rtol 1e-9,
and the streaming tests compare the vector engine with itself, so neither
notices a change in the order of a float operation inside
``VectorEngine.run_epoch``.  These tests pin what the engine produced
when they were written, with every float as ``float.hex``:

* ``FleetSweep(meter=True).run("vector")`` on the ``smoke`` and
  ``chaos-smoke`` presets: per-scenario counts, counters, billing totals
  and fault accounting, plus a SHA-256 over every per-function billing
  entry;
* one materialized ``VectorEngine`` run under ``FrequencyPolicy.TURBO``
  with churn and a mid-run frequency throttle: every completed
  invocation's Litmus startup snapshots (its own probe counters and the
  machine-wide counters at the start and end of the probe window), its
  final counters and finish time.

A change that is meant to move these numbers must say so and re-pin them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.diskcache import canonical
from repro.hardware.frequency import FrequencyPolicy
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine
from repro.scenarios import compile_spec, load_spec_or_preset
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import WorkloadMixer


def _hexed(value):
    """``canonical(value)`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hexed(item) for item in value]
    return value


def _digest(value) -> str:
    blob = json.dumps(_hexed(canonical(value)), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _scenario_row(scenario):
    billing = scenario.billing
    faults = scenario.fault_stats
    return (
        scenario.name,
        scenario.submitted,
        scenario.completed,
        scenario.instructions.hex(),
        scenario.cycles.hex(),
        scenario.stall_cycles.hex(),
        scenario.l3_misses.hex(),
        billing.true_total.hex(),
        billing.billed_total.hex(),
        (billing.events, billing.dropped, billing.duplicated),
        None if faults is None else tuple(canonical(faults).values()),
    )


#: (name, submitted, completed, instructions, cycles, stall cycles,
#: l3 misses, true GB-s total, billed GB-s total, (events, dropped,
#: duplicated), fault stats fields or None) per scenario, in sweep order.
SWEEP_ROWS = {
    "smoke": [
        ("all-m1-c1", 49, 45, "0x1.e1f6e920fcafdp+31", "0x1.3ec4521e87981p+31",
         "0x1.d1c0c88f74238p+28", "0x1.d273c7e8eff7cp+22", "0x1.d06b6f7f92a8cp-3",
         "0x1.d06b6f7f92a8cp-3", (45, 0, 0), None),
        ("all-m1-c2", 52, 44, "0x1.daf1bafdfe614p+31", "0x1.4753837693c2cp+31",
         "0x1.1098e4346da3cp+29", "0x1.22ed1cc3a8234p+23", "0x1.c32aa33c65783p-3",
         "0x1.c32aa33c65783p-3", (44, 0, 0), None),
        ("all-m2-c1", 94, 86, "0x1.d959ad5570b06p+32", "0x1.3ed30d17b32d1p+32",
         "0x1.cc8dd6dcedf30p+29", "0x1.ceb537859e1afp+23", "0x1.1150dd3423c64p-1",
         "0x1.1150dd3423c64p-1", (86, 0, 0), None),
        ("all-m2-c2", 99, 83, "0x1.d463bf5bbbd77p+32", "0x1.47dfd2111c4d2p+32",
         "0x1.0d6e9a3bda05ep+30", "0x1.1ff8c06c34222p+24", "0x1.049edf676f8c3p-1",
         "0x1.049edf676f8c3p-1", (83, 0, 0), None),
        ("memory-intensive-m1-c1", 77, 73, "0x1.c6b19e241c78cp+31",
         "0x1.2f28648a56b0fp+31", "0x1.97ce893ac0ca4p+28", "0x1.884e25eeef130p+22",
         "0x1.2121d4fc7e6aep-2", "0x1.2121d4fc7e6aep-2", (73, 0, 0), None),
        ("memory-intensive-m1-c2", 82, 74, "0x1.d540501c79e45p+31",
         "0x1.437ea0c458c5dp+31", "0x1.f46940c998672p+28", "0x1.0375001b3a376p+23",
         "0x1.27487a3f1dab2p-2", "0x1.27487a3f1dab2p-2", (74, 0, 0), None),
        ("memory-intensive-m2-c1", 152, 144, "0x1.c7f5ec53af546p+32",
         "0x1.3180f763b61e6p+32", "0x1.979fadb2f9d84p+29", "0x1.883b0b1729254p+23",
         "0x1.2637be8befe8bp-1", "0x1.2637be8befe8bp-1", (144, 0, 0), None),
        ("memory-intensive-m2-c2", 160, 144, "0x1.d2fc60291fb7ap+32",
         "0x1.43e85299d71f0p+32", "0x1.f151a008d6abfp+29", "0x1.01c944380ac6dp+24",
         "0x1.2d6c40686dfb1p-1", "0x1.2d6c40686dfb1p-1", (144, 0, 0), None),
    ],
    "chaos-smoke": [
        ("all-m1-c2", 47, 39, "0x1.f750200b47560p+31", "0x1.579b5ff1916c7p+31",
         "0x1.1d636d67ca8c5p+29", "0x1.310aae24535f0p+23", "0x1.a81ce25bcc5c0p-3",
         "0x1.d3f7bb6a7bb36p-3", (39, 0, 7), (9, 9, 0, 0, 100, 39, 0, 7)),
        ("all-m2-c2", 99, 83, "0x1.0275b4e122030p+33", "0x1.6a7cc6ac9aee4p+32",
         "0x1.28cf2ab2eb41ep+30", "0x1.3cb3466b08b64p+24", "0x1.05eadb8caeed7p-1",
         "0x1.ce6e9686be834p-2", (83, 15, 0), (0, 0, 16, 16, 0, 83, 15, 0)),
    ],
}

#: SHA-256 over every scenario's billing ledger, floats as float.hex.
SWEEP_BILLING_SHA256 = {
    "smoke": "4ec349db8f35575549082dde195af10d3d5f477746b4a5f693ade31516a4cb75",
    "chaos-smoke": "e7a619eff4b0fc8acee3a99d363c81799487032b33579ded8f7eb9ee36084ef4",
}


@pytest.mark.parametrize("preset", sorted(SWEEP_ROWS))
def test_metered_vector_sweep_is_pinned(preset):
    result = compile_spec(load_spec_or_preset(preset)).sweep(meter=True).run("vector")
    assert [_scenario_row(s) for s in result.scenarios] == SWEEP_ROWS[preset]
    assert _digest([s.billing for s in result.scenarios]) == SWEEP_BILLING_SHA256[preset]


def _materialized_run():
    """Two turbo machines, three functions per thread on two threads each,
    churned for 400 epochs; machine 1 runs at 0.6x for epochs 150-299."""
    registry = default_registry().scaled(0.05)
    mixer = WorkloadMixer(registry.all(), seed=3)
    engine = VectorEngine(
        CASCADE_LAKE_5218, machines=2, frequency_policy=FrequencyPolicy.TURBO
    )
    for machine in range(2):
        for thread in range(2):
            for _ in range(3):
                engine.submit(mixer.next(), machine=machine, thread_id=thread)

    def resubmit(handle, eng):
        machine = int(eng.machine_of[handle.invocation_id])
        eng.submit(mixer.next(), machine=machine, thread_id=handle.thread_id)

    engine.add_finish_listener(resubmit)
    for epoch in range(400):
        if epoch == 150:
            engine.set_frequency_scale(1, 0.6)
        elif epoch == 300:
            engine.set_frequency_scale(1, 1.0)
        engine.run_epoch()
    return engine


def _startup_rows(engine):
    return [
        (
            handle.spec.abbreviation,
            handle.finish_time,
            handle.startup_counters,
            handle.machine_counters_at_start,
            handle.machine_counters_at_startup_end,
            handle.counters.snapshot(),
        )
        for handle in engine.completed
    ]


#: Completions of the materialized run, and the first one's machine-wide
#: cycles at the end of its probe window.
STARTUP_COMPLETIONS = 78
STARTUP_FIRST_MACHINE_CYCLES = "0x1.7a368ff91a252p+27"
#: SHA-256 over every completion's startup snapshots, final counters and
#: finish time, and both machines' final counters, floats as float.hex.
STARTUP_SHA256 = "8265d51f063623f86c097a0393c97f71da9de9f5dc6e980a57fb4ac89f83e302"


def test_materialized_startup_snapshots_are_pinned():
    engine = _materialized_run()
    rows = _startup_rows(engine)
    assert len(rows) == STARTUP_COMPLETIONS
    assert rows[0][4].cycles.hex() == STARTUP_FIRST_MACHINE_CYCLES
    machines = [engine.machine_counters(m) for m in range(2)]
    assert _digest([rows, machines]) == STARTUP_SHA256
