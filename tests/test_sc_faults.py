"""Fault axis: spec parsing, determinism, metering robustness, degradation."""

from __future__ import annotations

import pytest

from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import FleetSweep
from repro.platform.faults import FAULT_TYPES, FaultSpec, faults_for_scenario
from repro.platform.metering import MeterFaultInjector, MeteringLedger
from repro.scenarios import (
    DegradationReport,
    ScenarioSpec,
    SpecError,
    compile_spec,
    expand_grid,
    load_preset,
    parse_spec_text,
)

TINY = dict(
    machine=CASCADE_LAKE_5218, horizon_seconds=0.2, epoch_seconds=1e-3, registry_scale=0.05
)
#: all-m1-c2 and all-m2-c2 on three cores per machine.
GRID = expand_grid(
    ScenarioSpec(name="grid", machines=(1, 2), colocations=(2,), cores_per_machine=3, seed=5)
)


def spec_with_faults(fault_toml: str):
    return parse_spec_text(
        'name = "chaos"\n'
        "[sweep]\nhorizon_seconds = 0.2\nregistry_scale = 0.05\n"
        '[grid]\nmixes = ["all"]\nmachines = [1, 2]\ncores_per_machine = 3\n'
        + fault_toml
    )


class TestFaultParsing:
    def test_unknown_type_names_path_and_choices(self):
        with pytest.raises(SpecError) as excinfo:
            spec_with_faults('[[faults]]\ntype = "churn-spiky"\ncount = 1\n')
        message = str(excinfo.value)
        assert "faults[0].type" in message
        assert "'churn-spiky'" in message
        for valid in FAULT_TYPES:
            assert valid in message

    def test_missing_type_is_an_error(self):
        with pytest.raises(SpecError, match=r"faults\[0\]"):
            spec_with_faults("[[faults]]\ncount = 1\n")

    def test_unknown_key_for_type_is_an_error(self):
        # `factor` belongs to freq-throttle, not churn-spike.
        with pytest.raises(SpecError, match=r"faults\[0\]"):
            spec_with_faults(
                '[[faults]]\ntype = "churn-spike"\ncount = 1\nfactor = 0.5\n'
            )

    def test_second_entry_reports_its_own_index(self):
        with pytest.raises(SpecError, match=r"faults\[1\]"):
            spec_with_faults(
                '[[faults]]\ntype = "churn-spike"\ncount = 1\n'
                '[[faults]]\ntype = "meter-drop"\nprobability = 1.5\n'
            )

    def test_probability_out_of_range(self):
        with pytest.raises(SpecError, match=r"probability"):
            spec_with_faults(
                '[[faults]]\ntype = "meter-drop"\nprobability = -0.1\n'
            )

    def test_throttle_factor_above_one_rejected(self):
        with pytest.raises(SpecError, match=r"factor"):
            spec_with_faults(
                '[[faults]]\ntype = "freq-throttle"\nfactor = 1.5\n'
            )

    def test_count_must_be_positive(self):
        with pytest.raises(SpecError, match=r"count"):
            spec_with_faults('[[faults]]\ntype = "churn-spike"\ncount = 0\n')

    def test_start_past_horizon_rejected(self):
        with pytest.raises(SpecError, match=r"start_seconds"):
            spec_with_faults(
                '[[faults]]\ntype = "churn-spike"\ncount = 1\n'
                "start_seconds = 0.5\n"
            )

    def test_scenario_glob_matching_nothing_rejected(self):
        with pytest.raises(SpecError, match=r"matches no scenario"):
            compile_spec(
                spec_with_faults(
                    '[[faults]]\ntype = "churn-spike"\ncount = 1\n'
                    'scenario = "nope-*"\n'
                )
            )

    def test_bad_noisy_neighbor_function_rejected(self):
        with pytest.raises(SpecError, match=r"functions"):
            compile_spec(
                spec_with_faults(
                    '[[faults]]\ntype = "noisy-neighbor"\ncount = 1\n'
                    'functions = ["not-a-fn"]\n'
                )
            )

    def test_expand_grid_attaches_matching_faults(self):
        spec = spec_with_faults(
            '[[faults]]\ntype = "churn-spike"\ncount = 1\nscenario = "all-m1-*"\n'
            '[[faults]]\ntype = "meter-drop"\nprobability = 0.5\n'
        )
        by_name = {cell.name: cell.faults for cell in expand_grid(spec)}
        assert [f.type for f in by_name["all-m1-c1"]] == ["churn-spike", "meter-drop"]
        assert [f.type for f in by_name["all-m2-c1"]] == ["meter-drop"]

    def test_default_seeds_differ_per_entry(self):
        spec = spec_with_faults(
            '[[faults]]\ntype = "meter-drop"\nprobability = 0.5\n'
            '[[faults]]\ntype = "meter-dup"\nprobability = 0.5\n'
        )
        assert spec.faults[0].seed != spec.faults[1].seed

    def test_faults_for_scenario_globs(self):
        faults = (
            FaultSpec(type="churn-spike", count=1, scenario="all-*"),
            FaultSpec(type="meter-drop", probability=0.5, scenario="mem-*"),
        )
        assert [f.type for f in faults_for_scenario(faults, "all-m1-c1")] == [
            "churn-spike"
        ]


class TestMeterRobustness:
    def test_certain_drop_bills_nothing(self):
        ledger = MeteringLedger()
        injector = MeterFaultInjector(drop_probability=1.0)
        for _ in range(10):
            ledger.observe("aes-py", 0.5, 2.0, copies=injector.copies())
        assert ledger.true_total == pytest.approx(10.0)
        assert ledger.billed_total == 0.0
        assert ledger.dropped == 10
        assert ledger.freeze().billing_error_fraction == pytest.approx(-1.0)

    def test_certain_duplication_doubles_the_bill(self):
        ledger = MeteringLedger()
        injector = MeterFaultInjector(duplicate_probability=1.0)
        for _ in range(10):
            ledger.observe("aes-py", 0.5, 2.0, copies=injector.copies())
        assert ledger.billed_total == pytest.approx(2.0 * ledger.true_total)
        assert ledger.duplicated == 10
        assert ledger.freeze().billing_error_fraction == pytest.approx(1.0)

    def test_touched_tenants_are_taken_once_in_function_order(self):
        ledger = MeteringLedger()
        ledger.observe("fib-py", 0.5, 2.0)
        ledger.observe("aes-py", 0.25, 4.0, copies=0)
        ledger.observe("fib-py", 0.5, 2.0, copies=2)
        assert ledger.take_touched() == [("aes-py", 1.0, 0.0), ("fib-py", 2.0, 3.0)]
        assert ledger.take_touched() == []
        ledger.observe("fib-py", 0.5, 2.0)
        assert ledger.take_touched() == [("fib-py", 3.0, 4.0)]

    def test_seeded_partial_loss_is_reproducible_per_tenant(self):
        def run():
            ledger = MeteringLedger()
            injector = MeterFaultInjector(drop_probability=0.3, drop_seed=7)
            for index in range(100):
                tenant = f"fn-{index % 3}"
                ledger.observe(tenant, 0.25, 1.0, copies=injector.copies())
            return ledger.freeze()

        first, second = run(), run()
        assert first == second  # sorted tuples: full bit-comparison
        assert first.dropped > 0
        assert [tenant for tenant, _ in first.true_gb_seconds] == ["fn-0", "fn-1", "fn-2"]

    def test_drop_consumes_before_duplicate(self):
        """A dropped event must not advance the duplicate RNG stream."""
        both = MeterFaultInjector(
            drop_probability=1.0, duplicate_probability=0.5, duplicate_seed=3
        )
        dup_only = MeterFaultInjector(duplicate_probability=0.5, duplicate_seed=3)
        for _ in range(20):
            assert both.copies() == 0
        # dup stream untouched by the dropped events above.
        fresh = MeterFaultInjector(duplicate_probability=0.5, duplicate_seed=3)
        assert [dup_only.copies() for _ in range(20)] == [
            fresh.copies() for _ in range(20)
        ]


@pytest.mark.slow
class TestFaultedSweeps:
    def test_backends_agree_on_injections(self):
        from dataclasses import replace

        faults = (
            FaultSpec(
                type="churn-spike",
                count=2,
                start_seconds=0.05,
                duration_seconds=0.1,
            ),
            FaultSpec(type="meter-dup", probability=0.3),
        )
        grid = [replace(cell, faults=faults) for cell in GRID]
        vector = FleetSweep(grid, **TINY).run("vector")
        scalar = FleetSweep(grid, **TINY).run("scalar")
        for a, b in zip(vector.scenarios, scalar.scenarios):
            assert a.completed == b.completed
            assert a.fault_stats == b.fault_stats
            # Cross-backend floats agree to rtol like the rest of the suite
            # (bit-exactness is a within-backend/sharding guarantee).
            assert a.billing.events == b.billing.events
            assert a.billing.dropped == b.billing.dropped
            assert a.billing.duplicated == b.billing.duplicated
            assert a.billing.true_total == pytest.approx(
                b.billing.true_total, rel=1e-9
            )
            assert a.billing.billed_total == pytest.approx(
                b.billing.billed_total, rel=1e-9
            )

    def test_chaos_preset_is_deterministic(self):
        compiled = compile_spec(load_preset("chaos-smoke"))
        base = compiled.without_faults().run(shards=1, meter=True)
        first = DegradationReport.build(
            base.result, compiled.run(shards=1, meter=True).result
        )
        second = DegradationReport.build(
            base.result, compiled.run(shards=1, meter=True).result
        )
        assert first.to_dict() == second.to_dict()
        assert first.render() == second.render()
        assert len(first.rows) == 2

    def test_faults_actually_degrade_something(self):
        compiled = compile_spec(load_preset("chaos-smoke"))
        base = compiled.without_faults().run(shards=1, meter=True)
        faulted = compiled.run(shards=1, meter=True)
        report = DegradationReport.build(base.result, faulted.result)
        assert any(row.injections > 0 for row in report.rows)
        assert any(row.billing_error_fraction != 0.0 for row in report.rows)
        assert any(row.throttled_machine_epochs > 0 for row in report.rows)

    def test_fault_free_metered_run_matches_plain(self):
        plain = FleetSweep(GRID, **TINY).run("vector")
        metered = FleetSweep(GRID, meter=True, **TINY).run("vector")
        for a, b in zip(plain.scenarios, metered.scenarios):
            assert a.completed == b.completed
            assert a.instructions == b.instructions
            assert b.billing is not None
            assert b.billing.billed_total == b.billing.true_total
