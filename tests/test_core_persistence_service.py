"""Tests for calibration persistence, the billing service and the CLI."""

import json
from dataclasses import replace

import pytest

from repro.core.estimator import CongestionEstimator
from repro.core.persistence import (
    calibration_from_dict,
    calibration_to_dict,
    load_calibration,
    save_calibration,
)
from repro.core.service import LitmusBillingService
from repro.hardware.cpu import CPU
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.churn import ChurnManager
from repro.platform.engine import SimulationEngine
from repro.platform.scheduler import DedicatedCoreScheduler
from repro.workloads.runtimes import Language
from repro.workloads.synthetic import WorkloadMixer
from repro.workloads.traffic import GeneratorKind
from repro import cli


class TestPersistence:
    def test_round_trip_preserves_tables(self, small_calibration, tmp_path):
        path = save_calibration(small_calibration, tmp_path / "calibration.json")
        assert path.exists()
        loaded = load_calibration(path)

        assert loaded.machine.name == small_calibration.machine.name
        assert loaded.stress_levels == small_calibration.stress_levels
        assert loaded.scenario.name == small_calibration.scenario.name
        assert len(loaded.congestion_table) == len(small_calibration.congestion_table)
        assert len(loaded.performance_table) == len(small_calibration.performance_table)

        original = small_calibration.performance_table.get(GeneratorKind.MB, 12)
        restored = loaded.performance_table.get(GeneratorKind.MB, 12)
        assert restored.total_slowdown == pytest.approx(original.total_slowdown)
        baseline = loaded.startup_baselines[Language.PYTHON]
        assert baseline.private_seconds == pytest.approx(
            small_calibration.startup_baselines[Language.PYTHON].private_seconds
        )

    def test_round_trip_supports_estimation(self, small_calibration, tmp_path):
        path = save_calibration(small_calibration, tmp_path / "calibration.json")
        loaded = load_calibration(path)
        original_quality = CongestionEstimator(small_calibration).regression_quality()
        restored_quality = CongestionEstimator(loaded).regression_quality()
        for key, value in original_quality.items():
            assert restored_quality[key] == pytest.approx(value, rel=1e-9)

    def test_serialized_form_is_plain_json(self, small_calibration):
        payload = calibration_to_dict(small_calibration)
        text = json.dumps(payload)
        assert "congestion_table" in text
        rebuilt = calibration_from_dict(json.loads(text))
        assert rebuilt.generators == small_calibration.generators

    def test_payload_for_another_machine_is_rejected(self, small_calibration):
        payload = calibration_to_dict(small_calibration)
        other = replace(small_calibration.machine, name="other-machine")
        with pytest.raises(ValueError, match="other-machine"):
            calibration_from_dict(payload, other)
        assert calibration_from_dict(payload, small_calibration.machine).machine is (
            small_calibration.machine
        )

    def test_unknown_format_version_rejected(self, small_calibration):
        payload = calibration_to_dict(small_calibration)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            calibration_from_dict(payload)


@pytest.fixture(scope="module")
def billed_service(small_calibration, small_registry, small_oracle):
    """A billing service fed with a handful of congested invocations."""
    service = LitmusBillingService(small_calibration, oracle=small_oracle)
    engine = SimulationEngine(CPU(CASCADE_LAKE_5218), DedicatedCoreScheduler())
    tests = [small_registry.get("aes-py"), small_registry.get("float-py")]
    invocations = [engine.submit(spec, thread_id=i) for i, spec in enumerate(tests)]
    churn = ChurnManager(
        WorkloadMixer(small_registry.all(), seed=17), 10, thread_ids=list(range(2, 12))
    )
    churn.attach(engine)
    assert engine.run_until(
        lambda e: all(inv.is_completed for inv in invocations), max_seconds=60.0
    )
    service.bill_completed(invocations, tenant="acme")
    return service


class TestBillingService:
    def test_records_created(self, billed_service):
        records = billed_service.records
        assert len(records) == 2
        assert {record.tenant for record in records} == {"acme"}
        for record in records:
            assert record.litmus_price <= record.commercial_price
            assert record.ideal_price is not None
            assert 0.0 <= record.discount < 1.0
            assert record.refund >= 0.0

    def test_summary_totals(self, billed_service):
        summary = billed_service.summary()
        assert summary.records == 2
        assert summary.litmus_total <= summary.commercial_total
        assert summary.average_discount >= 0.0
        assert summary.average_ideal_discount is not None

    def test_summary_filtered_by_tenant(self, billed_service):
        assert billed_service.summary(tenant="acme").records == 2
        assert billed_service.summary(tenant="other").records == 0

    def test_summary_by_function(self, billed_service):
        per_function = billed_service.summary_by_function()
        assert set(per_function) == {"aes-py", "float-py"}
        assert all(s.records == 1 for s in per_function.values())

    def test_average_normalized_price(self, billed_service):
        assert 0.5 < billed_service.average_normalized_price() <= 1.0

    def test_empty_ledger_rejected(self, small_calibration):
        service = LitmusBillingService(small_calibration)
        with pytest.raises(ValueError):
            service.average_normalized_price()


class TestCli:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig11" in output
        assert "table1" in output

    def test_registry_command(self, capsys):
        assert cli.main(["registry"]) == 0
        output = capsys.readouterr().out
        assert "aes-py" in output
        assert "Table 1" in output

    def test_run_unknown_figure(self, capsys):
        assert cli.main(["run", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_run_table1_with_output(self, tmp_path, capsys):
        output_file = tmp_path / "table1.txt"
        assert cli.main(["run", "table1", "--output", str(output_file)]) == 0
        assert output_file.exists()
        assert "Table 1" in output_file.read_text(encoding="utf-8")

    def test_every_figure_is_registered(self):
        expected = {f"fig{i:02d}" for i in range(1, 22)} | {"table1"}
        assert expected <= set(cli.FIGURE_MODULES)

    def test_all_registered_runners_resolve(self):
        from repro.experiments.runner import resolve_runner

        for name in cli.FIGURE_MODULES:
            runner = resolve_runner(name)
            assert callable(runner)
