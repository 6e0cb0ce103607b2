"""Tests for the calibration memo's codec and the CLI."""

import json
from dataclasses import replace

import pytest

from repro.core.estimator import CongestionEstimator
from repro.core.persistence import calibration_from_dict, calibration_to_dict
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind
from repro import cli


def _round_trip(result):
    """Encode ``result``, pass it through JSON text, and decode it back."""
    text = json.dumps(calibration_to_dict(result))
    return calibration_from_dict(json.loads(text), result.machine)


class TestPersistence:
    def test_round_trip_preserves_tables(self, small_calibration):
        loaded = _round_trip(small_calibration)

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

    def test_round_trip_supports_estimation(self, small_calibration):
        loaded = _round_trip(small_calibration)
        original_quality = CongestionEstimator(small_calibration).regression_quality()
        restored_quality = CongestionEstimator(loaded).regression_quality()
        for key, value in original_quality.items():
            assert restored_quality[key] == pytest.approx(value, rel=1e-9)

    def test_serialized_form_is_plain_json(self, small_calibration):
        payload = calibration_to_dict(small_calibration)
        text = json.dumps(payload)
        assert "congestion_table" in text
        rebuilt = calibration_from_dict(json.loads(text), small_calibration.machine)
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
            calibration_from_dict(payload, small_calibration.machine)


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
