"""The calibration memo's encoder and decoder.

Calibration is the expensive, offline half of Litmus pricing, so
:func:`repro.core.calibration.calibrate_cached` keeps every result in the
``diskcache.memoized`` memo.  This module is that memo's codec: it encodes a
:class:`repro.core.calibration.CalibrationResult` (tables, startup
baselines and reference baselines) as a JSON-serializable dictionary and
decodes it back for the machine the memo's identity names.

Only measurement data is encoded; regression models are cheap to refit and
are always rebuilt from the decoded tables, which keeps the stored format
independent of the fitting implementation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.core.calibration import CalibrationResult, CalibrationScenario
from repro.core.litmus_test import StartupBaseline
from repro.core.tables import (
    CongestionObservation,
    CongestionTable,
    PerformanceObservation,
    PerformanceTable,
)
from repro.hardware.topology import MachineSpec
from repro.platform.oracle import SoloProfile
from repro.workloads.runtimes import Language
from repro.workloads.traffic import GeneratorKind

#: Format marker so future layout changes can be detected on load.
FORMAT_VERSION = 1


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #
def _encode_startup_baseline(baseline: StartupBaseline) -> Mapping[str, float]:
    return {
        "language": baseline.language.value,
        "private_seconds": baseline.private_seconds,
        "shared_seconds": baseline.shared_seconds,
        "machine_l3_misses": baseline.machine_l3_misses,
    }


def calibration_to_dict(result: CalibrationResult) -> Dict[str, object]:
    """Encode a calibration result as a JSON-serializable dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "machine": result.machine.name,
        "scenario": {
            "name": result.scenario.name,
            "function_thread_count": result.scenario.function_thread_count,
            "functions_per_thread": result.scenario.functions_per_thread,
            "smt_enabled": result.scenario.smt_enabled,
            "background_functions": result.scenario.background_functions,
        },
        "stress_levels": list(result.stress_levels),
        "generators": [kind.value for kind in result.generators],
        "startup_baselines": [
            _encode_startup_baseline(baseline)
            for baseline in result.startup_baselines.values()
        ],
        "reference_baselines": {
            abbreviation: profile.to_dict()
            for abbreviation, profile in result.reference_baselines.items()
        },
        "congestion_table": [dict(row) for row in result.congestion_table.rows()],
        "performance_table": [dict(row) for row in result.performance_table.rows()],
        "reference_slowdowns": [
            {
                "generator": generator.value,
                "stress_level": level,
                "slowdowns": {
                    abbreviation: list(values)
                    for abbreviation, values in per_reference.items()
                },
            }
            for (generator, level), per_reference in result.reference_slowdowns.items()
        ],
    }


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #
def calibration_from_dict(
    payload: Mapping[str, object], machine: MachineSpec
) -> CalibrationResult:
    """Rebuild a calibration result from :func:`calibration_to_dict` output.

    ``machine`` is the spec the result was computed on (the calibration
    memo's identity binds the whole spec), so a machine outside the machine
    table or a same-named variant comes back as itself.  The payload names
    its machine; a payload naming another machine raises ``ValueError``.
    """
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported calibration format version {version!r}; "
            f"this library reads version {FORMAT_VERSION}"
        )
    if payload["machine"] != machine.name:
        raise ValueError(
            f"calibration payload is for machine {payload['machine']!r}, "
            f"not {machine.name!r}"
        )
    scenario_payload = payload["scenario"]
    scenario = CalibrationScenario(
        name=scenario_payload["name"],
        function_thread_count=scenario_payload["function_thread_count"],
        functions_per_thread=scenario_payload["functions_per_thread"],
        smt_enabled=scenario_payload["smt_enabled"],
        background_functions=scenario_payload["background_functions"],
    )

    startup_baselines = {}
    for entry in payload["startup_baselines"]:
        language = Language(entry["language"])
        startup_baselines[language] = StartupBaseline(
            language=language,
            private_seconds=entry["private_seconds"],
            shared_seconds=entry["shared_seconds"],
            machine_l3_misses=entry["machine_l3_misses"],
        )

    reference_baselines = {
        abbreviation: SoloProfile.from_dict(entry)
        for abbreviation, entry in payload["reference_baselines"].items()
    }

    congestion = CongestionTable(
        CongestionObservation(
            generator=GeneratorKind(row["generator"]),
            stress_level=int(row["stress_level"]),
            language=Language(row["language"]),
            private_slowdown=row["startup_private_slowdown"],
            shared_slowdown=row["startup_shared_slowdown"],
            total_slowdown=row["startup_total_slowdown"],
            machine_l3_misses=row["machine_l3_misses"],
        )
        for row in payload["congestion_table"]
    )
    performance = PerformanceTable(
        PerformanceObservation(
            generator=GeneratorKind(row["generator"]),
            stress_level=int(row["stress_level"]),
            private_slowdown=row["reference_private_slowdown"],
            shared_slowdown=row["reference_shared_slowdown"],
            total_slowdown=row["reference_total_slowdown"],
        )
        for row in payload["performance_table"]
    )

    reference_slowdowns: Dict[Tuple[GeneratorKind, int], Dict[str, Tuple[float, float, float]]] = {}
    for entry in payload["reference_slowdowns"]:
        key = (GeneratorKind(entry["generator"]), int(entry["stress_level"]))
        reference_slowdowns[key] = {
            abbreviation: tuple(values)  # type: ignore[misc]
            for abbreviation, values in entry["slowdowns"].items()
        }

    return CalibrationResult(
        machine=machine,
        scenario=scenario,
        stress_levels=tuple(int(level) for level in payload["stress_levels"]),
        generators=tuple(GeneratorKind(value) for value in payload["generators"]),
        startup_baselines=startup_baselines,
        reference_baselines=reference_baselines,
        congestion_table=congestion,
        performance_table=performance,
        reference_slowdowns=reference_slowdowns,
    )
