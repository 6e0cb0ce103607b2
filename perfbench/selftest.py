"""Fast self-test of the benchmark (about 30 s on two vCPUs).

Usage, from the repository root::

    python3 perfbench/selftest.py

It checks BENCHMARK.json against the benchmark's own limits, then runs
``run.py`` on ``price-light`` (full size: 1-2 s a run) and, at a tiny
horizon, on ``fleet-sweep`` and ``stream-billing``, with ``--trace 0``
and ``--trace 1``, and asserts that each run is correct and prints every
metric of BENCHMARK.json by name with its unit.  ``price-heavy`` shares
every code path with ``price-light`` at 30 times the cost, so it is left
out.  It corrupts each kind of reference and asserts that the output
check fails, end to end for a price figure.  Finally it makes every
worker process fail and asserts that each workload then prints a failed
result and the run exits 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"] and len(workload["why"]) <= 200
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert "setup_s" in names and 1 <= spec["run_seconds"] <= 60
    return spec


def check_runs(spec: dict) -> None:
    for workload in ("price-light", "fleet-sweep", "stream-billing"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, str(run.BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace),
            ]
            if workload != "price-light":
                command.append("--tiny")
            process = subprocess.run(
                command, cwd=run.ROOT, capture_output=True, text=True, timeout=170
            )
            assert process.returncode == 0, process.stderr
            lines = process.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, result
            expected = {m["name"]: m["unit"] for m in spec[key]}
            assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
            for name, unit in expected.items():
                printed = re.compile(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$")
                assert any(printed.match(line) for line in lines), (workload, name)
            print(f"ok: {workload} --trace {trace}")


def check_corrupted_references() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp_dir:
        figure = workloads.reference_path("price-light", 2024).read_text(encoding="utf-8")
        corrupted = Path(tmp_dir) / "fig11.txt"
        corrupted.write_text(figure.replace("0.8801", "0.8802", 1), encoding="utf-8")
        original = workloads.reference_path
        workloads.reference_path = lambda name, seed: corrupted
        try:
            result, lines = run.bench("price-light", 2024, 0.0, False, False)
        finally:
            workloads.reference_path = original
        assert not result["correct"] and result["failed"] == result["attempted"] >= 1
        assert any("FAILED" in line for line in lines)
    print("ok: a corrupted price reference fails the run")

    fleet = workloads.reference_path("fleet-sweep", 2024).read_text(encoding="utf-8")
    assert workloads.check("fleet-sweep", fleet, fleet)[0] is None
    scenarios = json.loads(fleet)
    scenarios[0]["completed"] += 1
    assert workloads.check("fleet-sweep", fleet, json.dumps(scenarios))[0] is not None
    scenarios = json.loads(fleet)
    scenarios[-1]["cycles"] *= 1 + 1e-8
    assert workloads.check("fleet-sweep", fleet, json.dumps(scenarios))[0] is not None
    scenarios = json.loads(fleet)
    scenarios[-1]["cycles"] *= 1 + 1e-12
    nudged = json.dumps(scenarios, sort_keys=True, indent=1) + "\n"
    assert workloads.check("fleet-sweep", fleet, nudged)[0] is None
    # A NaN or an infinity fails, also where the reference is zero.
    zero = json.loads(fleet)
    zero[-1]["cycles"] = 0.0
    for bad in (math.nan, math.inf, -math.inf):
        scenarios = json.loads(fleet)
        scenarios[-1]["cycles"] = bad
        for reference in (fleet, json.dumps(zero)):
            assert workloads.check("fleet-sweep", json.dumps(scenarios), reference)[0] is not None
    # The stream replay must match its batch reference bit for bit.
    assert workloads.check("stream-billing", fleet, fleet)[0] is None
    assert workloads.check("stream-billing", fleet, nudged)[0] is not None
    print("ok: corrupted fleet and stream references fail the check")


def check_failed_operations() -> None:
    """Workers that always fail give failed results for every workload."""
    original = run.run_worker
    run.run_worker = lambda *args, **kwargs: (None, "run process exited 1: RuntimeError")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", "all", "--seconds", "0"])
    finally:
        run.run_worker = original
    results = [json.loads(line) for line in out.getvalue().splitlines() if line.startswith("{")]
    assert status == 1 and len(results) == len(workloads.WORKLOADS), (status, results)
    for result in results:
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
    print("ok: failing operations are counted as failed, workload by workload")


def main() -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    spec = check_spec()
    print("ok: BENCHMARK.json")
    check_runs(spec)
    check_corrupted_references()
    check_failed_operations()
    return 0


if __name__ == "__main__":
    sys.exit(main())
