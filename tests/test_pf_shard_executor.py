"""Sharded sweep executor: partitioning and shard-merge equivalence."""

from __future__ import annotations

import os

import pytest

from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import (
    FleetScenario,
    FleetSweep,
    partition_scenarios,
    run_sharded,
)
from repro.scenarios import ScenarioSpec, compile_spec, expand_grid, load_preset

TINY = dict(
    machine=CASCADE_LAKE_5218, horizon_seconds=0.2, epoch_seconds=1e-3, registry_scale=0.05
)


def tiny_grid():
    return expand_grid(
        ScenarioSpec(
            name="tiny",
            mixes=("all", "memory-intensive"),
            machines=(1, 2),
            cores_per_machine=3,
            seed=5,
        )
    )


def _die_in_worker(job):
    """A shard worker killed before it returns (as by the OOM killer)."""
    os._exit(3)


class TestPartitioning:
    def test_partition_is_exact_cover(self):
        grid = tiny_grid()
        parts = partition_scenarios(grid, 3)
        flat = sorted(index for part in parts for index in part)
        assert flat == list(range(len(grid)))
        assert all(part == sorted(part) for part in parts)

    def test_partition_is_deterministic(self):
        grid = tiny_grid()
        assert partition_scenarios(grid, 3) == partition_scenarios(grid, 3)

    def test_more_shards_than_scenarios_clamps(self):
        grid = tiny_grid()
        parts = partition_scenarios(grid, 99)
        assert len(parts) == len(grid)
        assert all(len(part) == 1 for part in parts)

    def test_partition_balances_fleet_sizes(self):
        scenarios = [
            FleetScenario(name=f"s{i}", machines=m, cores_per_machine=2)
            for i, m in enumerate((8, 1, 1, 1, 1, 4))
        ]
        parts = partition_scenarios(scenarios, 2)
        # The one 8-machine scenario must not share a shard with the
        # 4-machine one while singletons exist.
        loads = [sum(scenarios[i].machines for i in part) for part in parts]
        assert max(loads) - min(loads) <= 4

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            partition_scenarios(tiny_grid(), 0)
        with pytest.raises(ValueError):
            partition_scenarios([], 2)


@pytest.mark.slow
class TestShardMergeEquivalence:
    def assert_merged_identical(self, single, sharded):
        assert len(single.scenarios) == len(sharded.result.scenarios)
        for a, b in zip(single.scenarios, sharded.result.scenarios):
            assert a.name == b.name
            assert a.completed == b.completed
            assert a.submitted == b.submitted
            # Bit-exact: same engine arithmetic, same per-machine seeds.
            assert a.instructions == b.instructions
            assert a.cycles == b.cycles
            assert a.stall_cycles == b.stall_cycles
            assert a.l3_misses == b.l3_misses

    def test_vector_two_shards_match_single_process(self):
        grid = tiny_grid()
        single = FleetSweep(grid, **TINY).run("vector")
        sharded = run_sharded(FleetSweep(grid, **TINY), shards=2, backend="vector")
        assert sharded.shards == 2
        self.assert_merged_identical(single, sharded)

    def test_scalar_two_shards_match_single_process(self):
        grid = tiny_grid()[:2]
        single = FleetSweep(grid, **TINY).run("scalar")
        sharded = run_sharded(FleetSweep(grid, **TINY), shards=2, backend="scalar")
        self.assert_merged_identical(single, sharded)

    def test_one_shard_runs_inline(self):
        grid = tiny_grid()[:2]
        sharded = run_sharded(FleetSweep(grid, **TINY), shards=1, backend="vector")
        single = FleetSweep(grid, **TINY).run("vector")
        assert sharded.shards == 1
        self.assert_merged_identical(single, sharded)

    def test_preset_spec_sharded_matches_inline(self):
        compiled = compile_spec(load_preset("smoke"))
        sharded = compiled.run(shards=2)
        inline = compiled.run(shards=1)
        self.assert_merged_identical(inline.result, sharded)
        assert sharded.render().count("shard ") == sharded.shards

    def test_custom_registry_reaches_the_workers(self, registry):
        """compile_spec(registry=...) must govern the sharded run too."""
        from repro.scenarios import parse_spec_text

        subset = registry.subset(["bfs-py", "float-py"])
        spec = parse_spec_text(
            'name = "sub"\n'
            "[sweep]\nhorizon_seconds = 0.1\nregistry_scale = 0.05\n"
            "[grid]\nmixes = [\"all\"]\nmachines = [1, 2]\ncores_per_machine = 2\n"
        )
        compiled = compile_spec(spec, registry=subset)
        sharded = compiled.run(shards=2)
        single = compiled.sweep().run("vector")
        # If a worker silently fell back to the 27-function default
        # registry, its uniform draws (2 vs 27 functions) would diverge.
        for a, b in zip(single.scenarios, sharded.result.scenarios):
            assert a.completed == b.completed
            assert a.instructions == b.instructions

    def test_shard_timings_cover_all_scenarios(self):
        grid = tiny_grid()
        sharded = run_sharded(FleetSweep(grid, **TINY), shards=2, backend="vector")
        names = sorted(
            name for timing in sharded.shard_timings for name in timing.scenario_names
        )
        assert names == sorted(s.name for s in grid)
        assert all(t.wall_seconds > 0 for t in sharded.shard_timings)

    def test_metered_sharded_matches_single_process(self):
        """meter=True must not perturb the sweep, and billing merges exactly."""
        grid = tiny_grid()
        plain = FleetSweep(grid, **TINY).run("vector")
        single = FleetSweep(grid, meter=True, **TINY).run("vector")
        sharded = run_sharded(
            FleetSweep(grid, meter=True, **TINY), shards=2, backend="vector"
        )
        self.assert_merged_identical(plain, sharded)
        for a, b in zip(single.scenarios, sharded.result.scenarios):
            assert a.billing is not None
            assert a.billing == b.billing  # frozen sorted tuples: bit-comparable
            assert a.billing.billed_total == a.billing.true_total

    def test_chaos_preset_sharded_matches_inline(self):
        """With the fault axis on, sharding still cannot change any number."""
        compiled = compile_spec(load_preset("chaos-smoke"))
        inline = compiled.run(shards=1, meter=True)
        sharded = compiled.run(shards=2, meter=True)
        assert sharded.shards == 2
        self.assert_merged_identical(inline.result, sharded)
        for a, b in zip(inline.result.scenarios, sharded.result.scenarios):
            assert a.billing == b.billing
            assert a.fault_stats == b.fault_stats
            assert a.fault_stats is not None and not a.fault_stats.empty

    def test_faults_stripped_matches_fault_free(self):
        """A chaos spec with faults removed reproduces the clean sweep bit-exact."""
        compiled = compile_spec(load_preset("chaos-smoke"))
        stripped = compiled.without_faults().run(shards=2)
        clean = compiled.without_faults().sweep().run("vector")
        self.assert_merged_identical(clean, stripped)


class TestCLISpecPath:
    def test_sweep_spec_shards_cli(self, tmp_path, capsys):
        from repro.cli import main

        bench = tmp_path / "bench.json"
        code = main(
            [
                "sweep",
                "--spec",
                "smoke",
                "--shards",
                "2",
                "--bench-json",
                str(bench),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 shard(s)" in out
        import json

        document = json.loads(bench.read_text(encoding="utf-8"))
        (record,) = document["runs"]
        assert record["source"] == "fleet-sweep"
        assert record["spec"] == "smoke"
        assert record["shards"] == 2
        assert len(record["shard_seconds"]) == 2

    @pytest.mark.parametrize("metrics", [False, True])
    def test_dead_shard_worker_ends_in_one_line(
        self, metrics, tmp_path, monkeypatch, capsys
    ):
        """Exit 1 and one stderr line; with --metrics-out the run's root
        span is still written."""
        import json

        import repro.platform.batch.shard as shard
        from repro.cli import main

        monkeypatch.setattr(shard, "_run_shard", _die_in_worker)
        out = tmp_path / "metrics.jsonl"
        argv = ["sweep", "--spec", "smoke", "--shards", "2", "--no-bench"]
        code = main(argv + (["--metrics-out", str(out)] if metrics else []))
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "shard worker" in err
        if metrics:
            records = [json.loads(line) for line in out.read_text().splitlines()]
            spans = [r for r in records if r["kind"] == "span"]
            assert [s["name"] for s in spans if not s["parent_id"]] == ["sweep"]

    def test_spec_conflicts_with_grid_flags(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--spec", "smoke", "--machines", "4"])
        assert code == 2
        assert "--machines conflict with --spec" in capsys.readouterr().err

    def test_grid_flags_run_the_spec_they_compile_to(self, tmp_path, capsys):
        """Without --spec the grid flags are an in-memory spec: the same
        grid as a spec file prints the same table and records the same
        numbers; only the file's run names its spec."""
        import json

        from repro.cli import main

        spec = tmp_path / "flags.toml"
        spec.write_text(
            'name = "flags"\n[sweep]\nhorizon_seconds = 0.1\nregistry_scale = 0.05\n'
            "[grid]\nmachines = [1, 2]\ncolocations = [1, 2]\ncores_per_machine = 3\n",
            encoding="utf-8",
        )
        flags = ["--machines", "1,2", "--colocation", "1,2", "--cores", "3",
                 "--horizon", "0.1", "--registry-scale", "0.05"]
        outputs, records = [], []
        for source in (flags, ["--spec", str(spec)]):
            bench = tmp_path / f"bench-{len(outputs)}.json"
            assert main(["sweep", *source, "--bench-json", str(bench)]) == 0
            outputs.append(capsys.readouterr().out.splitlines())
            (record,) = json.loads(bench.read_text(encoding="utf-8"))["runs"]
            records.append(record)
        (flag_out, spec_out), (flag_record, spec_record) = outputs, records
        # Header, table, completion line with its wall time, bench line.
        assert flag_out[1:-2] == spec_out[1:-2]
        assert "Fleet sweep [vector]" in flag_out[1]
        assert "[spec: flags]" in spec_out[0] and "[spec:" not in flag_out[0]
        for key in ("scenarios", "fleet_size", "completed"):
            assert flag_record[key] == spec_record[key]
        assert spec_record["spec"] == "flags" and "spec" not in flag_record

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--horizon", "0"], "--horizon"),
            (["--epoch-seconds", "-1"], "--epoch-seconds"),
            (["--registry-scale", "0"], "--registry-scale"),
            (["--cores", "0"], "--cores"),
            (["--cores", "99"], "99 cores"),
            (["--machines", "0"], "--machines"),
            (["--colocation", "1,two"], "'two'"),
            (["--mixes", ","], "--mixes"),
            (["--mixes", "all,bogus"], "'bogus'"),
        ],
    )
    def test_bad_grid_flags_exit_2_in_one_line(self, flags, named, capsys):
        from repro.cli import main

        try:
            code = main(["sweep", *flags, "--no-bench"])
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert named in captured.err

    def test_bad_colocation_token_named(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--colocation", "1,two", "--no-bench"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'two'" in err and "--colocation" in err

    def test_bad_mix_token_named(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--mixes", "all,bogus", "--no-bench"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "memory-intensive" in err

    def test_unknown_spec_lists_presets(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--spec", "not-a-preset", "--no-bench"])
        assert code == 2
        assert "smoke" in capsys.readouterr().err

    def test_bad_fault_type_in_spec_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.toml"
        bad.write_text(
            'name = "bad"\n[grid]\nmixes = ["all"]\n'
            '[[faults]]\ntype = "churn-spiky"\ncount = 2\n',
            encoding="utf-8",
        )
        code = main(["sweep", "--spec", str(bad), "--no-bench"])
        assert code == 2
        err = capsys.readouterr().err
        assert "faults[0].type" in err
        assert "'churn-spiky'" in err and "churn-spike" in err

    def test_compare_rejected_for_faulted_spec(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--spec", "chaos-smoke", "--compare", "--no-bench"])
        assert code == 2
        assert "--compare" in capsys.readouterr().err

    def test_chaos_spec_cli_reports_degradation(self, tmp_path, capsys):
        from repro.cli import main

        bench = tmp_path / "bench.json"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            [
                "sweep",
                "--spec",
                "chaos-smoke",
                "--shards",
                "2",
                "--metrics-out",
                str(metrics),
                "--bench-json",
                str(bench),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Degradation report" in captured.out
        assert "bill_err%" in captured.out
        import json

        document = json.loads(bench.read_text(encoding="utf-8"))
        (record,) = document["runs"]
        assert record["spec"] == "chaos-smoke"
        report = record["fault_report"]
        assert {row["scenario"] for row in report["scenarios"]} == {
            "all-m1-c2",
            "all-m2-c2",
        }
        assert record["metrics"]["snapshots"] >= 1
        assert 0.0 <= record["obs_overhead_fraction"] < 0.05
        lines = metrics.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["v"] == 1 for r in records)
        snapshots = [r for r in records if r["kind"] == "snapshot"]
        assert any(s["done"] for s in snapshots)
        assert all(s["shard"].split(":")[0] in ("base", "fault") for s in snapshots)
        spans = [r for r in records if r["kind"] == "span"]
        assert spans, "expected trace spans in the metrics JSONL"
        (root,) = [s for s in spans if not s["parent_id"]]
        assert root["name"] == "sweep"
        assert {s["trace_id"] for s in spans} == {root["trace_id"]}
        series = [r for r in records if r["kind"] == "series"]
        assert series and all(p["epoch"] >= 1 for p in series)
