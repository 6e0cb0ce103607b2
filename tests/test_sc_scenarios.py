"""Scenario-spec subsystem: schema errors, expansion, seeds, presets."""

from __future__ import annotations

import json

import pytest

from repro.hardware.topology import CASCADE_LAKE_5218
from repro.scenarios import (
    ScenarioSpec,
    SpecError,
    compile_spec,
    expand_grid,
    list_presets,
    load_preset,
    load_spec,
    load_spec_or_preset,
    parse_spec,
    parse_spec_text,
    preset_path,
)
from repro.workloads.synthetic import SequenceMixer, TrafficModel

MINIMAL = 'name = "t"\n'

COOKBOOK = """
name = "cookbook"
description = "test spec"
[sweep]
horizon_seconds = 0.25
registry_scale = 0.05
shards = 2
[grid]
mixes = ["all", "hot"]
machines = [1, 2]
colocations = [1, 5]
cores_per_machine = 4
seed = 7
[mixes.hot]
functions = ["bfs-py", "float-py"]
weights = [3.0, 1.0]
"""


class TestParsing:
    def test_minimal_defaults(self):
        spec = parse_spec_text(MINIMAL)
        assert spec.name == "t"
        assert spec.mixes == ("all",)
        assert spec.grid_size == 1
        assert spec.backend == "vector"
        assert spec.shards == 1

    def test_name_only_document_parses_to_the_field_defaults(self):
        assert parse_spec({"name": "t"}) == ScenarioSpec(name="t")
        assert parse_spec_text(MINIMAL) == ScenarioSpec(name="t")

    def test_full_document(self):
        spec = parse_spec_text(COOKBOOK)
        assert spec.grid_size == 8
        assert spec.seed == 7
        assert spec.shards == 2
        assert spec.mix_definitions[0].name == "hot"
        assert spec.mix_definitions[0].weights == (3.0, 1.0)

    def test_json_roundtrip(self, tmp_path):
        document = {
            "name": "j",
            "grid": {"mixes": ["memory-intensive"], "machines": [2]},
        }
        assert parse_spec(document).grid_size == 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert load_spec(path).name == "j"

    def test_load_spec_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: x", encoding="utf-8")
        with pytest.raises(SpecError, match="suffix"):
            load_spec(path)

    def test_invalid_toml_names_origin(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("name = ", encoding="utf-8")
        with pytest.raises(SpecError, match="bad.toml"):
            load_spec(path)


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "missing required key 'name'"),
            ('name = "x"\nbogus = 1', "unknown key"),
            ('name = "x"\n[sweep]\nhorizon_seconds = 0', "sweep.horizon_seconds"),
            ('name = "x"\n[sweep]\nbackend = "gpu"', "sweep.backend"),
            ('name = "x"\n[sweep]\nshards = 0', "sweep.shards"),
            ('name = "x"\n[grid]\nmachines = [1, 0]', r"grid\.machines\[1\]"),
            ('name = "x"\n[grid]\nmixes = []', "non-empty list"),
            ('name = "x"\n[grid]\nmixes = "all"', "expected a list"),
            ('name = "x"\n[traffic]\npolicy = "poisson"', "traffic.policy"),
            ('name = "x"\n[traffic]\npolicy = "trace"', "requires a trace"),
            (
                'name = "x"\n[traffic]\ntrace = ["bfs-py"]',
                "only valid with policy = 'trace'",
            ),
            (
                'name = "x"\n[grid]\nmixes = ["all"]\n'
                '[mixes.all]\nfunctions = ["bfs-py"]',
                "built-in",
            ),
            (
                'name = "x"\n[grid]\nmixes = ["m"]\n'
                '[mixes.m]\nfunctions = ["bfs-py"]\nweights = [1.0, 2.0]',
                "weights",
            ),
            (
                'name = "x"\n[mixes.unused]\nfunctions = ["bfs-py"]',
                "never used",
            ),
            # TOML allows nan and inf; no numeric field accepts them.
            ('name = "x"\n[sweep]\nhorizon_seconds = nan', r"sweep\.horizon_seconds: .*finite"),
            ('name = "x"\n[sweep]\nhorizon_seconds = inf', r"sweep\.horizon_seconds: .*finite"),
            (
                'name = "x"\n[grid]\nmixes = ["m"]\n'
                '[mixes.m]\nfunctions = ["bfs-py", "float-py"]\nweights = [nan, 1.0]',
                r"mixes\.m\.weights\[0\]: .*finite",
            ),
            (
                'name = "x"\n[[faults]]\ntype = "freq-throttle"\nfactor = nan',
                r"faults\[0\]\.factor: .*finite",
            ),
            # An integer too large for a float is not finite either.
            ('name = "x"\n[sweep]\nhorizon_seconds = 1' + "0" * 400, "finite"),
        ],
    )
    def test_error_names_field(self, text, fragment):
        with pytest.raises(SpecError, match=fragment):
            parse_spec_text(text)

    def test_compile_rejects_unknown_function(self):
        spec = parse_spec_text('name = "x"\n[grid]\nmixes = ["nope"]')
        with pytest.raises(SpecError, match="'nope'"):
            compile_spec(spec)

    def test_compile_rejects_unknown_machine(self):
        spec = parse_spec_text('name = "x"\n[sweep]\nmachine = "cray-1"')
        with pytest.raises(SpecError, match="cray-1"):
            compile_spec(spec)

    def test_compile_rejects_oversized_cores(self):
        cores = CASCADE_LAKE_5218.cores + 1
        spec = parse_spec_text(
            f'name = "x"\n[grid]\ncores_per_machine = {cores}'
        )
        with pytest.raises(SpecError, match="cores"):
            compile_spec(spec)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("registry_scale", 0),
            ("backend", "gpu"),
            ("shards", 0),
            ("horizon_seconds", float("nan")),
            ("epoch_seconds", float("nan")),
        ],
    )
    def test_compile_checks_in_memory_settings(self, field, value):
        """A spec built in memory skips ``parse_spec``; ``compile_spec``
        still refuses its bad settings, naming the field.  (A NaN horizon
        or epoch used to compile and run zero epochs.)"""
        with pytest.raises(SpecError, match=rf"^x: sweep\.{field}: "):
            compile_spec(ScenarioSpec(name="x", **{field: value}))

    def test_compile_rejects_trace_outside_pool(self):
        spec = parse_spec_text(
            'name = "x"\n[grid]\nmixes = ["bfs-py+float-py"]\n'
            '[traffic]\npolicy = "trace"\ntrace = ["pager-py"]'
        )
        with pytest.raises(SpecError, match="'pager-py'"):
            compile_spec(spec)


class TestExpansion:
    def test_grid_expansion_counts_and_names(self):
        spec = parse_spec_text(COOKBOOK)
        scenarios = expand_grid(spec)
        assert len(scenarios) == spec.grid_size == 8
        names = [s.name for s in scenarios]
        assert names[0] == "all-m1-c1"
        assert "hot-m2-c5" in names
        assert len(set(names)) == len(names)

    def test_expansion_carries_seed_and_traffic(self):
        spec = parse_spec_text(COOKBOOK)
        scenarios = expand_grid(spec)
        assert all(s.seed == 7 for s in scenarios)
        hot = [s for s in scenarios if s.mix == "hot"]
        assert all(s.traffic is not None for s in hot)
        assert all(s.traffic.policy == "weighted" for s in hot)
        assert all(s.traffic is None for s in scenarios if s.mix == "all")

    def test_expansion_is_deterministic(self):
        assert expand_grid(parse_spec_text(COOKBOOK)) == expand_grid(
            parse_spec_text(COOKBOOK)
        )

    def test_round_robin_policy_attaches_model(self):
        spec = parse_spec_text(
            'name = "x"\n[traffic]\npolicy = "round-robin"'
        )
        (scenario,) = expand_grid(spec)
        assert scenario.traffic == TrafficModel(policy="round-robin")

    def test_compile_resolves_machine_and_fleet(self):
        spec = parse_spec_text(COOKBOOK)
        compiled = compile_spec(spec)
        assert compiled.machine is CASCADE_LAKE_5218
        # (all: 2 mixes) x (1+2 machines) x (1+5 colocation) x 4 cores
        assert compiled.fleet_size == sum(
            m * 4 * c for m in (1, 2) for c in (1, 5)
        ) * 2


class TestTrafficModels:
    def test_mixer_streams_are_seed_deterministic(self, registry):
        pool = registry.memory_intensive()
        for model in (
            TrafficModel(),
            TrafficModel(policy="weighted", weights=tuple(range(1, 9))),
            TrafficModel(policy="round-robin"),
            TrafficModel(policy="trace", trace=("bfs-py", "thum-py")),
        ):
            first = model.build_mixer(pool, seed=11).draw(16)
            second = model.build_mixer(pool, seed=11).draw(16)
            assert first == second
            assert len(model.build_mixer(pool, seed=12).draw(16)) == 16

    def test_round_robin_covers_pool(self, registry):
        pool = registry.memory_intensive()
        drawn = TrafficModel(policy="round-robin").build_mixer(pool, seed=1).draw(
            len(pool)
        )
        assert sorted(s.abbreviation for s in drawn) == sorted(
            s.abbreviation for s in pool
        )

    def test_trace_replays_cyclically(self, registry):
        pool = registry.memory_intensive()
        mixer = TrafficModel(policy="trace", trace=("bfs-py", "thum-py")).build_mixer(
            pool, seed=0
        )
        assert [s.abbreviation for s in mixer.draw(5)] == [
            "bfs-py", "thum-py", "bfs-py", "thum-py", "bfs-py",
        ]

    def test_sequence_mixer_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceMixer([])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "poisson"},
            {"policy": "weighted"},
            {"policy": "uniform", "weights": (1.0,)},
            {"policy": "trace"},
            {"policy": "uniform", "trace": ("bfs-py",)},
            {"policy": "weighted", "weights": (0.0, 0.0)},
        ],
    )
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrafficModel(**kwargs)


class TestPresets:
    def test_presets_are_listed(self):
        names = list_presets()
        assert "smoke" in names and "memory-pressure" in names

    def test_every_preset_parses_and_compiles(self):
        for name in list_presets():
            spec = load_preset(name)
            compiled = compile_spec(spec)
            assert spec.name == name
            assert len(compiled.scenarios) == spec.grid_size

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(SpecError, match="smoke"):
            preset_path("definitely-not-a-preset")

    def test_spec_or_preset_resolution(self, tmp_path):
        assert load_spec_or_preset("smoke").name == "smoke"
        path = tmp_path / "inline.toml"
        path.write_text('name = "inline"\n', encoding="utf-8")
        assert load_spec_or_preset(path).name == "inline"

    def test_directory_cannot_shadow_preset(self, tmp_path, monkeypatch):
        (tmp_path / "smoke").mkdir()
        monkeypatch.chdir(tmp_path)
        assert load_spec_or_preset("smoke").name == "smoke"
