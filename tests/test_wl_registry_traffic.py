"""Tests for the Table-1 registry, traffic generators and workload mixing."""

import pytest

from repro.workloads.function import FunctionSpec
from repro.workloads.registry import (
    MEMORY_INTENSIVE_ABBREVIATIONS,
    FunctionRegistry,
    default_registry,
    reference_functions as registry_reference_functions,
    table1_rows,
    test_functions as registry_test_functions,
)
from repro.workloads.runtimes import Language
from repro.workloads.synthetic import WorkloadMixer
from repro.workloads.traffic import GeneratorKind, generator, stress_levels


class TestRegistryContents:
    def test_27_benchmarks(self, registry):
        assert len(registry) == 27

    def test_13_reference_and_14_test_functions(self, registry):
        assert len(registry.reference_functions()) == 13
        assert len(registry.test_functions()) == 14
        assert len(registry_reference_functions()) == 13
        assert len(registry_test_functions()) == 14

    def test_language_split_matches_table1(self, registry):
        assert len(registry.by_language(Language.PYTHON)) == 16
        assert len(registry.by_language(Language.NODEJS)) == 5
        assert len(registry.by_language(Language.GO)) == 6

    def test_three_functions_exist_in_all_languages(self, registry):
        for base in ("auth", "fib", "aes"):
            for suffix in ("py", "nj", "go"):
                assert f"{base}-{suffix}" in registry

    def test_suites_present(self, registry):
        suites = [spec.suite for spec in registry]
        assert suites.count("sebs") == 8
        assert suites.count("functionbench") == 5
        assert suites.count("hotel-reservation") == 3
        assert suites.count("online-boutique") == 2

    def test_memory_intensive_set(self, registry):
        subset = registry.memory_intensive()
        assert len(subset) == 8
        assert {s.abbreviation for s in subset} == set(MEMORY_INTENSIVE_ABBREVIATIONS)

    def test_compute_bound_functions_have_tiny_miss_rates(self, registry):
        float_py = registry.get("float-py")
        pager_py = registry.get("pager-py")
        assert float_py.body_phases[0].profile.l2_mpki < 0.1
        assert pager_py.body_phases[0].profile.l2_mpki > 10 * float_py.body_phases[0].profile.l2_mpki

    def test_unknown_function_raises(self, registry):
        with pytest.raises(KeyError, match="unknown function"):
            registry.get("nope-py")

    def test_table1_rows_shape(self):
        rows = table1_rows()
        assert len(rows) == 27
        assert {"abbreviation", "language", "reference"} <= set(rows[0].keys())


class TestRegistryOperations:
    def test_subset(self, registry):
        subset = registry.subset(["aes-py", "fib-go"])
        assert len(subset) == 2

    def test_scaled_registry_preserves_identity(self, registry):
        scaled = registry.scaled(0.5)
        assert len(scaled) == len(registry)
        original = registry.get("aes-py")
        shrunk = scaled.get("aes-py")
        assert shrunk.body_instructions == pytest.approx(original.body_instructions * 0.5)
        assert shrunk.startup_instructions == pytest.approx(original.startup_instructions)

    def test_duplicate_specs_rejected(self, registry):
        spec = registry.get("aes-py")
        with pytest.raises(ValueError):
            FunctionRegistry([spec, spec])

    def test_default_registry_is_cached(self):
        assert default_registry() is default_registry()


class TestTrafficGenerators:
    def test_thread_specs_count_matches_level(self):
        assert len(generator(GeneratorKind.CT, 5).thread_specs()) == 5
        assert len(generator(GeneratorKind.MB, 0).thread_specs()) == 0

    def test_generator_specs_are_flagged(self):
        for spec in generator(GeneratorKind.CT, 3).thread_specs():
            assert spec.is_traffic_generator
            assert spec.suite == "traffic-generator"
            assert isinstance(spec, FunctionSpec)

    def test_ct_gen_hits_l3_mb_gen_misses(self):
        ct_profile = generator(GeneratorKind.CT, 1).profile
        mb_profile = generator(GeneratorKind.MB, 1).profile
        assert ct_profile.solo_l3_hit_fraction > 0.9
        assert mb_profile.solo_l3_hit_fraction < 0.3
        assert mb_profile.working_set_mb > CASCADE_L3_MB_APPROX()

    def test_stress_levels_helper(self):
        assert stress_levels(31)[0] == 1
        assert stress_levels(31)[-1] == 31
        assert stress_levels(10, step=3) == (1, 4, 7, 10)
        with pytest.raises(ValueError):
            stress_levels(0)

    def test_generator_kinds(self):
        assert generator(GeneratorKind.CT, 2).kind is GeneratorKind.CT
        assert generator(GeneratorKind.MB, 2).kind is GeneratorKind.MB


def CASCADE_L3_MB_APPROX():
    return 22.0


class TestWorkloadMixer:
    def test_deterministic_given_seed(self, registry):
        a = WorkloadMixer(registry.all(), seed=11).draw(20)
        b = WorkloadMixer(registry.all(), seed=11).draw(20)
        assert [s.abbreviation for s in a] == [s.abbreviation for s in b]

    def test_different_seeds_differ(self, registry):
        a = WorkloadMixer(registry.all(), seed=1).draw(30)
        b = WorkloadMixer(registry.all(), seed=2).draw(30)
        assert [s.abbreviation for s in a] != [s.abbreviation for s in b]

    def test_weights_validated(self, registry):
        pool = registry.all()
        with pytest.raises(ValueError):
            WorkloadMixer(pool, weights=[1.0])
        with pytest.raises(ValueError):
            WorkloadMixer([])
