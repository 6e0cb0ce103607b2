"""The versioned on-disk cache: hits, misses, version invalidation, wiring."""

import json
from dataclasses import replace

import pytest

from repro import diskcache
from repro.core.calibration import (
    CalibrationScenario,
    Calibrator,
    calibrate_cached,
)
from repro.core.persistence import calibration_to_dict
from repro.experiments.config import one_per_core
from repro.experiments.harness import (
    clear_experiment_caches,
    oracle_for,
    price_evaluation_cached,
    registry_for,
)
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.oracle import SoloOracle, SoloProfile
from repro.workloads.registry import default_registry


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    # A fresh disk layer starts with a fresh in-process layer too.
    diskcache.forget()
    return tmp_path


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "sub" / "file.json"
        diskcache.atomic_write_text(target, "one")
        assert target.read_text(encoding="utf-8") == "one"
        diskcache.atomic_write_text(target, "two")
        assert target.read_text(encoding="utf-8") == "two"

    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "file.json"
        diskcache.atomic_write_text(target, "payload")
        assert [entry.name for entry in tmp_path.iterdir()] == ["file.json"]

    def test_benchlog_append_uses_atomic_write(self, tmp_path):
        from repro import benchlog

        path = tmp_path / "BENCH_engine.json"
        benchlog.append_run({"figA": 1.0}, source="test", path=path)
        benchlog.append_run({"figB": 2.0}, source="test", path=path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert len(document["runs"]) == 2
        leftovers = {entry.name for entry in tmp_path.iterdir()}
        assert leftovers <= {"BENCH_engine.json", "BENCH_engine.json.lock"}

    def test_benchlog_concurrent_appends_lose_nothing(self, tmp_path):
        import threading

        from repro import benchlog

        if benchlog.fcntl is None:
            pytest.skip("appender lock needs fcntl; best-effort on this platform")

        path = tmp_path / "BENCH_engine.json"
        threads = [
            threading.Thread(
                target=benchlog.append_run,
                args=({f"fig{i}": float(i)},),
                kwargs={"source": "test", "path": path},
            )
            for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        document = json.loads(path.read_text(encoding="utf-8"))
        assert len(document["runs"]) == 12


class TestDiskCachePrimitives:
    def test_store_then_load_round_trips(self, cache_dir):
        payload = {"value": 1.5, "nested": {"xs": [1.0, 2.0]}}
        path = diskcache.store("thing", "abc", payload)
        assert path is not None and path.exists()
        assert diskcache.load("thing", "abc") == payload

    def test_load_misses_on_unknown_key(self, cache_dir):
        assert diskcache.load("thing", "missing") is None

    def test_version_mismatch_invalidates(self, cache_dir):
        path = diskcache.store("thing", "abc", {"value": 1})
        document = json.loads(path.read_text())
        document["cache_version"] = diskcache.CACHE_VERSION - 1
        path.write_text(json.dumps(document))
        assert diskcache.load("thing", "abc") is None

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        path = diskcache.store("thing", "abc", {"value": 1})
        path.write_text("not json {")
        assert diskcache.load("thing", "abc") is None

    def test_disabled_cache_never_stores(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert diskcache.store("thing", "abc", {"value": 1}) is None
        assert diskcache.load("thing", "abc") is None
        assert not list(cache_dir.iterdir())

    def test_fingerprint_is_stable_and_sensitive(self):
        machine = CASCADE_LAKE_5218
        assert diskcache.fingerprint(machine, 1) == diskcache.fingerprint(machine, 1)
        assert diskcache.fingerprint(machine, 1) != diskcache.fingerprint(machine, 2)

    def test_registry_fingerprint_changes_with_scaling(self):
        registry = default_registry()
        assert diskcache.registry_fingerprint(
            registry.all()
        ) != diskcache.registry_fingerprint(registry.scaled(0.5).all())


class TestSoloProfileDiskCache:
    def test_profile_round_trips_through_disk(self, cache_dir):
        machine = CASCADE_LAKE_5218
        spec = default_registry().scaled(0.1).get("auth-py")

        first = SoloOracle(machine)
        profile = first.profile(spec)
        assert len(list(cache_dir.glob("solo-*.json"))) == 1

        # With the in-process layer forgotten, a fresh oracle must load from
        # disk and get bit-identical measurements.
        diskcache.forget()
        second = SoloOracle(machine)
        loaded = second.profile(spec)
        assert loaded.execution == profile.execution
        assert loaded.startup == profile.startup

    def test_dict_round_trip(self, cache_dir):
        machine = CASCADE_LAKE_5218
        spec = default_registry().scaled(0.1).get("auth-py")
        profile = SoloOracle(machine).profile(spec)
        assert SoloProfile.from_dict(profile.to_dict()).execution == profile.execution


class TestCalibrationDiskCache:
    @pytest.fixture()
    def small_args(self):
        return dict(
            registry=default_registry().scaled(0.1),
            stress_levels=(2,),
        )

    def test_second_process_equivalent_hit(self, cache_dir, small_args):
        machine = CASCADE_LAKE_5218
        scenario = CalibrationScenario.dedicated(2)
        diskcache.forget()
        first = calibrate_cached(machine, scenario, **small_args)
        assert len(list(cache_dir.glob("calibration-*.json"))) == 1

        # Forgetting the in-process layer simulates a fresh worker process:
        # the result must come back from disk with identical table contents.
        diskcache.forget()
        second = calibrate_cached(machine, scenario, **small_args)
        assert second.congestion_table.rows() == first.congestion_table.rows()
        assert second.performance_table.rows() == first.performance_table.rows()
        assert second.stress_levels == first.stress_levels
        # Still exactly one entry — the hit did not rewrite the file.
        assert len(list(cache_dir.glob("calibration-*.json"))) == 1

    def test_version_bump_recomputes(self, cache_dir, small_args, monkeypatch):
        machine = CASCADE_LAKE_5218
        scenario = CalibrationScenario.dedicated(2)
        diskcache.forget()
        calibrate_cached(machine, scenario, **small_args)
        entry = next(cache_dir.glob("calibration-*.json"))
        document = json.loads(entry.read_text())
        document["cache_version"] = diskcache.CACHE_VERSION + 1
        entry.write_text(json.dumps(document))

        diskcache.forget()
        calls = {"n": 0}
        from repro.core import calibration as calibration_module

        original = calibration_module.Calibrator.calibrate

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(calibration_module.Calibrator, "calibrate", counting)
        calibrate_cached(machine, scenario, **small_args)
        assert calls["n"] == 1  # stale version ignored, sweep recomputed

    def test_different_registry_different_entry(self, cache_dir, small_args):
        machine = CASCADE_LAKE_5218
        scenario = CalibrationScenario.dedicated(2)
        diskcache.forget()
        calibrate_cached(machine, scenario, **small_args)
        diskcache.forget()
        calibrate_cached(
            machine,
            scenario,
            registry=default_registry().scaled(0.2),
            stress_levels=(2,),
        )
        assert len(list(cache_dir.glob("calibration-*.json"))) == 2

    def _calibrate_twice(self, machine, small_args, monkeypatch):
        """Two cached calibrations with a fresh in-process layer before each,
        as in two worker processes; returns both and the sweeps that ran."""
        from repro.core import calibration as calibration_module

        calls = {"n": 0}
        original = calibration_module.Calibrator.calibrate

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(calibration_module.Calibrator, "calibrate", counting)
        scenario = CalibrationScenario.dedicated(2)
        diskcache.forget()
        first = calibrate_cached(machine, scenario, **small_args)
        diskcache.forget()
        second = calibrate_cached(machine, scenario, **small_args)
        return first, second, calls["n"]

    def test_machine_outside_the_table_is_served_from_disk(
        self, cache_dir, small_args, monkeypatch
    ):
        custom = replace(CASCADE_LAKE_5218, name="custom-5218")
        first, second, sweeps = self._calibrate_twice(custom, small_args, monkeypatch)
        assert sweeps == 1
        assert second.machine == custom
        assert calibration_to_dict(second) == calibration_to_dict(first)

    def test_same_named_variant_keeps_its_spec(self, cache_dir, small_args, monkeypatch):
        variant = replace(CASCADE_LAKE_5218, memory_latency_ns=170.0)
        assert variant.name == CASCADE_LAKE_5218.name
        _, second, sweeps = self._calibrate_twice(variant, small_args, monkeypatch)
        assert sweeps == 1
        assert second.machine == variant
        assert second.machine.memory_latency_ns == 170.0

    def test_damaged_entry_is_recomputed_and_rewritten(self, cache_dir, small_args):
        machine = CASCADE_LAKE_5218
        scenario = CalibrationScenario.dedicated(2)
        first = calibrate_cached(machine, scenario, **small_args)
        entry = next(cache_dir.glob("calibration-*.json"))
        intact = entry.read_text()
        document = json.loads(intact)
        document["payload"]["reference_baselines"] = []
        entry.write_text(json.dumps(document))

        diskcache.forget()
        again = calibrate_cached(machine, scenario, **small_args)
        assert calibration_to_dict(again) == calibration_to_dict(first)
        assert entry.read_text() == intact


class TestMemoized:
    IDENTITY = ("widget", 1.5, CASCADE_LAKE_5218)

    def memo(self, compute):
        return diskcache.memoized(
            "thing",
            self.IDENTITY,
            compute,
            lambda value: {"value": value},
            lambda payload: payload["value"],
        )

    def entry(self, cache_dir):
        return cache_dir / f"thing-{diskcache.fingerprint(*self.IDENTITY)}.json"

    def test_in_process_hit_reads_no_disk(self, cache_dir, monkeypatch):
        assert self.memo(lambda: 7) == 7
        assert self.entry(cache_dir).exists()
        monkeypatch.setattr(diskcache, "load", lambda *args: pytest.fail("read the disk"))
        assert self.memo(lambda: pytest.fail("recomputed an in-process hit")) == 7

    def test_disk_hit_after_forget(self, cache_dir):
        self.memo(lambda: 7)
        diskcache.forget()
        assert self.memo(lambda: pytest.fail("recomputed a disk hit")) == 7

    def test_undecodable_entry_is_recomputed_and_rewritten_once(
        self, cache_dir, monkeypatch
    ):
        key = diskcache.fingerprint(*self.IDENTITY)
        diskcache.store("thing", key, {"stale": "layout"})
        stores = []
        store = diskcache.store
        monkeypatch.setattr(
            diskcache, "store", lambda *args: stores.append(args) or store(*args)
        )
        computed = []
        assert self.memo(lambda: computed.append(1) or 7) == 7
        assert stores == [("thing", key, {"value": 7})]
        assert diskcache.load("thing", key) == {"value": 7}
        diskcache.forget()
        assert self.memo(lambda: computed.append(1) or 8) == 7
        assert len(computed) == 1 and len(stores) == 1

    def test_disabled_disk_layer_writes_nothing(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert self.memo(lambda: 7) == 7
        assert not list(cache_dir.iterdir())
        assert self.memo(lambda: pytest.fail("recomputed an in-process hit")) == 7
        diskcache.forget()
        assert self.memo(lambda: 8) == 8

    def test_kinds_do_not_share_an_identity(self, cache_dir):
        self.memo(lambda: 7)
        other = diskcache.memoized(
            "other", self.IDENTITY, lambda: 9, lambda v: {"v": v}, lambda p: p["v"]
        )
        assert other == 9 and self.memo(lambda: 8) == 7


class TestIdentitiesKeepArtefactsApart:
    """Equal in-process identities must mean equal artefacts: each case
    below used to return another artefact's numbers within one process."""

    def test_price_evaluations_keep_seeds_apart(self):
        later_seed = one_per_core(seed=2025).quick()
        clear_experiment_caches()
        expected = price_evaluation_cached(later_seed)
        clear_experiment_caches()
        first = price_evaluation_cached(one_per_core().quick())
        again = price_evaluation_cached(later_seed)
        assert again == expected
        assert again.gmean_litmus_price != first.gmean_litmus_price

    def test_calibrations_keep_same_named_scenarios_apart(self):
        machine = CASCADE_LAKE_5218
        registry = default_registry().scaled(0.1)
        shared = CalibrationScenario.shared(2, 2)
        quiet = replace(shared, background_functions=0)
        assert quiet.name == shared.name
        expected = Calibrator(machine, registry, quiet, stress_levels=(2,)).calibrate()
        busy = calibrate_cached(machine, shared, registry=registry, stress_levels=(2,))
        cached = calibrate_cached(machine, quiet, registry=registry, stress_levels=(2,))
        assert calibration_to_dict(cached) == calibration_to_dict(expected)
        assert calibration_to_dict(cached) != calibration_to_dict(busy)

    def test_solo_profiles_keep_same_named_machines_apart(self):
        config = one_per_core()
        machine = config.machine
        slower = replace(
            config, machine=replace(machine, memory_latency_ns=2 * machine.memory_latency_ns)
        )
        assert slower.machine.name == machine.name
        spec = registry_for(config).test_functions()[0]
        clear_experiment_caches()
        expected = oracle_for(slower).profile(spec)
        clear_experiment_caches()
        nominal = oracle_for(config).profile(spec)
        assert oracle_for(slower).profile(spec) == expected
        assert expected.t_total_seconds != nominal.t_total_seconds
