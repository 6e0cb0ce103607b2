"""Hardware profiles: dot-path addressing, TOML loading, drift events."""

from __future__ import annotations

import pytest

from repro.calibrate import (
    PROFILE_DIR,
    DriftEvent,
    DriftInjector,
    HardwareProfile,
    ProfileError,
    default_profile,
    get_param,
    list_profiles,
    load_profile,
    numeric_paths,
    perturbed,
    profile_by_name,
    set_param,
)
from repro.hardware.topology import CASCADE_LAKE_5218


def test_default_profile_is_the_paper_testbed():
    profile = default_profile()
    assert profile.machine is CASCADE_LAKE_5218
    assert profile.contention.memory_queueing_coefficient == 0.55


def test_numeric_paths_cover_nested_dataclasses():
    paths = numeric_paths(default_profile())
    assert "contention.memory_queueing_coefficient" in paths
    assert "machine.l3.size_kb" in paths
    assert "machine.cores" in paths
    # identity strings are not calibratable quantities
    assert all(not p.endswith(".name") for p in paths)
    assert "name" not in paths


def test_get_and_set_param_roundtrip():
    profile = default_profile()
    assert get_param(profile, "contention.max_utilization") == 0.97
    updated = set_param(profile, "contention.max_utilization", 0.9)
    assert get_param(updated, "contention.max_utilization") == 0.9
    # the original frozen profile is untouched
    assert get_param(profile, "contention.max_utilization") == 0.97


def test_set_param_rounds_integer_leaves():
    profile = default_profile()
    updated = set_param(profile, "machine.l2.latency_cycles", 13.7)
    value = get_param(updated, "machine.l2.latency_cycles")
    assert value == pytest.approx(13.7) or value == 14


def test_unknown_paths_name_themselves():
    profile = default_profile()
    with pytest.raises(ProfileError, match="contention.bogus"):
        get_param(profile, "contention.bogus")
    with pytest.raises(ProfileError, match="valid paths"):
        set_param(profile, "nope", 1.0)
    with pytest.raises(ProfileError):
        get_param(profile, "name")  # non-numeric leaf


def test_perturbed_scales_in_place():
    profile = default_profile()
    drifted = perturbed(profile, "contention.memory_queueing_coefficient", 1.3)
    assert get_param(
        drifted, "contention.memory_queueing_coefficient"
    ) == pytest.approx(0.55 * 1.3)


def test_shipped_profiles_load_and_resolve():
    names = list_profiles()
    assert "sg2042-like" in names
    assert "icelake-like" in names
    assert "cascade-lake-5218" in names
    sg = profile_by_name("sg2042-like")
    assert sg.machine.cores == 16
    assert sg.machine.smt_ways == 1
    assert sg.contention.memory_queueing_coefficient == 0.70
    ice = profile_by_name("icelake-like")
    assert ice.machine.smt_ways == 2
    # explicit path resolution
    by_path = profile_by_name(str(PROFILE_DIR / "sg2042-like.toml"))
    assert by_path == sg


def test_unknown_profile_lists_alternatives():
    with pytest.raises(ProfileError, match="sg2042-like"):
        profile_by_name("no-such-machine")


def test_profile_toml_errors_are_path_qualified(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text(
        'name = "bad"\n[machine]\nname = "bad"\narchitecture = "x"\n',
        encoding="utf-8",
    )
    with pytest.raises(ProfileError, match="bad.machine"):
        load_profile(bad)

    unknown_key = tmp_path / "unk.toml"
    source = (PROFILE_DIR / "sg2042-like.toml").read_text(encoding="utf-8")
    unknown_key.write_text(source + "\n[extra]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ProfileError, match="unknown top-level key"):
        load_profile(unknown_key)

    bad_contention = tmp_path / "cont.toml"
    bad_contention.write_text(
        source.replace("memory_queueing_coefficient", "memory_q"), encoding="utf-8"
    )
    with pytest.raises(ProfileError, match="memory_q"):
        load_profile(bad_contention)


@pytest.mark.parametrize(
    "line, value, path",
    [
        ("memory_latency_ns = 120.0", "nan", "sg2042-like.machine.memory_latency_ns"),
        (
            "memory_queueing_coefficient = 0.70",
            "inf",
            "sg2042-like.contention.memory_queueing_coefficient",
        ),
    ],
)
def test_profile_numbers_must_be_finite(line, value, path, tmp_path, capsys):
    """TOML's nan and inf are floats; a profile holding one is refused by
    name, and the CLI exits 2 with one line before calibrating anything."""
    from repro.cli import main

    source = (PROFILE_DIR / "sg2042-like.toml").read_text(encoding="utf-8")
    assert line in source
    bad = tmp_path / "bad.toml"
    bad.write_text(source.replace(line, f"{line.split(' = ')[0]} = {value}"), encoding="utf-8")
    with pytest.raises(ProfileError, match=f"^{path}: expected a finite number"):
        load_profile(bad)
    assert main(["calibrate", "--once", "--profile", str(bad), "--no-bench"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{path}: expected a finite number, got {value}"]


def test_profile_name_required():
    with pytest.raises(ProfileError):
        HardwareProfile(name="", machine=CASCADE_LAKE_5218)


def test_drift_event_validation():
    with pytest.raises(ValueError, match="driftable"):
        DriftEvent(start_seconds=0.1, path="machine.cores", scale=2.0)
    with pytest.raises(ValueError):
        DriftEvent(start_seconds=-1.0)
    with pytest.raises(ValueError):
        DriftEvent(start_seconds=0.0, scale=0.0)


def test_drift_injector_composes_multiplicatively():
    profile = default_profile()
    path = "contention.memory_queueing_coefficient"
    injector = DriftInjector(
        profile,
        (
            DriftEvent(start_seconds=0.2, path=path, scale=2.0),
            DriftEvent(start_seconds=0.1, path=path, scale=1.5),
        ),
    )
    # events sort by time regardless of construction order
    assert [e.start_seconds for e in injector.events] == [0.1, 0.2]
    assert get_param(injector.profile_at(0.0), path) == pytest.approx(0.55)
    assert get_param(injector.profile_at(0.15), path) == pytest.approx(0.55 * 1.5)
    assert get_param(injector.profile_at(0.3), path) == pytest.approx(0.55 * 3.0)
    assert injector.boundaries(0.0, 1.0) == [0.1, 0.2]
    assert injector.boundaries(0.1, 1.0) == [0.2]  # (start, end] excludes start
    assert not injector.drifted(0.05)
    assert injector.drifted(0.1)


def test_no_drift_injector_is_inert():
    injector = DriftInjector(default_profile(), ())
    assert injector.boundaries(0.0, 100.0) == []
    assert not injector.drifted(100.0)
    assert injector.profile_at(50.0) == default_profile()


def test_drift_injector_validates_paths_up_front():
    profile = default_profile()
    DriftInjector(profile, (DriftEvent(start_seconds=0.0, scale=1.1),))
    bogus = DriftEvent(start_seconds=0.0, path="contention.not_a_field", scale=1.1)
    with pytest.raises(ProfileError, match="not_a_field"):
        DriftInjector(profile, (bogus,))
