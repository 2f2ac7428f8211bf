import json
import math
from dataclasses import fields, is_dataclass

import pytest

from qmemsim import config
from qmemsim.config import (
    ScenarioConfig,
    config_from_dict,
    effective_config,
    load_config,
)
from qmemsim.errors import ConfigError


def test_empty_config_is_the_default_scenario():
    cfg = config_from_dict({})
    assert cfg == ScenarioConfig()
    assert [ch.id for ch in cfg.channels] == [f"S{i}" for i in range(7)]
    assert cfg.memory.tau == 2.9
    assert cfg.memory.sigma_gamma == 104.0
    assert cfg.detection.background_n == 7e-4
    assert cfg.seed == 12345


def test_load_config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 7, "memory": {"tau": 3.1}}))
    cfg = load_config(str(path))
    assert cfg.seed == 7
    assert cfg.memory.tau == 3.1
    # untouched sections keep their defaults
    assert cfg.detection.eta_total == 0.23


def test_missing_file_is_io_error(tmp_path):
    # An unreadable file is an I/O error (exit 4), a directory too; what it holds is config.
    for path in (tmp_path / "absent.json", tmp_path):
        with pytest.raises(IOError, match=f"^cannot read config {path}: "):
            load_config(str(path))


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown key memory.taus"):
        config_from_dict({"memory": {"taus": 1.0}})
    with pytest.raises(ConfigError, match="unknown key taus"):
        config_from_dict({"taus": 1.0})
    # Metadata keys that no computation read are gone from the schema.
    for section, key in (
        ("memory", "r0_ch2"),
        ("memory", "b0"),
        ("memory", "gradient"),
        ("memory", "sigma_b"),
        (None, "cycle_ms"),
    ):
        data = {key: 1.0} if section is None else {section: {key: 1.0}}
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=f"unknown key {path}$"):
            config_from_dict(data)


def test_invariant_violation_names_the_field():
    with pytest.raises(ConfigError, match="memory.tau must be > 0"):
        config_from_dict({"memory": {"tau": -1.0}})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"memory": 3}, "memory: expected an object"),
        ({"channels": {}}, "channels: expected a list"),
        ({"storage_times": 1.0}, "storage_times: expected a list"),
        ({"memory": {"static_gamma": []}}, "memory.static_gamma: expected an object"),
        ({"channels": [3]}, r"channels\[0\]: expected an object"),
    ],
)
def test_structural_error_names_the_path(data, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(data)


def test_first_error_in_document_order_wins():
    with pytest.raises(ConfigError, match=r"^detection.background_n must be >= 0, got -1.0$"):
        config_from_dict({"detection": {"background_n": -1}, "memory": {"tau": "x"}})


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"memory": {"tau": NaN}}', "memory.tau"),
        ('{"memory": {"sigma_gamma": Infinity}}', "memory.sigma_gamma"),
        ('{"storage_times": [1.0, -Infinity]}', r"storage_times\[1\]"),
        ('{"memory": {"static_gamma": {"S2": NaN}}}', "memory.static_gamma.S2"),
        ('{"memory": {"tau": 1%s}}' % ("0" * 400), "memory.tau"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, text, path):
    # json.load accepts NaN and Infinity literals; the loader must not.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=f"{path}.*finite"):
        load_config(str(cfg))


def test_mc_resamples_range():
    assert config_from_dict({"mc_resamples": 1_000_000}).mc_resamples == 1_000_000
    for value in (1, 1_000_001):
        with pytest.raises(ConfigError, match=r"mc_resamples must be in \[2, 1000000\]"):
            config_from_dict({"mc_resamples": value})


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match="memory.tau"):
        config_from_dict({"memory": {"tau": True}})


def test_seed_must_be_integer():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": "abc"})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": 2**64})


def test_channels_parsing_and_validation():
    cfg = config_from_dict(
        {"channels": [{"id": "A", "theta": 0.0}, {"id": "B", "theta": 2.5}]}
    )
    assert [ch.id for ch in cfg.channels] == ["A", "B"]
    with pytest.raises(ConfigError, match=r"^missing key channels\[1\]\.theta$"):
        config_from_dict({"channels": [{"id": "A", "theta": 0.0}, {"id": "B"}]})
    with pytest.raises(ConfigError, match=r"^missing key channels\[0\]\.id$"):
        config_from_dict({"channels": [{"theta": 0.0}]})
    with pytest.raises(ConfigError, match="unique"):
        config_from_dict(
            {"channels": [{"id": "A", "theta": 0.0}, {"id": "A", "theta": 1.0}]}
        )


def test_storage_times_validation():
    with pytest.raises(ConfigError, match="storage_times"):
        config_from_dict({"storage_times": [-0.1]})
    with pytest.raises(ConfigError, match="storage_times"):
        config_from_dict({"storage_times": []})
    with pytest.raises(ConfigError, match="storage_times.*picoseconds"):
        config_from_dict({"storage_times": [1e300]})
    with pytest.raises(ConfigError, match="storage_times must be unique"):
        config_from_dict({"storage_times": [1.0, 1.0, 2.0]})
    # Distinct floats that key one RNG stream (integer picoseconds).
    with pytest.raises(ConfigError, match="storage_times must be unique"):
        config_from_dict({"storage_times": [1.0, 1.0000000004]})


def test_storage_times_key_below_2_to_the_64_picoseconds():
    # Each time keys a uint64 RNG stream: its key, t * 1e9 rounded, must be below 2**64.
    largest = 18446744073.70955
    assert config_from_dict({"storage_times": [0.0, largest]}).storage_times == (0.0, largest)
    with pytest.raises(ConfigError, match=r"^storage_times must be in \[0, 2\*\*64\) picoseconds"):
        config_from_dict({"storage_times": [0.5, math.nextafter(largest, math.inf)]})


def test_static_gamma_entries_validated():
    # The same path spelling as a NaN entry's or an unknown id's error.
    with pytest.raises(
        ConfigError, match=r"^memory\.static_gamma\.S0: must be in \[0, 1\], got 1\.5$"
    ):
        config_from_dict({"memory": {"static_gamma": {"S0": 1.5}}})


def test_static_gamma_key_must_name_a_configured_channel():
    # A mistyped id would otherwise leave its channel at gamma0 = 1.
    data = {"channels": [{"id": "S2", "theta": 0.8}], "memory": {"static_gamma": {"s2": 0.5}}}
    with pytest.raises(
        ConfigError, match=r"^memory\.static_gamma\.s2: names no channel \(configured: S2\)$"
    ):
        config_from_dict(data)
    data["memory"]["static_gamma"] = {"S2": 0.5}
    assert config_from_dict(data).memory.static_gamma == {"S2": 0.5}


#: The one map of the echo; the every-leaf round trip replaces it whole.
_MAPS = ("memory.static_gamma",)


def _join(path, key):
    return f"{path}.{key}" if path else key


def _non_default(value, path=""):
    # Every leaf of the default echo moved to another valid value: lists
    # reversed, floats halved (0 becomes 0.5), ints incremented, strings
    # reversed and maps replaced by one entry for a (reversed) channel id.
    if path in _MAPS:
        return {"6S": 0.5}
    if isinstance(value, dict):
        return {key: _non_default(item, _join(path, key)) for key, item in value.items()}
    if isinstance(value, list):
        return [_non_default(item) for item in reversed(value)]
    if isinstance(value, float):
        return value / 2 if value else 0.5
    if isinstance(value, int):
        return value + 1
    return value[::-1]


def _same_fields(a, b, path=""):
    # Paths of the dataclass fields where two configs agree; tuples are
    # compared item by item, maps whole.
    if is_dataclass(a):
        for f in fields(a):
            yield from _same_fields(getattr(a, f.name), getattr(b, f.name), _join(path, f.name))
    elif isinstance(a, tuple):
        for i, (x, y) in enumerate(zip(a, b, strict=True)):
            yield from _same_fields(x, y, f"{path}[{i}]")
    elif a == b:
        yield path


def test_effective_config_round_trips():
    cfg = ScenarioConfig()
    assert config_from_dict(effective_config(cfg)) == cfg
    custom = config_from_dict(
        {
            "seed": 99,
            "pulses_per_setting": 5000,
            "memory": {"static_gamma": {"S2": 0.9, "S0": 0.8}},
            "storage_times": [0.005, 1.0],
        }
    )
    assert config_from_dict(effective_config(custom)) == custom
    # A number given for a float field is stored and echoed as a float.
    int_tau = config_from_dict({"memory": {"tau": 3}})
    assert json.dumps(effective_config(int_tau)["memory"]["tau"]) == "3.0"
    assert config_from_dict(effective_config(int_tau)) == int_tau

    # Moving every leaf of the default echo moves every field: a field
    # missing from the echo would stay at its default.
    every_leaf = config_from_dict(_non_default(effective_config(cfg)))
    assert list(_same_fields(cfg, every_leaf)) == []
    assert config_from_dict(effective_config(every_leaf)) == every_leaf


def test_type_hints_are_resolved_once_per_class(tmp_path, monkeypatch):
    # Resolving a dataclass's hints evaluates its string annotations again:
    # loading the full default echo builds ten dataclasses of four classes.
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(effective_config(ScenarioConfig())))
    calls, resolve = [], config.get_type_hints
    monkeypatch.setattr(config, "get_type_hints", lambda cls: calls.append(cls) or resolve(cls))
    config._fields.cache_clear()
    try:
        assert load_config(str(path)) == load_config(str(path)) == ScenarioConfig()
    finally:
        config._fields.cache_clear()
    names = ["ChannelSpec", "DetectionConfig", "MemoryConfig", "ScenarioConfig"]
    assert sorted(cls.__name__ for cls in calls) == names


def test_channel_lookup():
    cfg = ScenarioConfig()
    assert cfg.channel("S3").theta == 2.0
    assert cfg.channel_index("S6") == 6
    with pytest.raises(ConfigError, match=r"unknown channel 'S9' \(configured: S0, "):
        cfg.channel("S9")
    with pytest.raises(ConfigError, match="unknown channel 'S9'"):
        cfg.channel_index("S9")
