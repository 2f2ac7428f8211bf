import json

import pytest

from qmemsim.config import (
    CONFIG_SCHEMA,
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


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/scenario.json")


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
    "text, path",
    [
        ('{"memory": {"tau": NaN}}', "memory.tau"),
        ('{"memory": {"sigma_gamma": Infinity}}', "memory.sigma_gamma"),
        ('{"storage_times": [1.0, -Infinity]}', r"storage_times\[1\]"),
        ('{"memory": {"static_gamma": {"S2": NaN}}}', "memory.static_gamma.S2"),
        ('{"memory": {"r0_overrides": {"nan": 0.1}}}', "memory.r0_overrides"),
        ('{"rep_rate_hz": 1%s}' % ("0" * 400), "rep_rate_hz"),
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


def test_eta_total_null_falls_back_to_chain():
    cfg = config_from_dict({"detection": {"eta_total": None}})
    assert cfg.detection.eta_total is None


def test_channels_parsing_and_validation():
    cfg = config_from_dict(
        {"channels": [{"id": "A", "theta": 0.0}, {"id": "B", "theta": 2.5}]}
    )
    assert [ch.id for ch in cfg.channels] == ["A", "B"]
    with pytest.raises(ConfigError, match=r"channels\[1\]"):
        config_from_dict({"channels": [{"id": "A", "theta": 0.0}, {"id": "B"}]})
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


def test_input_states_validation():
    with pytest.raises(ConfigError, match="input_states"):
        config_from_dict({"input_states": ["H", "V", "D", "X"]})


def test_r0_overrides_string_keys_parse_as_angles():
    cfg = config_from_dict({"memory": {"r0_overrides": {"1.5": 0.11}}})
    assert cfg.memory.r0_overrides == {1.5: 0.11}
    for key in ("a", "8", "-1", "inf", "1e400"):
        with pytest.raises(ConfigError, match="memory.r0_overrides"):
            config_from_dict({"memory": {"r0_overrides": {key: 0.11}}})


def test_static_gamma_entries_validated():
    with pytest.raises(ConfigError, match="static_gamma"):
        config_from_dict({"memory": {"static_gamma": {"S0": 1.5}}})


def _audit(schema, data, path=""):
    if isinstance(schema, dict):
        if "*" in schema:
            assert isinstance(data, dict), path
            return
        assert isinstance(data, dict), path
        assert set(schema) == set(data), f"{path}: {sorted(set(schema) ^ set(data))}"
        for key in schema:
            _audit(schema[key], data[key], f"{path}.{key}" if path else key)
    elif isinstance(schema, list):
        assert isinstance(data, list), path
        for i, item in enumerate(data):
            _audit(schema[0], item, f"{path}[{i}]")
    elif schema == "nullable_float":
        assert data is None or isinstance(data, (int, float)), path
    elif schema is float:
        assert isinstance(data, (int, float)), path
    else:
        assert isinstance(data, schema), path


def test_effective_config_covers_schema_exactly():
    # Closure audit: every constant the simulation uses appears in the
    # echo, and the echo has no key outside the documented schema.
    _audit(CONFIG_SCHEMA, effective_config(ScenarioConfig()))


def _non_default(schema, value):
    # Every leaf of the default echo moved to another valid value: lists
    # reversed, numbers halved (0 becomes 0.5), ints incremented, strings
    # reversed, nullable floats nulled and maps replaced.
    if isinstance(schema, dict) and "*" in schema:
        return {"1.5": 0.5}
    if isinstance(schema, dict):
        return {key: _non_default(schema[key], value[key]) for key in schema}
    if isinstance(schema, list):
        return [_non_default(schema[0], item) for item in reversed(value)]
    if schema == "nullable_float":
        return None
    if schema is float:
        return value / 2 if value else 0.5
    if schema is int:
        return value + 1
    return value[::-1]


def _leaves(schema, data, path=""):
    if isinstance(schema, dict) and "*" not in schema:
        for key in schema:
            yield from _leaves(schema[key], data[key], f"{path}.{key}")
    elif isinstance(schema, list):
        for i, item in enumerate(data):
            yield from _leaves(schema[0], item, f"{path}[{i}]")
    else:
        yield path, data


def test_effective_config_round_trips():
    cfg = ScenarioConfig()
    assert config_from_dict(effective_config(cfg)) == cfg
    custom = config_from_dict(
        {
            "seed": 99,
            "pulses_per_setting": 5000,
            "memory": {
                "static_gamma": {"S2": 0.9},
                "r0_overrides": {"0.8": 0.13, "0.1234567": 0.12},
            },
            "detection": {"eta_total": None},
            "storage_times": [0.005, 1.0],
        }
    )
    assert config_from_dict(effective_config(custom)) == custom

    default = effective_config(ScenarioConfig())
    every_leaf = config_from_dict(_non_default(CONFIG_SCHEMA, default))
    echo = effective_config(every_leaf)
    for (path, old), (_, new) in zip(
        _leaves(CONFIG_SCHEMA, default), _leaves(CONFIG_SCHEMA, echo), strict=True
    ):
        assert old != new, path
    assert config_from_dict(echo) == every_leaf


def test_channel_lookup():
    cfg = ScenarioConfig()
    assert cfg.channel("S3").theta == 2.0
    assert cfg.channel_index("S6") == 6
    with pytest.raises(ConfigError, match=r"unknown channel 'S9' \(configured: S0, "):
        cfg.channel("S9")
    with pytest.raises(ConfigError, match="unknown channel 'S9'"):
        cfg.channel_index("S9")
