"""Scenario configuration: JSON loading, validation and echo.

A scenario bundles the physics (memory, detection), the channel list,
the measurement plan (storage times and pulses per setting; the input
states are the fixed H, V, D, R quartet of ``tomography``) and the run
controls (seed, resample count, output dir).  The dataclasses are the
only description of the document: the loader (``_build``) and the echo
(``_echo``) both walk their fields.  Loading is strict and checks as it
builds: unknown keys, missing keys of fields without a default (a
channel's id and theta), wrong types and out-of-range values fail with
their full field path, so a typo in a config file fails loudly instead
of silently running defaults.  Every other missing key takes its
default.

``effective_config`` echoes every parameter a run will actually use,
defaults included, so an emitted artifact is self-describing and the
echo loads back as the same config.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .detection import MAX_PULSES, DetectionConfig
from .errors import ConfigError
from .memory import DEFAULT_CHANNELS, ChannelSpec, MemoryConfig

DEFAULT_SEED = 12345
DEFAULT_PULSES = 100_000
DEFAULT_RESAMPLES = 500
#: Largest mc_resamples: a float per unit and resample; keys live a block (tomography._SEED_BLOCK).
MAX_RESAMPLES = 1_000_000
#: Storage-time grid (ms): dense enough for decay fits, includes the
#: 5 us table point and the 6 ms endpoint.
DEFAULT_STORAGE_TIMES = (
    0.005, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0,
)

_PS_PER_MS = 1e9


def _time_key(t_ms) -> np.ndarray:
    """uint64 RNG stream keys of storage times (ms): integer picoseconds, so the same
    physical time yields the same stream regardless of grid layout.  A time is valid
    only if it is >= 0 and its key is below 2**64 (t < ~1.84e10 ms), else ValueError."""
    t = np.asarray(t_ms, dtype=float)
    with np.errstate(over="ignore"):  # past ~1.8e299 ms the key is inf, refused below
        ps = np.rint(t * _PS_PER_MS)
    bad = ~((t >= 0.0) & (ps < 2.0**64))
    if bad.any():
        raise ValueError(f"storage_times must be in [0, 2**64) picoseconds, got {t[bad][0]} ms")
    return ps.astype(np.uint64)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a reproducible run needs.

    Every key of ``memory.static_gamma`` must name a configured channel.
    """

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    channels: tuple[ChannelSpec, ...] = DEFAULT_CHANNELS
    storage_times: tuple[float, ...] = DEFAULT_STORAGE_TIMES
    pulses_per_setting: int = DEFAULT_PULSES
    mc_resamples: int = DEFAULT_RESAMPLES
    seed: int = DEFAULT_SEED
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("channels must not be empty")
        ids = [ch.id for ch in self.channels]
        if len(set(ids)) != len(ids):
            raise ValueError("channel ids must be unique")
        if not self.storage_times:
            raise ValueError("storage_times must not be empty")
        keys = _time_key(self.storage_times)
        if len(set(keys.tolist())) != len(keys):
            raise ValueError("storage_times must be unique to the picosecond")
        if not 1 <= self.pulses_per_setting <= MAX_PULSES:
            raise ValueError(
                f"pulses_per_setting must be in [1, {MAX_PULSES}], "
                f"got {self.pulses_per_setting}"
            )
        if not 2 <= self.mc_resamples <= MAX_RESAMPLES:
            raise ValueError(
                f"mc_resamples must be in [2, {MAX_RESAMPLES}], got {self.mc_resamples}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for key in self.memory.static_gamma:
            if key not in ids:
                raise ValueError(
                    f"memory.static_gamma.{key}: names no channel (configured: {', '.join(ids)})"
                )

    def channel(self, channel_id: str) -> ChannelSpec:
        return self.channels[self.channel_index(channel_id)]

    def channel_index(self, channel_id: str) -> int:
        for i, ch in enumerate(self.channels):
            if ch.id == channel_id:
                return i
        known = ", ".join(ch.id for ch in self.channels)
        raise ConfigError(f"unknown channel {channel_id!r} (configured: {known})")


def _fields(cls) -> dict:
    """Field name -> resolved type hint of a config dataclass, in order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _check_leaf(path: str, value, hint):
    """JSON ``value`` as a leaf of type ``hint``: int, float or str."""
    # A bool is never a number; a float field stores a finite float.
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected {hint.__name__}, got bool")
    if hint is float:
        if not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # an integer too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number")
    elif not isinstance(value, hint):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {type(value).__name__}")
    return value


def _build(hint, data, path: str):
    """Value of type ``hint`` from parsed JSON ``data``, checked as it is built.

    Dataclasses and dicts read JSON objects, tuples read lists; the first
    error in document order is raised as a ConfigError naming its path.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        if not isinstance(data, list):
            raise ConfigError(f"{path}: expected a list")
        return tuple(_build(args[0], item, f"{path}[{i}]") for i, item in enumerate(data))
    if not (is_dataclass(hint) or origin is dict):
        return _check_leaf(path, data, hint)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    if origin is dict:
        return {key: _build(args[1], value, f"{path}.{key}") for key, value in data.items()}
    hints = _fields(hint)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown key {_join(path, key)}")
        kwargs[key] = _build(hints[key], value, _join(path, key))
    for f in fields(hint):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {_join(path, f.name)}")
    try:
        return hint(**kwargs)
    except ValueError as exc:
        raise ConfigError(_join(path, str(exc))) from None


def config_from_dict(data: dict) -> ScenarioConfig:
    """Check a parsed config mapping and build a ScenarioConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _build(ScenarioConfig, data, "")


def _read_json(path: str, what: str):
    """The JSON value in the file at ``path``, the ``what`` of a run: an unreadable file raises
    IOError (exit 4), malformed JSON or text that is not UTF-8 a ConfigError (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a JSON scenario config file."""
    return config_from_dict(_read_json(path, "config"))


def _echo(value):
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_echo(item) for item in value]
    if isinstance(value, dict):
        return {k: _echo(v) for k, v in sorted(value.items())}
    return value


def effective_config(cfg: ScenarioConfig) -> dict:
    """Full parameter echo of a scenario, defaults included."""
    return _echo(cfg)
