"""Scenario runners and artifact emission.

Each scenario maps a configured measurement plan onto the simulation
pipeline and packs the results into a RunArtifact.  A unit is one
channel at one storage time, one table row; every count pass
(``tomography_points``, ``efficiency_points``) walks its units in the tiles of
``_tiles``, at most ``tomography._SEED_BLOCK`` whole units each.
Every stochastic unit of work (a unit's counts, or one Monte Carlo resample)
draws from its own fresh RNG stream, numpy.random's PCG64 stream of the key
(seed, domain, unit key[, resample]) (``derive_rng`` checks the key parts,
``streams.poisson`` draws), and the pass scores each unit on its own, so a row
depends neither on evaluation order nor on the batch size: a scenario
restricted to a subset of its grid reproduces exactly the rows of the full run.

Unit keys use the channel's position in the configured channel list and
the storage time in integer picoseconds below 2**64 (``config._time_key``);
the domain constant separates count sampling, Monte Carlo resampling and
efficiency sampling.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import tomography
from .config import ScenarioConfig, _time_key, effective_config
from .detection import MEASUREMENT_BASES, expected_counts, expected_rates
from .errors import ConfigError, FitError
from .fitting import (
    DecayDataset,
    calibrate_static_gamma,
    channel_model,
    closed_form_fidelity,
    fit_exponential,
    fit_sigma_gamma,
)
from .memory import dephase, dephasing_factor, retrieval_efficiency, walk_off_r0
from .streams import poisson
from .tomography import DEFAULT_INPUT_LABELS, _input_set, _reconstruct, monte_carlo_error

FORMAT_VERSION = 1

#: Storage time (ms) at which the per-channel fidelity table is taken.
TABLE_TIME_MS = 0.005

#: Channel of fig4 and fig5 unless one is named.
FIGURE_CHANNEL = "S2"

#: Experiment cycle (Hz); it only turns pulse budgets into acquisition_s_per_* meta times.
REP_RATE_HZ = 20.0

#: Reference per-channel process fidelities (and one-sigma errors) for
#: the default seven-channel layout, used as default calibration targets
#: and as benchmarks in the acceptance suite.
DEFAULT_CALIBRATION_TARGETS = {
    "S0": 0.902,
    "S1": 0.903,
    "S2": 0.914,
    "S3": 0.906,
    "S4": 0.910,
    "S5": 0.891,
    "S6": 0.895,
}
CALIBRATION_TARGET_ERRORS = {
    "S0": 0.026,
    "S1": 0.010,
    "S2": 0.014,
    "S3": 0.023,
    "S4": 0.020,
    "S5": 0.018,
    "S6": 0.024,
}

_DOMAIN_TOMOGRAPHY = 1
_DOMAIN_RESAMPLE = 2
_DOMAIN_EFFICIENCY = 3


def derive_rng(seed: int, *key) -> np.ndarray:
    """The uint64 stream keys (..., L) (seed, *key) of broadcast integer or integer array parts
    in [0, 2**64); others, bools too, raise a ValueError.  ``streams.poisson`` draws from the
    fresh stream of each key."""
    parts = []
    for given in (seed, *key):
        part = np.array(given, dtype=object)  # exact: numpy would read [0, 2**63] as float64
        if not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < 2**64
            for v in part.flat
        ):
            raise ValueError(f"stream key parts must be integers in [0, 2**64), got {part}")
        parts.append(part.astype(np.uint64))
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


@dataclass
class RunArtifact:
    """One scenario's results: a table, its metadata and the config echo."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    config: dict
    meta: dict


def _unit_physics(cfg: ScenarioConfig, units: Sequence[tuple[str, float]]) -> tuple:
    """Channel indices, times, time keys and efficiencies of units; every time is keyed (so
    checked) first, in both count modes, then the efficiency runs per channel."""
    index = {ch.id: i for i, ch in enumerate(cfg.channels)}
    # An unknown id falls through to channel_index, which raises its ConfigError.
    idx = np.array([index[c] if c in index else cfg.channel_index(c) for c, _ in units], dtype=int)
    times = np.array([t for _, t in units], dtype=float)
    keys, efficiency = _time_key(times), np.empty(len(units))
    for i in set(idx.tolist()):
        at = idx == i
        efficiency[at] = retrieval_efficiency(cfg.channels[i].theta, times[at], cfg.memory)
    return idx, times, keys, efficiency


def _tiles(n: int):
    """Slices of at most ``tomography._SEED_BLOCK`` whole units, in order, that cover n units:
    a count pass holds one tile's arrays at a time, so none of them grows with the grid."""
    tile = tomography._SEED_BLOCK
    return (slice(k, k + tile) for k in range(0, n, tile))


def _unit_counts(cfg: ScenarioConfig, domain: int, idx, keys, rates) -> np.ndarray:
    """Counts of units' ``rates``: the means if ``keys`` is None, else each a Poisson draw
    from its unit's stream, keyed by the unit's channel index and time key."""
    counts = expected_counts(rates, cfg.pulses_per_setting)
    if keys is not None:
        counts[...] = poisson(derive_rng(cfg.seed, domain, idx, keys), counts)
    return counts


def tomography_points(
    cfg: ScenarioConfig,
    units: Sequence[tuple[str, float]],
    expected: bool = False,
) -> dict[str, list[float]]:
    """Lists "fidelity", its Monte Carlo error "sigma" and "model" of units (channel_id, t).

    The coherence factor and the model run once per channel.  Rates, counts, point estimates
    and ``monte_carlo_error`` run per ``_tiles`` tile.  Each unit draws its counts and
    resamples from its own streams, so its values depend neither on the other units nor on
    the tile.
    In expected-counts mode every sigma is exactly 0.
    """
    idx, times, keys, efficiency = _unit_physics(cfg, units)
    stokes = _input_set()[0]
    gamma, model, fidelity, sigma = np.zeros((4, len(units)))
    for i in sorted(set(idx.tolist())):
        at, channel = idx == i, cfg.channels[i]
        gamma[at] = dephasing_factor(times[at], channel, cfg.memory)
        params = channel_model(channel, cfg.memory, cfg.detection)
        model[at] = closed_form_fidelity(times[at], **params)
    for u in _tiles(len(units)):
        rates = expected_rates(dephase(stokes, gamma[u, None]), efficiency[u, None], cfg.detection)
        counts = _unit_counts(cfg, _DOMAIN_TOMOGRAPHY, idx[u], None if expected else keys[u], rates)
        fidelity[u] = _reconstruct(counts).process_fidelity
        if not expected:
            # Unit k's resample j is keyed (seed, 2, channel, t_ps, j).
            resample_keys = derive_rng(cfg.seed, _DOMAIN_RESAMPLE, idx[u], keys[u])
            sigma[u] = monte_carlo_error(counts, cfg.mc_resamples, resample_keys)
    return {"fidelity": fidelity.tolist(), "sigma": sigma.tolist(), "model": model.tolist()}


def tomography_point(
    cfg: ScenarioConfig,
    channel_id: str,
    t: float,
    expected: bool = False,
) -> dict:
    """One full-tomography unit: the ``tomography_points`` values of (channel_id, t)."""
    return {k: v[0] for k, v in tomography_points(cfg, [(channel_id, t)], expected).items()}


def efficiency_points(
    cfg: ScenarioConfig,
    units: Sequence[tuple[str, float]],
    expected: bool = False,
) -> dict[str, list[float]]:
    """Lists "efficiency_true", "counts", "efficiency_est" and "sigma" of units (channel_id, t).

    Counts sum both detectors and are drawn per ``_tiles`` tile; the estimate inverts
    counts = M (eta R + 2 N), and its one-sigma error is the Poisson plug-in
    sqrt(counts) / (M eta).
    """
    idx, _, keys, efficiency = _unit_physics(cfg, units)
    det, pulses = cfg.detection, cfg.pulses_per_setting
    eta = det.eta_total
    counts = np.empty(len(units))
    for u in _tiles(len(units)):
        rates = eta * efficiency[u] + 2.0 * det.background_n
        counts[u] = _unit_counts(
            cfg, _DOMAIN_EFFICIENCY, idx[u], None if expected else keys[u], rates
        )
    estimate = (counts / pulses - 2.0 * det.background_n) / eta
    sigma = np.sqrt(np.maximum(counts, 1.0)) / (pulses * eta)
    names = ("efficiency_true", "counts", "efficiency_est", "sigma")
    return {k: c.tolist() for k, c in zip(names, (efficiency, counts, estimate, sigma))}


def run_fig3(cfg: ScenarioConfig) -> RunArtifact:
    """Per-channel retrieval efficiency at the table storage time.

    Uses the walk-off profile directly (no per-angle measured overrides)
    so the emitted curve is the calibrated law itself; both circular
    polarization columns are equal by the polarization-independence of
    the efficiency model.
    """
    t = TABLE_TIME_MS
    decay = float(np.exp(-t / cfg.memory.tau))
    rows = []
    for ch in cfg.channels:
        eff = walk_off_r0(ch.theta, cfg.memory) * decay
        rows.append((ch.id, ch.theta, eff, eff))
    return RunArtifact(
        name="fig3",
        columns=("channel", "theta_deg", "efficiency_sigma_plus", "efficiency_sigma_minus"),
        rows=rows,
        config=effective_config(cfg),
        meta={"time_ms": t, "mode": "model"},
    )


def _artifact(
    name: str,
    columns: tuple[str, ...],
    rows: list[tuple],
    cfg: ScenarioConfig,
    expected_counts: bool,
    **meta,
) -> RunArtifact:
    """Artifact of a count-based runner: its own meta plus the pulses, mode and config echo."""
    meta.update(pulses=cfg.pulses_per_setting, mode="expected" if expected_counts else "sampled")
    return RunArtifact(name, columns, rows, effective_config(cfg), meta)


def _fit_or_error(fit: Callable[[], object]) -> dict:
    """``asdict`` of the report ``fit()`` returns, or {"error": message} if it fails."""
    try:
        return asdict(fit())
    except (FitError, ValueError) as exc:
        return {"error": str(exc)}


def run_fig4(
    cfg: ScenarioConfig,
    expected_counts: bool = False,
    channel_id: str = FIGURE_CHANNEL,
) -> RunArtifact:
    """Efficiency decay over the storage-time grid plus an exponential fit."""
    channel = cfg.channel(channel_id)
    points = efficiency_points(cfg, [(channel_id, t) for t in cfg.storage_times], expected_counts)
    rows = list(zip(cfg.storage_times, *points.values()))
    data = (cfg.storage_times, points["efficiency_est"], points["sigma"])
    return _artifact(
        "fig4",
        ("t_ms", "efficiency_model", "counts", "efficiency_est", "efficiency_sigma"),
        rows,
        cfg,
        expected_counts,
        channel=channel_id,
        theta_deg=channel.theta,
        model={"r0": retrieval_efficiency(channel.theta, 0.0, cfg.memory), "tau": cfg.memory.tau},
        acquisition_s_per_point=cfg.pulses_per_setting / REP_RATE_HZ,
        fit=_fit_or_error(lambda: fit_exponential(DecayDataset(*data))),
    )


def run_fig5(
    cfg: ScenarioConfig,
    expected_counts: bool = False,
    channel_id: str = FIGURE_CHANNEL,
) -> RunArtifact:
    """Process fidelity over the storage-time grid plus the dephasing fit.

    Rows carry the simulated point, its Monte Carlo error, the model
    curve and the residual against it.  The fit recovers the dephasing
    width with all other model parameters held at their configured
    values.
    """
    channel = cfg.channel(channel_id)
    points = tomography_points(cfg, [(channel_id, t) for t in cfg.storage_times], expected_counts)
    rows = [(t, f, s, m, f - m) for t, f, s, m in zip(cfg.storage_times, *points.values())]
    times, values, sigmas = map(np.array, (cfg.storage_times, points["fidelity"], points["sigma"]))

    def fit():
        dataset = DecayDataset(times, values, sigmas if np.all(sigmas > 0) else None)
        return fit_sigma_gamma(dataset, channel_model(channel, cfg.memory, cfg.detection))

    return _artifact(
        "fig5",
        ("t_ms", "fidelity", "fidelity_sigma", "model_fidelity", "residual"),
        rows,
        cfg,
        expected_counts,
        channel=channel_id,
        theta_deg=channel.theta,
        mc_resamples=cfg.mc_resamples,
        model={"sigma_gamma": cfg.memory.sigma_gamma},
        acquisition_s_per_setting=cfg.pulses_per_setting / REP_RATE_HZ,
        fit=_fit_or_error(fit),
    )


def run_table1(cfg: ScenarioConfig, expected_counts: bool = False) -> RunArtifact:
    """Per-channel process fidelity at the table storage time."""
    t = TABLE_TIME_MS
    settings = len(DEFAULT_INPUT_LABELS) * len(MEASUREMENT_BASES)
    points = tomography_points(cfg, [(ch.id, t) for ch in cfg.channels], expected_counts)
    rows = [(ch.id, ch.theta, f, s, m) for ch, f, s, m in zip(cfg.channels, *points.values())]
    return _artifact(
        "table1",
        ("channel", "theta_deg", "fidelity", "fidelity_sigma", "model_fidelity"),
        rows,
        cfg,
        expected_counts,
        time_ms=t,
        mc_resamples=cfg.mc_resamples,
        acquisition_s_per_channel=settings * cfg.pulses_per_setting / REP_RATE_HZ,
    )


def run_simulate(cfg: ScenarioConfig, expected_counts: bool = False) -> RunArtifact:
    """Custom scenario: full tomography over every channel and storage time."""
    grid = [(ch, t) for ch in cfg.channels for t in cfg.storage_times]
    points = tomography_points(cfg, [(ch.id, t) for ch, t in grid], expected_counts)
    rows = [(ch.id, ch.theta, t, f, s, m) for (ch, t), f, s, m in zip(grid, *points.values())]
    return _artifact(
        "simulate",
        ("channel", "theta_deg", "t_ms", "fidelity", "fidelity_sigma", "model_fidelity"),
        rows,
        cfg,
        expected_counts,
        mc_resamples=cfg.mc_resamples,
    )


def calibrate_table(cfg: ScenarioConfig, targets: dict[str, float] | None = None) -> dict:
    """Static coherence factors that hit the target fidelities at the table time.

    Returns a config fragment {"memory": {"static_gamma": {...}}} ready
    to merge into a scenario file.
    """
    if targets is None:
        targets = {
            ch.id: DEFAULT_CALIBRATION_TARGETS[ch.id]
            for ch in cfg.channels
            if ch.id in DEFAULT_CALIBRATION_TARGETS
        }
        if not targets:
            raise ConfigError(
                "no default calibration targets match the configured channels; "
                "supply explicit targets"
            )
    gammas = {}
    for channel_id in sorted(targets):
        model = channel_model(cfg.channel(channel_id), cfg.memory, cfg.detection)
        gammas[channel_id] = calibrate_static_gamma(targets[channel_id], TABLE_TIME_MS, model)
    return {"memory": {"static_gamma": gammas}}


#: ``writerow`` returns what ``write`` returns: here the CSV line of the fields, quoted.
_CSV_LINE = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
_JSON_CELL = json.JSONEncoder(allow_nan=False).encode


def _csv_cells(cells, width: int) -> list[str]:
    """CSV fields of ``cells`` as ``csv.writer`` writes them in a row ``width`` fields wide."""
    # isinstance, not type() is float: np.float64 subclasses float.
    texts = [f"{v:.9g}" if isinstance(v, float) else str(v) for v in cells]
    if all(texts) and frozenset(',"\r\n').isdisjoint("".join(texts)):
        return texts  # no field to quote
    # An empty field alone in its row is written as "", among others as nothing.
    pad = () if width == 1 else ("",)
    return [_CSV_LINE((text, *pad))[: -1 - len(pad)] for text in texts]


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of encoded items as indent=2 lays it out at ``indent``."""
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]" if items else "[]"


#: Per format: the spec of a column of floats, the encoder of other cells
#: (``encode(cells, row_width)``), and the template of a row from its specs
#: and of the table from its row templates.
_LAYOUTS = {
    "csv": ("%.9g", _csv_cells, lambda specs: ",".join(specs) + "\n", "".join),
    "json": (
        "%r",
        lambda cells, width: map(_JSON_CELL, cells),
        lambda specs: _json_list(specs, "    "),
        lambda rows: _json_list(rows, "  "),
    ),
}


def _render(rows: list, width: int, fmt: str) -> str:
    """The text of ``rows``, ``width`` cells each, in ``fmt``: one ``%`` template (see ``emit``)."""
    spec, encode, join_row, join_table = _LAYOUTS[fmt]
    cells = list(chain.from_iterable(rows))
    specs = [spec] * width
    for j in range(width):
        column = cells[j::width]
        # A sum is finite only if every term is (one that overflows sends the
        # column to the encoder, which writes the same text).
        if set(map(type, column)) != {float} or not math.isfinite(sum(column)):
            specs[j] = "%s"
            cells[j::width] = encode(column, width)
    # The list goes before the text is made: emit holds one text while it renders the next.
    template, cells = join_table([join_row(specs)] * len(rows)), tuple(cells)
    return template % cells


def _json_text(obj) -> str:
    """``obj`` as JSON with sorted keys and a two-space indent; a non-finite float raises."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _write_files(out_dir: str, texts: dict[str, str]) -> list[str]:
    """Write each text to its file name under out_dir, all or nothing; the paths written.

    Creates out_dir and writes every text, as is, to a temporary
    ``<file>.<pid>.tmp`` beside its target.  Only then, and only if no
    target exists as anything but a regular file, is each renamed into
    place.  On any error every temporary file is removed and no file is
    replaced.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {out_dir}: {exc}") from None
    paths, tmp = [os.path.join(out_dir, name) for name in texts], f".{os.getpid()}.tmp"
    try:
        for path, text in zip(paths, texts.values()):
            with open(path + tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path in paths:
            if os.path.exists(path) and not os.path.isfile(path):
                raise OSError(f"{path} is not a regular file")
        for path in paths:
            os.replace(path + tmp, path)
    except OSError as exc:
        raise IOError(f"cannot write artifact under {out_dir}: {exc}") from None
    finally:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + tmp)
    return paths


def emit(
    artifact: RunArtifact,
    out_dir: str,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[str]:
    """Write the artifact table and the scenario echo under out_dir.

    CSV cells carry 9 significant digits; the JSON artifact keeps full
    binary precision and a format_version.  Nothing written depends on
    wall-clock time, so equal (config, seed) runs produce byte-identical
    files.  Each row must hold one cell per column.  Every text is built
    before any file or directory is touched (a misfit row, or a cell JSON
    cannot hold, raises a ValueError), then the set is written all or
    nothing (``_write_files``).

    Both formats write their rows through one renderer (``_render``): a
    single ``%`` template, applied once to the flattened cells.  A column
    of finite floats of exact type float is formatted by the template
    (``%.9g`` in CSV, ``%r``, the float's repr, in JSON).  Every other
    column is encoded cell by cell: ``.9g`` or ``str`` and csv's quoting,
    or the JSON encoder.  The bytes are those ``csv.writer`` and
    ``json.dumps(indent=2)`` write.
    """
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
    name, rows, width = artifact.name, artifact.rows, len(artifact.columns)
    misfits = set(map(len, rows)) - {width}
    if misfits:
        raise ValueError(f"artifact {name!r}: rows of {sorted(misfits)} cells, not {width}")
    texts = {}
    if "csv" in formats:
        texts[f"{name}.csv"] = _CSV_LINE(artifact.columns) + _render(rows, width, "csv")
    if "json" in formats:
        head = {
            "format_version": FORMAT_VERSION,
            "name": name,
            "columns": list(artifact.columns),
            "meta": artifact.meta,
            "config": artifact.config,
        }
        # "rows" sorts last: it goes in after the other keys, before the closing brace.
        text = f'{_json_text(head)[:-2]},\n  "rows": {_render(rows, width, "json")}\n}}\n'
        texts[f"{name}.json"] = text
    else:
        # The JSON artifact embeds the scenario echo; a CSV-only run
        # still needs the echo on disk to be self-describing.
        texts[f"{name}.config.json"] = _json_text(artifact.config) + "\n"
    return _write_files(out_dir, texts)
