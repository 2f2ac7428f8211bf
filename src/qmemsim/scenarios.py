"""Scenario runners and artifact emission.

Each scenario maps a configured measurement plan onto the simulation
pipeline and packs the results into a RunArtifact.  A unit is one
channel at one storage time, one row of a tomography table; a scenario
runs all its units in one batched pass (``tomography_points``).  Every
stochastic unit of work (a unit's counts, or one Monte Carlo resample)
derives its own RNG stream from (seed, domain, unit key), and the pass
scores each unit on its own, so a row depends neither on evaluation
order nor on the batch size: a scenario restricted to a subset of its
grid reproduces exactly the rows of the full run.

Unit keys use the channel's position in the configured channel list and
the storage time in integer picoseconds; the domain constant separates
count sampling, Monte Carlo resampling and efficiency sampling.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .config import ScenarioConfig, _time_key, effective_config
from .detection import effective_detection_efficiency, expected_counts
from .errors import ConfigError, FitError
from .fitting import (
    DecayDataset,
    calibrate_static_gamma,
    channel_model,
    closed_form_fidelity,
    fit_exponential,
    fit_sigma_gamma,
)
from .memory import retrieval_efficiency, walk_off_r0
from .tomography import _input_set, _rates, _reconstruct, monte_carlo_error

FORMAT_VERSION = 1

#: Storage time (ms) at which the per-channel fidelity table is taken.
TABLE_TIME_MS = 0.005

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


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic stream for one unit of work."""
    # The stream default_rng(SeedSequence(...)) gives, without its dispatch.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, *key))))


@dataclass
class RunArtifact:
    """One scenario's results: a table, its metadata and the config echo."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    config: dict
    meta: dict


def tomography_points(
    cfg: ScenarioConfig,
    units: Sequence[tuple[str, float]],
    expected: bool = False,
) -> dict[str, list[float]]:
    """Lists "fidelity", its Monte Carlo error "sigma" and "model" of units (channel_id, t).

    The forward model and the reconstruction run once over the stack of
    all units, the model once per channel.  Each unit draws its counts
    and resamples from its own streams, so its values do not depend on
    the other units.  In expected-counts mode every sigma is exactly 0.
    """
    idx = np.array([cfg.channel_index(channel_id) for channel_id, _ in units], dtype=int)
    try:
        _input_set(cfg.input_states)
    except ValueError as exc:
        raise ConfigError(f"input_states for tomography scenarios: {exc}") from None
    times = np.array([t for _, t in units], dtype=float)
    specs = [(cfg.channels[i], t) for i, t in zip(idx.tolist(), times.tolist())]
    rates = _rates(specs, cfg.memory, cfg.detection, cfg.input_states)
    counts = expected_counts(rates, cfg.pulses_per_setting)
    del specs, rates  # the kernel below holds the largest arrays of the pass
    keys = [] if expected else [(i, _time_key(t)) for i, t in zip(idx.tolist(), times.tolist())]
    for k, key in enumerate(keys):  # each unit's means are replaced by its own draw
        counts[k] = derive_rng(cfg.seed, _DOMAIN_TOMOGRAPHY, *key).poisson(counts[k])
    fidelity = _reconstruct(counts, cfg.input_states).process_fidelity
    model, sigma = np.empty(len(units)), np.zeros(len(units))
    for i in sorted(set(idx.tolist())):
        params = channel_model(cfg.channels[i], cfg.memory, cfg.detection)
        model[idx == i] = closed_form_fidelity(times[idx == i], **params)
    for k, key in enumerate(keys):
        stream_for = functools.partial(derive_rng, cfg.seed, _DOMAIN_RESAMPLE, *key)
        sigma[k] = monte_carlo_error(counts[k], cfg.mc_resamples, stream_for, cfg.input_states)
    return {"fidelity": fidelity.tolist(), "sigma": sigma.tolist(), "model": model.tolist()}


def tomography_point(
    cfg: ScenarioConfig,
    channel_id: str,
    t: float,
    expected: bool = False,
) -> dict:
    """One full-tomography unit: the ``tomography_points`` values of (channel_id, t)."""
    return {k: v[0] for k, v in tomography_points(cfg, [(channel_id, t)], expected).items()}


def efficiency_point(
    cfg: ScenarioConfig,
    channel_id: str,
    t: float,
    expected: bool = False,
) -> dict:
    """One efficiency-decay unit: total counts over both detectors.

    The estimator inverts counts = M (n_bar eta R + 2 N); its one-sigma
    error is the Poisson plug-in sqrt(counts) / (M n_bar eta).
    """
    idx = cfg.channel_index(channel_id)
    channel = cfg.channels[idx]
    det = cfg.detection
    eta = effective_detection_efficiency(det)
    r_true = retrieval_efficiency(channel.theta, t, cfg.memory)
    mu_total = det.n_bar * eta * r_true + 2.0 * det.background_n
    pulses = cfg.pulses_per_setting
    if expected:
        counts = pulses * mu_total
    else:
        rng = derive_rng(cfg.seed, _DOMAIN_EFFICIENCY, idx, _time_key(t))
        counts = float(rng.poisson(pulses * mu_total))
    r_est = (counts / pulses - 2.0 * det.background_n) / (det.n_bar * eta)
    sigma = np.sqrt(max(counts, 1.0)) / (pulses * det.n_bar * eta)
    return {
        "efficiency_true": r_true,
        "counts": counts,
        "efficiency_est": r_est,
        "sigma": float(sigma),
    }


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


def run_fig4(
    cfg: ScenarioConfig,
    expected_counts: bool = False,
    channel_id: str = "S2",
) -> RunArtifact:
    """Efficiency decay over the storage-time grid plus an exponential fit."""
    channel = cfg.channel(channel_id)
    rows = []
    for t in cfg.storage_times:
        point = efficiency_point(cfg, channel_id, t, expected_counts)
        rows.append(
            (
                t,
                point["efficiency_true"],
                point["counts"],
                point["efficiency_est"],
                point["sigma"],
            )
        )
    meta = {
        "channel": channel_id,
        "theta_deg": channel.theta,
        "pulses": cfg.pulses_per_setting,
        "mode": "expected" if expected_counts else "sampled",
        "model": {
            "r0": retrieval_efficiency(channel.theta, 0.0, cfg.memory),
            "tau": cfg.memory.tau,
        },
        "acquisition_s_per_point": cfg.pulses_per_setting / cfg.rep_rate_hz,
    }
    try:
        dataset = DecayDataset(
            times=np.array([r[0] for r in rows]),
            values=np.array([r[3] for r in rows]),
            sigmas=np.array([r[4] for r in rows]),
        )
        meta["fit"] = asdict(fit_exponential(dataset))
    except (FitError, ValueError) as exc:
        meta["fit"] = {"error": str(exc)}
    return RunArtifact(
        name="fig4",
        columns=("t_ms", "efficiency_model", "counts", "efficiency_est", "efficiency_sigma"),
        rows=rows,
        config=effective_config(cfg),
        meta=meta,
    )


def run_fig5(
    cfg: ScenarioConfig,
    expected_counts: bool = False,
    channel_id: str = "S2",
) -> RunArtifact:
    """Process fidelity over the storage-time grid plus the dephasing fit.

    Rows carry the simulated point, its Monte Carlo error, the model
    curve and the residual against it.  The fit recovers the dephasing
    width with all other model parameters held at their configured
    values.
    """
    channel = cfg.channel(channel_id)
    points = tomography_points(cfg, [(channel_id, t) for t in cfg.storage_times], expected_counts)
    columns = (points["fidelity"], points["sigma"], points["model"])
    rows = [(t, f, s, m, f - m) for t, f, s, m in zip(cfg.storage_times, *columns)]
    times = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    sigmas = np.array([r[2] for r in rows])
    meta = {
        "channel": channel_id,
        "theta_deg": channel.theta,
        "pulses": cfg.pulses_per_setting,
        "mc_resamples": cfg.mc_resamples,
        "mode": "expected" if expected_counts else "sampled",
        "model": {"sigma_gamma": cfg.memory.sigma_gamma},
        "acquisition_s_per_setting": cfg.pulses_per_setting / cfg.rep_rate_hz,
    }
    try:
        dataset = DecayDataset(
            times=times,
            values=values,
            sigmas=sigmas if np.all(sigmas > 0) else None,
        )
        model = channel_model(channel, cfg.memory, cfg.detection)
        meta["fit"] = asdict(fit_sigma_gamma(dataset, model))
    except (FitError, ValueError) as exc:
        meta["fit"] = {"error": str(exc)}
    return RunArtifact(
        name="fig5",
        columns=("t_ms", "fidelity", "fidelity_sigma", "model_fidelity", "residual"),
        rows=rows,
        config=effective_config(cfg),
        meta=meta,
    )


def run_table1(cfg: ScenarioConfig, expected_counts: bool = False) -> RunArtifact:
    """Per-channel process fidelity at the table storage time."""
    t = TABLE_TIME_MS
    points = tomography_points(cfg, [(ch.id, t) for ch in cfg.channels], expected_counts)
    columns = (points["fidelity"], points["sigma"], points["model"])
    rows = [(ch.id, ch.theta, f, s, m) for ch, f, s, m in zip(cfg.channels, *columns)]
    settings = len(cfg.input_states) * 3
    return RunArtifact(
        name="table1",
        columns=("channel", "theta_deg", "fidelity", "fidelity_sigma", "model_fidelity"),
        rows=rows,
        config=effective_config(cfg),
        meta={
            "time_ms": t,
            "pulses": cfg.pulses_per_setting,
            "mc_resamples": cfg.mc_resamples,
            "mode": "expected" if expected_counts else "sampled",
            "acquisition_s_per_channel": settings * cfg.pulses_per_setting / cfg.rep_rate_hz,
        },
    )


def run_simulate(cfg: ScenarioConfig, expected_counts: bool = False) -> RunArtifact:
    """Custom scenario: full tomography over every channel and storage time."""
    grid = [(ch, t) for ch in cfg.channels for t in cfg.storage_times]
    points = tomography_points(cfg, [(ch.id, t) for ch, t in grid], expected_counts)
    columns = (points["fidelity"], points["sigma"], points["model"])
    rows = [(ch.id, ch.theta, t, f, s, m) for (ch, t), f, s, m in zip(grid, *columns)]
    return RunArtifact(
        name="simulate",
        columns=("channel", "theta_deg", "t_ms", "fidelity", "fidelity_sigma", "model_fidelity"),
        rows=rows,
        config=effective_config(cfg),
        meta={
            "pulses": cfg.pulses_per_setting,
            "mc_resamples": cfg.mc_resamples,
            "mode": "expected" if expected_counts else "sampled",
        },
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


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


@contextlib.contextmanager
def _staged_files(out_dir: str, paths: list[str]):
    """Write a set of files under out_dir all or nothing.

    Yields ``stage(filename, newline=None)``, which appends the final
    path to the empty list ``paths`` and opens a temporary
    ``<file>.<pid>.tmp`` beside it for writing.  Only when the block
    completes are the staged files renamed into place; on any error the
    temporary files are removed and no file is replaced.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {out_dir}: {exc}") from None
    tmp = f".{os.getpid()}.tmp"

    def stage(filename: str, newline: str | None = None):
        paths.append(os.path.join(out_dir, filename))
        return open(paths[-1] + tmp, "w", encoding="utf-8", newline=newline)

    try:
        yield stage
        for path in paths:
            os.replace(path + tmp, path)
    except OSError as exc:
        raise IOError(f"cannot write artifact under {out_dir}: {exc}") from None
    finally:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + tmp)


def emit(
    artifact: RunArtifact,
    out_dir: str,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[str]:
    """Write the artifact table and the scenario echo under out_dir.

    CSV cells carry 9 significant digits; the JSON artifact keeps full
    binary precision and a format_version.  Nothing written depends on
    wall-clock time, so equal (config, seed) runs produce byte-identical
    files.  The set is written all or nothing (``_staged_files``): on any
    error no artifact is replaced and no temporary file is left.
    """
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
    paths: list[str] = []
    with _staged_files(out_dir, paths) as stage:
        if "csv" in formats:
            with stage(f"{artifact.name}.csv", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(artifact.columns)
                for row in artifact.rows:
                    writer.writerow([_format_cell(v) for v in row])
        if "json" in formats:
            payload = {
                "format_version": FORMAT_VERSION,
                "name": artifact.name,
                "columns": list(artifact.columns),
                "rows": [list(row) for row in artifact.rows],
                "meta": artifact.meta,
                "config": artifact.config,
            }
            with stage(f"{artifact.name}.json") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
                fh.write("\n")
        else:
            # The JSON artifact embeds the scenario echo; a CSV-only run
            # still needs the echo on disk to be self-describing.
            with stage(f"{artifact.name}.config.json") as fh:
                json.dump(artifact.config, fh, sort_keys=True, indent=2, allow_nan=False)
                fh.write("\n")
    return paths
