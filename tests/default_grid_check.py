"""Two grids' bootstraps against numpy.random's own streams, exactly.

Runs ``tomography_points`` on two grids and checks that every sigma equals,
with ``==``, a reference bootstrap that draws each (unit, resample) from
``numpy_stream`` and rescores each resample with ``reconstruct_from_records``:

- the default config's 84 units at R = 500 (42,000 bootstrap streams, about
  1 M Poisson draws, in blocks of 48 resamples);
- a low-count grid shaped like the ``fig5_lowcount`` benchmark: S2 at
  M = 6000 pulses over 30 storage times in [0, 6] ms, R = 100.  Its small
  means take PTRS's x < 7 branch of ``random_loggam``.

Exits 1 on any difference.

    PYTHONPATH=src python tests/default_grid_check.py
"""

import dataclasses
import sys
import time

import numpy as np

from qmemsim import scenarios
from qmemsim.config import ScenarioConfig, _time_key
from qmemsim.tomography import reconstruct_from_records
from reference_impl import numpy_stream


def differing_sigmas(name: str, cfg: ScenarioConfig, channels) -> int:
    """Print and count the sigmas of ``channels`` x ``cfg.storage_times`` that differ."""
    units = [(c, t) for c in channels for t in cfg.storage_times]
    resamples = cfg.mc_resamples
    seen = {}
    real = scenarios.monte_carlo_error

    def recording(counts, resamples, keys):
        seen["counts"] = counts
        return real(counts, resamples, keys)

    scenarios.monte_carlo_error = recording
    try:
        start = time.perf_counter()
        got = np.array(scenarios.tomography_points(cfg, units)["sigma"])
        ran = time.perf_counter() - start
    finally:
        scenarios.monte_carlo_error = real

    start = time.perf_counter()
    keys = [(cfg.channel_index(c), _time_key(t)) for c, t in units]
    fidelities = np.empty((len(units), resamples))
    for j in range(resamples):
        draws = [
            numpy_stream(cfg.seed, scenarios._DOMAIN_RESAMPLE, *key, j).poisson(unit)
            for key, unit in zip(keys, seen["counts"])
        ]
        fidelities[:, j] = reconstruct_from_records(np.array(draws))
    want = np.std(fidelities, axis=1, ddof=1)
    reference = time.perf_counter() - start

    differ = np.flatnonzero(got != want)
    print(
        f"{name}: {len(units)} units x {resamples} resamples: {differ.size} sigma differ "
        f"(tomography_points {ran:.2f} s, numpy reference {reference:.2f} s)"
    )
    for k in differ[:10]:
        print(f"  {units[k]}: {got[k]!r} != {want[k]!r}")
    return differ.size


def main() -> int:
    cfg = ScenarioConfig()
    low = dataclasses.replace(
        cfg,
        pulses_per_setting=6000,
        mc_resamples=100,
        storage_times=tuple(6.0 * i / 29 for i in range(30)),
    )
    differ = differing_sigmas("default grid", cfg, [ch.id for ch in cfg.channels])
    differ += differing_sigmas("low-count grid", low, ["S2"])
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
