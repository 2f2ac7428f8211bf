"""Three grids' bootstraps against numpy.random's own streams, exactly.

Each case runs ``tomography_points`` on a grid and checks that every sigma
equals, with ``==``, a reference bootstrap that draws each (unit, resample)
from ``numpy_stream`` and rescores each resample with
``reconstruct_from_records``:

- the default config's 84 units at R = 500 (42,000 bootstrap streams, about
  1 M Poisson draws).  ``monte_carlo_error`` takes them in chunks of 8 units
  x 500 resamples, one ``poisson`` call each, and scores each chunk's draws
  in slices of 256;
- a low-count grid shaped like the ``fig5_lowcount`` benchmark: S2 at
  M = 6000 pulses over 30 storage times in [0, 6] ms, R = 100.  Its small
  means take the multiplication method and PTRS's x < 7 branch of
  ``random_loggam``;
- a high-count grid: S2 at M = 10**9 pulses, storage times 0.005, 1, 3 and
  6 ms, R = 20.  Its means, about 10**7 per detector, lie past the end of
  ``streams.poisson``'s log-gamma table (2**16), so every PTRS attempt that
  reaches the log-acceptance test evaluates log-gamma directly.

Every numpy warning is an error here (pytest's ``filterwarnings``), so a log
of 0 outside the sampler's errstate fails too.
"""

import dataclasses

import numpy as np
import pytest

from qmemsim import scenarios
from qmemsim.config import ScenarioConfig, _time_key
from qmemsim.tomography import reconstruct_from_records
from reference_impl import numpy_stream

DEFAULT = ScenarioConfig()
GRIDS = {
    "default": (DEFAULT, [ch.id for ch in DEFAULT.channels]),
    "low-count": (
        dataclasses.replace(
            DEFAULT,
            pulses_per_setting=6000,
            mc_resamples=100,
            storage_times=tuple(6.0 * i / 29 for i in range(30)),
        ),
        ["S2"],
    ),
    "high-count": (
        dataclasses.replace(
            DEFAULT, pulses_per_setting=10**9, mc_resamples=20, storage_times=(0.005, 1.0, 3.0, 6.0)
        ),
        ["S2"],
    ),
}


@pytest.mark.parametrize("grid", GRIDS)
def test_bootstrap_sigma_equals_numpy_streams(monkeypatch, grid):
    cfg, channels = GRIDS[grid]
    units = [(c, t) for c in channels for t in cfg.storage_times]
    seen, real = [], scenarios.monte_carlo_error
    monkeypatch.setattr(
        scenarios,
        "monte_carlo_error",
        lambda counts, *rest: seen.append(counts) or real(counts, *rest),
    )
    got = np.array(scenarios.tomography_points(cfg, units)["sigma"])
    counts = np.concatenate(seen)
    assert len(counts) == len(units)

    keys = [(cfg.channel_index(c), _time_key(t)) for c, t in units]
    fidelities = np.empty((len(units), cfg.mc_resamples))
    for j in range(cfg.mc_resamples):
        draws = [
            numpy_stream(cfg.seed, scenarios._DOMAIN_RESAMPLE, *key, j).poisson(unit)
            for key, unit in zip(keys, counts)
        ]
        fidelities[:, j] = reconstruct_from_records(np.array(draws))
    want = np.std(fidelities, axis=1, ddof=1)

    differ = np.flatnonzero(got != want)
    assert differ.size == 0, [(units[k], got[k], want[k]) for k in differ[:10]]
