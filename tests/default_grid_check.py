"""The default grid's bootstrap against numpy.random's own streams, exactly.

Runs ``tomography_points`` on the default config's 84 units at R = 500
(42,000 bootstrap streams, about 1 M Poisson draws, in blocks of 48
resamples) and checks that every sigma equals, with ``==``, a reference
bootstrap that draws each (unit, resample) from ``numpy_stream`` and
rescores each resample with ``reconstruct_from_records``.  Exits 1 on any
difference.

    PYTHONPATH=src python tests/default_grid_check.py
"""

import sys
import time

import numpy as np

from qmemsim import scenarios
from qmemsim.config import ScenarioConfig, _time_key
from qmemsim.tomography import reconstruct_from_records
from reference_impl import numpy_stream


def main() -> int:
    cfg = ScenarioConfig()
    units = [(ch.id, t) for ch in cfg.channels for t in cfg.storage_times]
    resamples = cfg.mc_resamples
    seen = {}
    real = scenarios.monte_carlo_error

    def recording(counts, resamples, blocks, input_labels):
        seen["counts"] = counts
        return real(counts, resamples, blocks, input_labels)

    scenarios.monte_carlo_error = recording
    start = time.perf_counter()
    got = np.array(scenarios.tomography_points(cfg, units)["sigma"])
    ran = time.perf_counter() - start

    start = time.perf_counter()
    keys = [(cfg.channel_index(c), _time_key(t)) for c, t in units]
    fidelities = np.empty((len(units), resamples))
    for j in range(resamples):
        draws = [
            numpy_stream(cfg.seed, scenarios._DOMAIN_RESAMPLE, *key, j).poisson(unit)
            for key, unit in zip(keys, seen["counts"])
        ]
        fidelities[:, j] = reconstruct_from_records(np.array(draws), cfg.input_states)
    want = np.std(fidelities, axis=1, ddof=1)
    reference = time.perf_counter() - start

    differ = np.flatnonzero(got != want)
    print(
        f"{len(units)} units x {resamples} resamples: {differ.size} sigma differ "
        f"(tomography_points {ran:.2f} s, numpy reference {reference:.2f} s)"
    )
    for k in differ[:10]:
        print(f"  {units[k]}: {got[k]!r} != {want[k]!r}")
    return 1 if differ.size else 0


if __name__ == "__main__":
    sys.exit(main())
