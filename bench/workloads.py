"""The benchmark's workloads: seeded scenario configs and CLI arguments.

Each workload is one ``qmemsim`` command line run on a config file that
``config(seed)`` generates.  The seed becomes the scenario's RNG seed, so
the same seed gives the same config and the same artifacts.

A basis whose counts are all zero, in the sample or in one bootstrap
resample, makes ``qmemsim`` raise ``ValueError: zero total counts``
(a known defect, not caught here).  ``fig5_lowcount`` at M=3000 hits it
on 17 of seeds 0-99 (first on seed 3, resample 28 at t=6 ms);
``bench/tests`` keeps that case as an expected failure.  At M=6000 none
of seeds 0-199 fail, so the workload uses M=6000.  It has 30 storage
times, not 60, so that a 40 s run holds about ten invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 12345
LOWCOUNT_PULSES = 6000


def storage_grid(n: int, t_max: float = 6.0) -> list[float]:
    """n storage times (ms) evenly spaced over [0, t_max]."""
    return [t_max * i / (n - 1) for i in range(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]
    artifact: str
    rows: int
    sampled: bool
    overrides: Callable[[], dict]

    def config(self, seed: int) -> dict:
        return {"seed": seed, **self.overrides()}

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [*self.command, "--config", config_path, "--out", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1_bootstrap",
            why=(
                "reproduce table1 on the default config: 7 channels, M=1e5, "
                "500 bootstrap resamples; the paper's headline table, almost "
                "all of it in tomography.monte_carlo_error"
            ),
            command=("reproduce", "table1"),
            artifact="table1",
            rows=7,
            sampled=True,
            overrides=dict,
        ),
        Workload(
            name="grid_expected",
            why=(
                "simulate --expected-counts over 7 channels x 200 storage times: "
                "1400 units with no bootstrap, so validation, count models, "
                "one chi solve per unit and emit dominate"
            ),
            command=("simulate", "--expected-counts"),
            artifact="simulate",
            rows=1400,
            sampled=False,
            overrides=lambda: {"storage_times": storage_grid(200)},
        ),
        Workload(
            name="fig5_lowcount",
            why=(
                "reproduce fig5 on S2 with M=6000, 100 resamples, 30 storage "
                "times: many small bootstraps where state and chi projection "
                "fire often, then the sigma_gamma fit"
            ),
            command=("reproduce", "fig5"),
            artifact="fig5",
            rows=30,
            sampled=True,
            overrides=lambda: {
                "pulses_per_setting": LOWCOUNT_PULSES,
                "mc_resamples": 100,
                "storage_times": storage_grid(30),
            },
        ),
    )
}
