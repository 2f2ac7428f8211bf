"""Detection: efficiency, background, and photon-count statistics.

Sampled counts are Poisson draws of ``expected_counts``, aggregated over
the pulse budget of a setting (per-pulse means are << 1, so this is
indistinguishable from per-pulse Bernoulli sampling and much faster);
the scenario runners draw them.  Post-selection on detected photons
mixes the signal state with an isotropic background in proportion
eta*R : 2N.

States enter as Stokes vectors: basis i resolves S_i alone, so its two
detectors see per-pulse means n_bar*eta*R*(1 +- S_i)/2 + N.

Count layout: the rates and counts of one prepared input form a (3, 2)
array whose rows are the analysis bases in MEASUREMENT_BASES order (HV,
DA, RL; row i is Stokes axis i) and whose columns are the (+, -)
detectors.  A tomography run stacks one such array per input into
shape (4, 3, 2).  Sampled counts are integers; in expected-counts
(infinite statistics) mode they are the real-valued means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polarization import check_stokes

MAX_PULSES = 1_000_000_000


@dataclass(frozen=True)
class DetectionConfig:
    """Detection efficiency and noise rates.

    ``eta_total`` is the measured end-to-end detection efficiency used in
    every rate and fidelity calculation.  The chain behind it is fiber
    coupling (80%), the etalon stack (58%), multimode-fiber coupling (97%)
    and detector quantum efficiency (50%), whose product is 22.5%; the
    measured total rounds to 23%.  ``background_n`` is the background
    count rate per pulse per detector.
    """

    eta_total: float = 0.23
    n_bar: float = 1.0
    background_n: float = 7e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_total <= 1.0:
            raise ValueError(f"eta_total must be in (0, 1], got {self.eta_total}")
        if self.n_bar <= 0.0:
            raise ValueError(f"n_bar must be > 0, got {self.n_bar}")
        if self.background_n < 0.0:
            raise ValueError(f"background_n must be >= 0, got {self.background_n}")


#: The three mutually unbiased analysis bases in Stokes-axis order, + eigenstate first.
MEASUREMENT_BASES = ("HV", "DA", "RL")


def expected_rates(
    stokes: np.ndarray, efficiency: float | np.ndarray, cfg: DetectionConfig
) -> np.ndarray:
    """Per-pulse mean counts (..., 3, 2) of Stokes vectors (..., 3).

    mu_+- = n_bar * eta * R * (1 +- S_i)/2 + background in basis i; each
    row sums to n_bar * eta * R + 2 * background.  The retrieval
    efficiency R is a number or an array of them that broadcasts against
    the stack's leading shape (...).
    """
    stokes = check_stokes(stokes)
    efficiency = np.asarray(efficiency, dtype=float)
    outside = ~((efficiency >= 0.0) & (efficiency <= 1.0))
    if outside.any():
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency[outside].flat[0]}")
    signal = cfg.n_bar * cfg.eta_total * efficiency
    p_plus = np.clip((1.0 + stokes) / 2.0, 0.0, 1.0)
    rates = signal[..., None, None] * np.stack((p_plus, 1.0 - p_plus), axis=-1)
    rates += cfg.background_n
    return rates


def expected_counts(rates: np.ndarray, pulses: int) -> np.ndarray:
    """Infinite-statistics counts: the exact means pulses * rates."""
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    if not 1 <= pulses <= MAX_PULSES:
        raise ValueError(f"pulses must be in [1, {MAX_PULSES}], got {pulses}")
    return pulses * rates
