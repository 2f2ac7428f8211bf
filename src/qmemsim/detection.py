"""Detection chain: efficiencies, background, and photon-count statistics.

Counts are aggregated Poisson draws over the pulse budget of a setting
(per-pulse means are << 1, so this is indistinguishable from per-pulse
Bernoulli sampling and much faster).  Post-selection on detected photons
mixes the signal state with an isotropic background in proportion
eta*R : 2N.

States enter as Stokes vectors: basis i resolves S_i alone, so its two
detectors see per-pulse means n_bar*eta*R*(1 +- S_i)/2 + N.

Count layout: the rates and counts of one prepared input form a (3, 2)
array whose rows are the analysis bases in MEASUREMENT_BASES order (HV,
DA, RL; row i is Stokes axis i) and whose columns are the (+, -)
detectors.  A tomography run stacks one such array per input into
shape (n_inputs, 3, 2).  Sampled counts are integers; in expected-counts
(infinite statistics) mode they are the real-valued means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polarization import check_density, check_stokes

MAX_PULSES = 1_000_000_000


@dataclass(frozen=True)
class DetectionConfig:
    """Detection-chain efficiencies and noise rates.

    The chain is fiber coupling, etalon stack, multimode-fiber coupling
    and detector quantum efficiency.  ``eta_total`` is the separately
    measured end-to-end efficiency actually used in rate and fidelity
    calculations (the chain product is 22.5%, the measured total rounds
    to 23%); set it to None to fall back to the chain product.
    ``background_n`` is the background count rate per pulse per detector.
    """

    eta_fiber: float = 0.80
    eta_etalons: float = 0.58
    eta_mmf: float = 0.97
    eta_spd: float = 0.50
    eta_total: float | None = 0.23
    n_bar: float = 1.0
    background_n: float = 7e-4

    def __post_init__(self) -> None:
        for name in ("eta_fiber", "eta_etalons", "eta_mmf", "eta_spd"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {val}")
        if self.eta_total is not None and not 0.0 < self.eta_total <= 1.0:
            raise ValueError(f"eta_total must be in (0, 1], got {self.eta_total}")
        if self.n_bar <= 0.0:
            raise ValueError(f"n_bar must be > 0, got {self.n_bar}")
        if self.background_n < 0.0:
            raise ValueError(f"background_n must be >= 0, got {self.background_n}")


def total_detection_efficiency(cfg: DetectionConfig) -> float:
    """Product of the four chain efficiencies."""
    return cfg.eta_fiber * cfg.eta_etalons * cfg.eta_mmf * cfg.eta_spd


def effective_detection_efficiency(cfg: DetectionConfig) -> float:
    """Efficiency used in rate calculations: measured total if set, else chain."""
    if cfg.eta_total is not None:
        return cfg.eta_total
    return total_detection_efficiency(cfg)


#: The three mutually unbiased analysis bases in Stokes-axis order, + eigenstate first.
MEASUREMENT_BASES = ("HV", "DA", "RL")


def expected_rates(stokes: np.ndarray, efficiency: float, cfg: DetectionConfig) -> np.ndarray:
    """Per-pulse mean counts (..., 3, 2) of Stokes vectors (..., 3).

    mu_+- = n_bar * eta * R * (1 +- S_i)/2 + background in basis i; each
    row sums to n_bar * eta * R + 2 * background.
    """
    stokes = check_stokes(stokes)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency}")
    signal = cfg.n_bar * effective_detection_efficiency(cfg) * efficiency
    p_plus = np.clip((1.0 + stokes) / 2.0, 0.0, 1.0)
    return signal * np.stack((p_plus, 1.0 - p_plus), axis=-1) + cfg.background_n


def _check_rates(rates: np.ndarray, pulses: int) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    if not 1 <= pulses <= MAX_PULSES:
        raise ValueError(f"pulses must be in [1, {MAX_PULSES}], got {pulses}")
    return rates


def sample_counts(rates: np.ndarray, pulses: int, rng: np.random.Generator) -> np.ndarray:
    """Integer counts n ~ Poisson(pulses * rates), drawn in C order of ``rates``."""
    return rng.poisson(pulses * _check_rates(rates, pulses))


def expected_counts(rates: np.ndarray, pulses: int) -> np.ndarray:
    """Infinite-statistics counts: the exact means pulses * rates."""
    return pulses * _check_rates(rates, pulses)


def postselected_state(
    state_deph: np.ndarray, efficiency: float, cfg: DetectionConfig
) -> np.ndarray:
    """State conditioned on a detection event: signal mixed with background.

    Returns p * state + (1 - p) * I/2 with
    p = n_bar*eta*R / (n_bar*eta*R + 2N).
    """
    state_deph = check_density(state_deph)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency}")
    signal = cfg.n_bar * effective_detection_efficiency(cfg) * efficiency
    denom = signal + 2.0 * cfg.background_n
    if denom == 0.0:
        raise ValueError("post-selection undefined: zero signal and zero background")
    p = signal / denom
    return p * state_deph + (1.0 - p) * np.eye(2, dtype=complex) / 2.0
