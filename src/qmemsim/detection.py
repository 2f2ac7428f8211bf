"""Detection chain: efficiencies, background, and photon-count statistics.

Counts are aggregated Poisson draws over the pulse budget of a setting
(per-pulse means are << 1, so this is indistinguishable from per-pulse
Bernoulli sampling and much faster).  Post-selection on detected photons
mixes the signal state with an isotropic background in proportion
eta*R : 2N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polarization import STATE_LABELS, check_density, density_of, ket_from_named

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


def _projector(label: str) -> np.ndarray:
    proj = density_of(ket_from_named(label))
    proj.setflags(write=False)
    return proj


#: Read-only projector |s><s| onto each named polarization state.
PROJECTORS = {label: _projector(label) for label in STATE_LABELS}


@dataclass(frozen=True)
class MeasurementBasis:
    """An analysis basis: orthonormal projector pair and its Stokes axis."""

    label: str
    plus_label: str
    minus_label: str
    axis: int  # index into the Stokes vector (0 = H/V, 1 = D/A, 2 = R/L)

    @property
    def plus_projector(self) -> np.ndarray:
        return PROJECTORS[self.plus_label]

    @property
    def minus_projector(self) -> np.ndarray:
        return PROJECTORS[self.minus_label]


BASIS_HV = MeasurementBasis("HV", "H", "V", axis=0)
BASIS_DA = MeasurementBasis("DA", "D", "A", axis=1)
BASIS_RL = MeasurementBasis("RL", "R", "L", axis=2)

#: The three mutually unbiased analysis bases, in Stokes-axis order.
MEASUREMENT_BASES = (BASIS_HV, BASIS_DA, BASIS_RL)


@dataclass(frozen=True)
class CountRecord:
    """Photon counts for one basis setting over a pulse budget.

    In expected-counts (infinite statistics) mode the counts hold
    real-valued means instead of integer draws.
    """

    basis: str
    n_plus: float
    n_minus: float
    pulses: int

    def __post_init__(self) -> None:
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("counts must be non-negative")
        if self.pulses < 1:
            raise ValueError(f"pulses must be >= 1, got {self.pulses}")


def expected_rates(
    state: np.ndarray,
    efficiency: float,
    basis: MeasurementBasis,
    cfg: DetectionConfig,
) -> tuple[float, float]:
    """Per-pulse mean counts (mu_plus, mu_minus) for one analysis basis.

    mu_+- = n_bar * eta * R * Tr(Pi_+- rho) + background; the pair sums to
    n_bar * eta * R + 2 * background independently of the basis.
    """
    state = check_density(state)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency}")
    signal = cfg.n_bar * effective_detection_efficiency(cfg) * efficiency
    p_plus = float(np.trace(basis.plus_projector @ state).real)
    p_plus = min(max(p_plus, 0.0), 1.0)
    mu_plus = signal * p_plus + cfg.background_n
    mu_minus = signal * (1.0 - p_plus) + cfg.background_n
    return mu_plus, mu_minus


def sample_counts(
    rates: tuple[float, float],
    pulses: int,
    rng: np.random.Generator,
    basis: str = "",
) -> CountRecord:
    """Draw Poisson counts n_+- ~ Poisson(pulses * mu_+-)."""
    mu_plus, mu_minus = rates
    if mu_plus < 0 or mu_minus < 0:
        raise ValueError("rates must be non-negative")
    if not 1 <= pulses <= MAX_PULSES:
        raise ValueError(f"pulses must be in [1, {MAX_PULSES}], got {pulses}")
    n_plus = int(rng.poisson(pulses * mu_plus))
    n_minus = int(rng.poisson(pulses * mu_minus))
    return CountRecord(basis=basis, n_plus=n_plus, n_minus=n_minus, pulses=pulses)


def expected_counts(
    rates: tuple[float, float], pulses: int, basis: str = ""
) -> CountRecord:
    """Infinite-statistics record holding the exact means pulses * mu_+-."""
    mu_plus, mu_minus = rates
    if mu_plus < 0 or mu_minus < 0:
        raise ValueError("rates must be non-negative")
    return CountRecord(
        basis=basis, n_plus=pulses * mu_plus, n_minus=pulses * mu_minus, pulses=pulses
    )


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
