"""Storage and directional-retrieval physics of the atomic memory.

Retrieval efficiency combines a Gaussian walk-off profile over the read
angle with an exponential lifetime decay; the stored coherence dephases
with a Gaussian factor driven by magnetic-field fluctuations.  Retrieval
is routed into one of seven output channels selected by the read-beam
angle.  The emission angle fixed by phase matching is the standalone
``theta_prime``; no efficiency, state or fidelity depends on it.

Only the R/L relative phase of the stored qubit dephases: a coherence
factor gamma maps its Stokes vector S to (gamma S_H, gamma S_D, S_R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polarization import check_stokes

#: Hard cap on the read angle; the efficiency model is only anchored on
#: measured points inside [0, 5] degrees.
THETA_MAX_DEG = 5.0

#: A storage time in ms or an array of them; a scalar time gives a float.
Times = float | np.ndarray


def _check_theta(theta: float, suffix: str = "") -> None:
    if not 0.0 <= theta <= THETA_MAX_DEG:
        raise ValueError(f"theta must be in [0, {THETA_MAX_DEG}] deg, got {theta}{suffix}")


def _check_times(t: Times) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError(f"storage time must be >= 0, got {t[t < 0.0].flat[0]}")
    return t


@dataclass(frozen=True)
class ChannelSpec:
    """One routed output channel: label and read-beam angle in degrees."""

    id: str
    theta: float

    def __post_init__(self) -> None:
        _check_theta(self.theta, f" (channel {self.id})")


#: R0 measured apart from the walk-off profile, by read angle (deg): the 0.8 deg channel's 12.7%.
MEASURED_R0 = {0.8: 0.127}

DEFAULT_CHANNELS = (
    ChannelSpec("S0", 0.0),
    ChannelSpec("S1", 0.4),
    ChannelSpec("S2", 0.8),
    ChannelSpec("S3", 2.0),
    ChannelSpec("S4", 3.0),
    ChannelSpec("S5", 4.0),
    ChannelSpec("S6", 5.0),
)


@dataclass(frozen=True)
class MemoryConfig:
    """Physical memory parameters.

    Times are in ms, angles in degrees.  ``r0_axis`` anchors the walk-off
    profile at theta = 0 (``MEASURED_R0`` takes precedence at its angles).
    ``static_gamma`` maps channel ids to a residual coherence factor in
    [0, 1] applied on top of the time-dependent dephasing (default 1.0).
    """

    r0_axis: float = 0.14
    tau: float = 2.9
    sigma_gamma: float = 104.0
    theta_w: float = 6.684
    static_gamma: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.r0_axis <= 1.0:
            raise ValueError(f"r0_axis must be in (0, 1], got {self.r0_axis}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.sigma_gamma <= 0.0:
            raise ValueError(f"sigma_gamma must be > 0, got {self.sigma_gamma}")
        if self.theta_w <= 0.0:
            raise ValueError(f"theta_w must be > 0, got {self.theta_w}")
        for ch, g in self.static_gamma.items():
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"static_gamma[{ch}] must be in [0, 1], got {g}")

    def channel_static_gamma(self, channel: ChannelSpec) -> float:
        return self.static_gamma.get(channel.id, 1.0)


@dataclass(frozen=True)
class PhaseMatchConfig:
    """Relative frequency offset (omega_ae - omega_be)/omega_be."""

    delta: float = 1.81e-5

    def __post_init__(self) -> None:
        if abs(self.delta) >= 1e-3:
            raise ValueError(f"delta out of the small-offset regime: {self.delta}")


def walk_off_r0(theta: float, cfg: MemoryConfig) -> float:
    """Zero-time efficiency from the Gaussian walk-off profile alone."""
    _check_theta(theta)
    return cfg.r0_axis * math.exp(-(theta * theta) / (cfg.theta_w * cfg.theta_w))


def _r0_at(theta: float, cfg: MemoryConfig) -> float:
    for th, r in MEASURED_R0.items():
        if abs(theta - th) < 1e-9:
            return r
    return walk_off_r0(theta, cfg)


def retrieval_efficiency(theta: float, t: Times, cfg: MemoryConfig) -> Times:
    """R(theta, t) = R0(theta) exp(-t/tau); theta in degrees, t in ms.

    R0 comes from the walk-off profile unless the angle has a measured
    value in ``MEASURED_R0``.
    """
    t = _check_times(t)
    _check_theta(theta)
    return _r0_at(theta, cfg) * np.exp(-t / cfg.tau)


def dephasing_factor(t: Times, channel: ChannelSpec, cfg: MemoryConfig) -> Times:
    """Coherence factor static_gamma * exp(-t^2/sigma_gamma^2) in [0, 1]."""
    t = _check_times(t)
    sg = cfg.sigma_gamma
    return cfg.channel_static_gamma(channel) * np.exp(-(t * t) / (sg * sg))


def dephase(stokes: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """Scale the H/V and D/A components of Stokes vectors (..., 3) by gamma.

    ``gamma`` is a factor or an array of them that broadcasts against the
    stack's leading shape (...).  On rho this scales the R/L off-diagonals
    by gamma, the Kraus form (1+gamma)/2 * rho + (1-gamma)/2 * sz rho sz
    with sz diagonal in R/L.
    """
    gamma = np.asarray(gamma, dtype=float)
    outside = ~((gamma >= 0.0) & (gamma <= 1.0))
    if outside.any():
        raise ValueError(f"gamma must be in [0, 1], got {gamma[outside].flat[0]}")
    return check_stokes(stokes) * np.stack((gamma, gamma, np.ones_like(gamma)), axis=-1)


def theta_prime(theta: float, cfg: PhaseMatchConfig) -> float:
    """Emission angle from the phase-matching condition, in degrees.

    theta' = arctan(sin(theta) / (delta + cos(theta))); equals theta
    exactly when the frequency offset delta vanishes.
    """
    _check_theta(theta)
    if cfg.delta == 0.0:
        return theta
    rad = math.radians(theta)
    return math.degrees(math.atan2(math.sin(rad), cfg.delta + math.cos(rad)))
