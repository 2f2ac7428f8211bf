"""Storage and directional-retrieval physics of the atomic memory.

Retrieval efficiency combines a Gaussian walk-off profile over the read
angle with an exponential lifetime decay; the stored coherence dephases
with a Gaussian factor driven by magnetic-field fluctuations.  Retrieval
is routed into one of seven output channels selected by the read-beam
angle, with the emission angle fixed by phase matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polarization import check_density

#: Hard cap on the read angle; the efficiency model is only anchored on
#: measured points inside [0, 5] degrees.
THETA_MAX_DEG = 5.0


@dataclass(frozen=True)
class ChannelSpec:
    """One routed output channel: label and read-beam angle in degrees."""

    id: str
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= THETA_MAX_DEG:
            raise ValueError(
                f"theta must be in [0, {THETA_MAX_DEG}] deg, got {self.theta}"
                f" (channel {self.id})"
            )


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
    profile at theta = 0; ``r0_overrides`` maps specific angles to measured
    zero-time efficiencies that take precedence over the profile (the
    default pins the 0.8 deg channel to its separately measured 12.7%).
    ``static_gamma`` maps channel ids to a residual coherence factor in
    [0, 1] applied on top of the time-dependent dephasing (default 1.0).
    """

    r0_axis: float = 0.14
    tau: float = 2.9
    sigma_gamma: float = 104.0
    theta_w: float = 6.684
    static_gamma: dict[str, float] = field(default_factory=dict)
    r0_overrides: dict[float, float] = field(default_factory=lambda: {0.8: 0.127})

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
        for th, r in self.r0_overrides.items():
            if not 0.0 < r <= 1.0:
                raise ValueError(f"r0_overrides[{th}] must be in (0, 1], got {r}")

    def channel_static_gamma(self, channel: ChannelSpec) -> float:
        return self.static_gamma.get(channel.id, 1.0)


@dataclass(frozen=True)
class PhaseMatchConfig:
    """Relative frequency offset (omega_ae - omega_be)/omega_be."""

    delta: float = 1.81e-5

    def __post_init__(self) -> None:
        if abs(self.delta) >= 1e-3:
            raise ValueError(f"delta out of the small-offset regime: {self.delta}")


@dataclass(frozen=True)
class RetrievalOutcome:
    """Result of releasing a stored qubit into one channel."""

    state: np.ndarray
    efficiency: float
    gamma: float
    theta_out: float


def walk_off_r0(theta: float, cfg: MemoryConfig) -> float:
    """Zero-time efficiency from the Gaussian walk-off profile alone."""
    if not 0.0 <= theta <= THETA_MAX_DEG:
        raise ValueError(f"theta must be in [0, {THETA_MAX_DEG}] deg, got {theta}")
    return cfg.r0_axis * math.exp(-(theta * theta) / (cfg.theta_w * cfg.theta_w))


def _r0_at(theta: float, cfg: MemoryConfig) -> float:
    for th, r in cfg.r0_overrides.items():
        if abs(theta - th) < 1e-9:
            return r
    return walk_off_r0(theta, cfg)


def retrieval_efficiency(theta: float, t: float, cfg: MemoryConfig) -> float:
    """R(theta, t) = R0(theta) exp(-t/tau); theta in degrees, t in ms.

    R0 comes from the walk-off profile unless the angle carries a
    measured override.
    """
    if t < 0.0:
        raise ValueError(f"storage time must be >= 0, got {t}")
    if not 0.0 <= theta <= THETA_MAX_DEG:
        raise ValueError(f"theta must be in [0, {THETA_MAX_DEG}] deg, got {theta}")
    return _r0_at(theta, cfg) * math.exp(-t / cfg.tau)


def dephasing_factor(t: float, channel: ChannelSpec, cfg: MemoryConfig) -> float:
    """Coherence factor static_gamma * exp(-t^2/sigma_gamma^2) in [0, 1]."""
    if t < 0.0:
        raise ValueError(f"storage time must be >= 0, got {t}")
    sg = cfg.sigma_gamma
    return cfg.channel_static_gamma(channel) * math.exp(-(t * t) / (sg * sg))


def dephase(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Scale the R/L off-diagonals of rho by gamma (phase-damping channel).

    Equivalent Kraus form: (1+gamma)/2 * rho + (1-gamma)/2 * sz rho sz
    with sz diagonal in the storage basis.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    rho = check_density(rho)
    out = rho.copy()
    out[0, 1] *= gamma
    out[1, 0] *= gamma
    return out


def theta_prime(theta: float, cfg: PhaseMatchConfig) -> float:
    """Emission angle from the phase-matching condition, in degrees.

    theta' = arctan(sin(theta) / (delta + cos(theta))); equals theta
    exactly when the frequency offset delta vanishes.
    """
    if not 0.0 <= theta <= THETA_MAX_DEG:
        raise ValueError(f"theta must be in [0, {THETA_MAX_DEG}] deg, got {theta}")
    if cfg.delta == 0.0:
        return theta
    rad = math.radians(theta)
    return math.degrees(math.atan2(math.sin(rad), cfg.delta + math.cos(rad)))


def release(
    rho_in: np.ndarray,
    channel: ChannelSpec,
    t: float,
    cfg: MemoryConfig,
    pm: PhaseMatchConfig,
) -> RetrievalOutcome:
    """Retrieve a stored qubit after time t into the requested channel.

    Single-readout semantics: exactly the requested channel emits; the
    returned state is the dephased (pre-background) signal state.
    """
    gamma = dephasing_factor(t, channel, cfg)
    return RetrievalOutcome(
        state=dephase(rho_in, gamma),
        efficiency=retrieval_efficiency(channel.theta, t, cfg),
        gamma=gamma,
        theta_out=theta_prime(channel.theta, pm),
    )
