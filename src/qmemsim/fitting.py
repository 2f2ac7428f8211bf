"""Closed-form fidelity model, decay fitting and calibration.

The post-selected process fidelity of a channel at storage time t has a
closed form in the physical parameters:

    F(t) = ((1 + gamma(t)) s(t) + N) / (2 (s(t) + 2 N))

with signal s(t) = n_bar * eta * R0 * exp(-t / tau), dephasing
gamma(t) = gamma0 * exp(-(t / sigma_gamma)^2) and background rate N per
detector.  ``closed_form_fidelity`` is the one implementation of that
model, and ``channel_model`` gives its parameter bundle for a configured
channel.  The efficiency-decay fit recovers (R0, tau); the two solvers
take a bundle and free one parameter of it: ``fit_sigma_gamma`` fits
sigma_gamma to a decay curve, and ``calibrate_static_gamma`` inverts the
model for gamma0 at a single (t, F) point.

Fitters are hand-rolled (log-linear seed plus damped Gauss-Newton,
golden-section plus Newton polish) so that convergence behaviour and
iteration counts stay identical across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import DetectionConfig, effective_detection_efficiency
from .errors import FitError
from .memory import ChannelSpec, MemoryConfig, retrieval_efficiency

_MAX_GN_ITERS = 200
_GN_REL_TOL = 1e-8
_SIGMA_BRACKET = (0.1, 1.0e4)
_POLISH_REL_TOL = 1e-6


@dataclass(frozen=True)
class DecayDataset:
    """Sampled decay curve: values (and optional one-sigma errors) vs time."""

    times: np.ndarray
    values: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size < 2:
            raise ValueError("need at least 2 samples to fit")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        if np.any(times < 0):
            raise ValueError("times must be >= 0")
        if self.sigmas is not None:
            sigmas = np.asarray(self.sigmas, dtype=float)
            object.__setattr__(self, "sigmas", sigmas)
            if sigmas.shape != times.shape:
                raise ValueError("sigmas must match times in shape")
            if not np.all(np.isfinite(sigmas)) or np.any(sigmas <= 0):
                raise ValueError("sigmas must be finite and > 0")

    def weights(self) -> np.ndarray:
        if self.sigmas is None:
            return np.ones_like(self.times)
        return 1.0 / self.sigmas**2


@dataclass(frozen=True)
class FitReport:
    """Fit outcome: parameter estimates plus convergence diagnostics."""

    params: dict[str, float]
    uncertainties: dict[str, float] = field(default_factory=dict)
    residual_norm: float = 0.0
    iterations: int = 0
    converged: bool = True
    at_bound: bool = False


def closed_form_fidelity(
    t: float | np.ndarray,
    r0: float,
    tau: float,
    gamma0: float,
    sigma_gamma: float,
    n_bar: float = 1.0,
    eta: float = 0.23,
    background: float = 7e-4,
) -> float | np.ndarray:
    """Model fidelity F(t); vectorized over t."""
    if r0 < 0:
        raise ValueError("r0 must be >= 0")
    if tau <= 0 or sigma_gamma <= 0:
        raise ValueError("tau and sigma_gamma must be > 0")
    if not 0.0 <= gamma0 <= 1.0:
        raise ValueError("gamma0 must be in [0, 1]")
    if n_bar <= 0 or not 0.0 < eta <= 1.0 or background < 0:
        raise ValueError("invalid rate parameters")
    t_arr = np.asarray(t, dtype=float)
    signal = n_bar * eta * r0 * np.exp(-t_arr / tau)
    gamma = gamma0 * np.exp(-((t_arr / sigma_gamma) ** 2))
    out = ((1.0 + gamma) * signal + background) / (2.0 * (signal + 2.0 * background))
    if np.ndim(t) == 0:
        return float(out)
    return out


def channel_model(channel: ChannelSpec, memory: MemoryConfig, det: DetectionConfig) -> dict:
    """``closed_form_fidelity`` keyword arguments for a configured channel.

    R0 honours ``r0_overrides``; eta is the effective detection efficiency.
    """
    return {
        "r0": retrieval_efficiency(channel.theta, 0.0, memory),
        "tau": memory.tau,
        "gamma0": memory.channel_static_gamma(channel),
        "sigma_gamma": memory.sigma_gamma,
        "n_bar": det.n_bar,
        "eta": effective_detection_efficiency(det),
        "background": det.background_n,
    }


def fit_exponential(dataset: DecayDataset) -> FitReport:
    """Fit a * exp(-t / tau) by damped Gauss-Newton from a log-linear seed.

    Weighted by 1/sigma^2 when the dataset carries errors.  Raises
    FitError when no usable seed exists or the iteration cap is hit.
    """
    t = dataset.times
    v = dataset.values
    w = dataset.weights()

    pos = v > 0
    if np.unique(t[pos]).size < 2:
        raise FitError("need positive values at 2 distinct times to seed an exponential fit")
    coeffs = np.polyfit(t[pos], np.log(v[pos]), 1)
    if coeffs[0] >= 0:
        # Non-decaying seed; start from the data span instead.
        tau = max(t[-1] - t[0], 1.0)
    else:
        tau = -1.0 / coeffs[0]
    a = float(np.exp(coeffs[1]))

    def residuals(a_: float, tau_: float) -> np.ndarray:
        return np.sqrt(w) * (a_ * np.exp(-t / tau_) - v)

    cost = float(np.sum(residuals(a, tau) ** 2))
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_GN_ITERS + 1):
        e = np.exp(-t / tau)
        jac = np.column_stack([e, a * t / tau**2 * e]) * np.sqrt(w)[:, None]
        r = residuals(a, tau)
        try:
            step = np.linalg.solve(jac.T @ jac, -jac.T @ r)
        except np.linalg.LinAlgError:
            raise FitError("singular normal equations in exponential fit") from None
        scale = 1.0
        for _ in range(30):
            a_new, tau_new = a + scale * step[0], tau + scale * step[1]
            if tau_new > 0 and a_new > 0:
                new_cost = float(np.sum(residuals(a_new, tau_new) ** 2))
                if new_cost <= cost:
                    break
            scale *= 0.5
        else:
            converged = True  # no improving step left: at the minimum
            break
        rel = max(abs(a_new - a) / max(abs(a), 1e-30), abs(tau_new - tau) / tau)
        a, tau, cost = a_new, tau_new, new_cost
        if rel < _GN_REL_TOL:
            converged = True
            break
    if not converged:
        raise FitError(f"exponential fit did not converge in {_MAX_GN_ITERS} iterations")

    e = np.exp(-t / tau)
    jac = np.column_stack([e, a * t / tau**2 * e]) * np.sqrt(w)[:, None]
    uncertainties: dict[str, float] = {}
    try:
        cov = np.linalg.inv(jac.T @ jac)
        if dataset.sigmas is None and t.size > 2:
            cov = cov * cost / (t.size - 2)
        if np.all(np.diag(cov) >= 0):
            uncertainties = {
                "r0": float(np.sqrt(cov[0, 0])),
                "tau": float(np.sqrt(cov[1, 1])),
            }
    except np.linalg.LinAlgError:
        pass
    return FitReport(
        params={"r0": float(a), "tau": float(tau)},
        uncertainties=uncertainties,
        residual_norm=float(np.sqrt(cost)),
        iterations=iterations,
        converged=True,
    )


def fit_sigma_gamma(dataset: DecayDataset, model: dict) -> FitReport:
    """Fit the dephasing width sigma_gamma of a ``channel_model`` bundle.

    The bundle's own ``sigma_gamma`` is ignored and every other parameter
    is held fixed.  One-dimensional weighted least squares on the
    closed-form fidelity: golden-section search over log(sigma_gamma) in
    a fixed bracket, followed by a Newton polish on the smooth interior.
    Data that prefers the bracket edge (effectively no observable
    dephasing decay) is reported with ``at_bound`` set rather than
    rejected.
    """
    t = dataset.times
    v = dataset.values
    w = dataset.weights()

    def sse(log_sigma: float) -> float:
        curve = closed_form_fidelity(t, **{**model, "sigma_gamma": float(np.exp(log_sigma))})
        return float(np.sum(w * (curve - v) ** 2))

    lo, hi = np.log(_SIGMA_BRACKET[0]), np.log(_SIGMA_BRACKET[1])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c = b_ - invphi * (b_ - a_)
    d = a_ + invphi * (b_ - a_)
    fc, fd = sse(c), sse(d)
    iterations = 0
    while b_ - a_ > 1e-10:
        iterations += 1
        if fc < fd:
            b_, d, fd = d, c, fc
            c = b_ - invphi * (b_ - a_)
            fc = sse(c)
        else:
            a_, c, fc = c, d, fd
            d = a_ + invphi * (b_ - a_)
            fd = sse(d)
    x = (a_ + b_) / 2.0

    # Newton polish on the interior minimum; central differences are
    # accurate enough at this scale and keep the code dependency-free.
    h = 1e-6
    for _ in range(20):
        g_minus, g_0, g_plus = sse(x - h), sse(x), sse(x + h)
        d1 = (g_plus - g_minus) / (2.0 * h)
        d2 = (g_plus - 2.0 * g_0 + g_minus) / h**2
        if d2 <= 0:
            break
        step = -d1 / d2
        if not lo < x + step < hi:
            break
        x += step
        iterations += 1
        if abs(step) < _POLISH_REL_TOL:
            break

    at_bound = bool(min(x - lo, hi - x) < 1e-6)
    sigma = float(np.exp(x))
    return FitReport(
        params={"sigma_gamma": sigma},
        residual_norm=float(np.sqrt(sse(x))),
        iterations=iterations,
        converged=True,
        at_bound=at_bound,
    )


def calibrate_static_gamma(target_fidelity: float, t: float, model: dict) -> float:
    """Invert the fidelity model of a ``channel_model`` bundle for gamma0.

    The bundle's own ``gamma0`` is ignored.  The model is linear in
    gamma0, so the inverse is exact: gamma0 = (F - F0) / (F1 - F0) with
    F0 and F1 the model at gamma0 = 0 and 1.  Targets outside [F0, F1]
    raise FitError.
    """
    floor = closed_form_fidelity(t, **{**model, "gamma0": 0.0})
    ceiling = closed_form_fidelity(t, **{**model, "gamma0": 1.0})
    if not ceiling > floor:
        raise FitError("zero signal rate: gamma0 is unconstrained at this point")
    gamma0 = (target_fidelity - floor) / (ceiling - floor)
    if not -1e-9 <= gamma0 <= 1.0 + 1e-9:
        raise FitError(
            f"target fidelity {target_fidelity:.6g} outside achievable range "
            f"[{floor:.6g}, {ceiling:.6g}] at t={t:g}"
        )
    return float(min(max(gamma0, 0.0), 1.0))
