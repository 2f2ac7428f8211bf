"""Closed-form fidelity model, decay fitting and calibration.

The post-selected process fidelity of a channel at storage time t has a
closed form in the physical parameters:

    F(t) = ((1 + gamma(t)) s(t) + N) / (2 (s(t) + 2 N))

with signal s(t) = eta * R0 * exp(-t / tau) for pulses of mean photon
number 1, dephasing gamma(t) = gamma0 * exp(-(t / sigma_gamma)^2) and
background rate N per detector.  ``closed_form_fidelity`` is the one
implementation of that model, and ``channel_model`` gives its parameter
bundle for a configured channel.  The efficiency-decay fit recovers
(R0, tau); the two solvers take a bundle and free one parameter of it:
``fit_sigma_gamma`` fits sigma_gamma to a decay curve, and
``calibrate_static_gamma`` inverts the model for gamma0 at a single
(t, F) point.

Both fits are one golden-section search over one log-scaled parameter.
The exponential fit searches tau and takes the amplitude in closed form
at each tau (variable projection), so the function searched is already
the profile of the 2-parameter least-squares cost.  The search is
hand-rolled so that its iteration counts stay identical across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import DetectionConfig
from .errors import FitError
from .memory import ChannelSpec, MemoryConfig, retrieval_efficiency

_SIGMA_BRACKET = (0.1, 1.0e4)
# tau is searched over (max t - min t) times this range, so the
# exponential fit needs no time unit.
_TAU_SPAN_BRACKET = (1.0e-6, 1.0e6)


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
    """Fit outcome: parameter estimates plus convergence diagnostics.

    ``converged`` is True on every report that is returned: a fit that cannot converge raises
    FitError instead (``qmemsim fit`` exits 3; fig4 and fig5 record {"error": ...} as their
    fit).  The field stays so that reports keep their keys.
    """

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
    eta: float = DetectionConfig.eta_total,
    background: float = DetectionConfig.background_n,
) -> float | np.ndarray:
    """Model fidelity F(t); vectorized over t.

    A t with no signal and no background (s + 2N = 0) raises ValueError.
    """
    if r0 < 0:
        raise ValueError("r0 must be >= 0")
    if tau <= 0 or sigma_gamma <= 0:
        raise ValueError("tau and sigma_gamma must be > 0")
    if not 0.0 <= gamma0 <= 1.0:
        raise ValueError("gamma0 must be in [0, 1]")
    if not 0.0 < eta <= 1.0 or background < 0:
        raise ValueError("invalid rate parameters")
    t_arr = np.asarray(t, dtype=float)
    signal = eta * r0 * np.exp(-t_arr / tau)
    rate = signal + 2.0 * background
    if np.any(rate == 0.0):
        raise ValueError("zero detection rate: no signal and no background, fidelity undefined")
    gamma = gamma0 * np.exp(-((t_arr / sigma_gamma) ** 2))
    out = ((1.0 + gamma) * signal + background) / (2.0 * rate)
    if np.ndim(t) == 0:
        return float(out)
    return out


def channel_model(channel: ChannelSpec, memory: MemoryConfig, det: DetectionConfig) -> dict:
    """``closed_form_fidelity`` keyword arguments for a configured channel.

    R0 honours ``memory.MEASURED_R0``; eta is the end-to-end detection efficiency.
    """
    return {
        "r0": retrieval_efficiency(channel.theta, 0.0, memory),
        "tau": memory.tau,
        "gamma0": memory.channel_static_gamma(channel),
        "sigma_gamma": memory.sigma_gamma,
        "eta": det.eta_total,
        "background": det.background_n,
    }


def _golden_section(f, lo: float, hi: float) -> tuple[float, int]:
    """Minimum of a unimodal f on [lo, hi], to a bracket width of 1e-10.

    Returns the bracket midpoint and the number of bracket reductions.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c = b_ - invphi * (b_ - a_)
    d = a_ + invphi * (b_ - a_)
    fc, fd = f(c), f(d)
    iterations = 0
    while b_ - a_ > 1e-10:
        iterations += 1
        if fc < fd:
            b_, d, fd = d, c, fc
            c = b_ - invphi * (b_ - a_)
            fc = f(c)
        else:
            a_, c, fc = c, d, fd
            d = a_ + invphi * (b_ - a_)
            fd = f(d)
    return (a_ + b_) / 2.0, iterations


def _at_bound(x: float, lo: float, hi: float) -> bool:
    return bool(min(x - lo, hi - x) < 1e-6)


def fit_exponential(dataset: DecayDataset) -> FitReport:
    """Fit a * exp(-t / tau) by variable projection.

    Weighted by 1/sigma^2 when the dataset carries errors.  At each tau
    the best amplitude is linear least squares in closed form, so one
    golden-section search over log(tau), bracketed by the data span times
    [1e-6, 1e6], fits both.  It runs on t - min(t) and v / max|v|, so
    tiny values and late times do not underflow.  Flat or rising data
    end at the upper edge with ``at_bound`` set.  Uncertainties come from
    the Jacobian at the optimum; without errors they are scaled by the
    residual variance, and left empty when no residual degree of freedom
    remains.  Raises FitError unless 2 distinct times carry positive
    values, no nonzero weighted value squares to 0 after the scaling (a
    span of more than ~150 decades, over which the cost is flat), and
    the fitted amplitude is positive and finite.
    """
    t = dataset.times
    positive = t[dataset.values > 0]
    if not positive.size or not positive.max() > positive.min():
        raise FitError("need positive values at 2 distinct times to fit an exponential")
    t0, scale = float(t.min()), float(np.max(np.abs(dataset.values)))
    v = dataset.values / scale
    w = np.ones_like(t) if dataset.sigmas is None else (scale / dataset.sigmas) ** 2
    if np.any((v != 0) & (w * v**2 == 0)):
        raise FitError("values span too many decades to fit: a nonzero value squares to 0")

    def amplitude(tau: float) -> tuple[float, np.ndarray]:
        e = np.exp(-(t - t0) / tau)  # 1 at t0: the denominator is never 0
        return float(np.sum(w * v * e) / np.sum(w * e**2)), e

    def sse(log_tau: float) -> float:
        a_, e = amplitude(float(np.exp(log_tau)))
        return float(np.sum(w * (a_ * e - v) ** 2))

    lo, hi = (float(np.log((t.max() - t0) * k)) for k in _TAU_SPAN_BRACKET)
    x, iterations = _golden_section(sse, lo, hi)
    tau = float(np.exp(x))
    a, e = amplitude(tau)
    if not a > 0:
        raise FitError(f"fitted exponential amplitude {a * scale:.6g} is not positive")
    with np.errstate(over="ignore"):
        r0 = float(a * scale * np.exp(t0 / tau))
    if not np.isfinite(r0):
        raise FitError(f"fitted amplitude at t = 0 overflows (tau = {tau:.6g})")

    cost = sse(x)
    # d(v / scale) / d(r0, tau); a / r0 is exp(-t0 / tau) / scale.
    jac = np.column_stack([e * (a / r0), a * t / tau**2 * e]) * np.sqrt(w)[:, None]
    uncertainties: dict[str, float] = {}
    if dataset.sigmas is not None or t.size > 2:
        try:
            cov = np.linalg.inv(jac.T @ jac)
            if dataset.sigmas is None:
                cov = cov * cost / (t.size - 2)
            if np.all(np.diag(cov) >= 0):
                uncertainties = {
                    "r0": float(np.sqrt(cov[0, 0])),
                    "tau": float(np.sqrt(cov[1, 1])),
                }
        except np.linalg.LinAlgError:
            pass
    return FitReport(
        params={"r0": r0, "tau": tau},
        uncertainties=uncertainties,
        residual_norm=float(np.sqrt(cost)) * (scale if dataset.sigmas is None else 1.0),
        iterations=iterations,
        converged=True,
        at_bound=_at_bound(x, lo, hi),
    )


def fit_sigma_gamma(dataset: DecayDataset, model: dict) -> FitReport:
    """Fit the dephasing width sigma_gamma of a ``channel_model`` bundle.

    The bundle's own ``sigma_gamma`` is ignored and every other parameter
    is held fixed.  One-dimensional weighted least squares on the
    closed-form fidelity: a golden-section search over log(sigma_gamma)
    in a fixed bracket.  Data that prefers the bracket edge (effectively
    no observable dephasing decay) is reported with ``at_bound`` set
    rather than rejected.
    """
    t = dataset.times
    v = dataset.values
    w = dataset.weights()

    def sse(log_sigma: float) -> float:
        curve = closed_form_fidelity(t, **{**model, "sigma_gamma": float(np.exp(log_sigma))})
        return float(np.sum(w * (curve - v) ** 2))

    lo, hi = np.log(_SIGMA_BRACKET[0]), np.log(_SIGMA_BRACKET[1])
    x, iterations = _golden_section(sse, lo, hi)
    return FitReport(
        params={"sigma_gamma": float(np.exp(x))},
        residual_norm=float(np.sqrt(sse(x))),
        iterations=iterations,
        converged=True,
        at_bound=_at_bound(x, lo, hi),
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
