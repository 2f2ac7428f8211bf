import re

import numpy as np
import pytest

from qmemsim.detection import DetectionConfig
from qmemsim.errors import FitError
from qmemsim.fitting import (
    DecayDataset,
    calibrate_static_gamma,
    channel_model,
    closed_form_fidelity,
    fit_exponential,
    fit_sigma_gamma,
)
from qmemsim.memory import DEFAULT_CHANNELS, MemoryConfig

S2_PARAMS = dict(r0=0.127, tau=2.9, gamma0=1.0, sigma_gamma=104.0)


def random_bundle(rng):
    """A full ``closed_form_fidelity`` bundle with every parameter drawn."""
    return dict(
        r0=rng.uniform(0.02, 0.2),
        tau=rng.uniform(0.8, 5.0),
        gamma0=rng.uniform(0.0, 1.0),
        sigma_gamma=rng.uniform(20.0, 300.0),
        n_bar=rng.uniform(0.3, 3.0),
        eta=rng.uniform(0.05, 1.0),
        background=rng.uniform(0.0, 5e-3),
    )


def test_closed_form_reference_values():
    assert abs(closed_form_fidelity(0.0, **S2_PARAMS) - 0.9656974844821954) < 1e-15
    assert abs(closed_form_fidelity(0.005, **S2_PARAMS) - 0.9656410018596912) < 1e-15
    assert abs(closed_form_fidelity(6.0, **S2_PARAMS) - 0.7924966388150465) < 1e-15


def test_closed_form_zero_signal_floor():
    # No signal: post-selection keeps only background, F = N / 4N = 1/4.
    assert closed_form_fidelity(0.0, 0.0, 2.9, 1.0, 104.0) == 0.25


def test_closed_form_vectorized():
    t = np.array([0.0, 1.0, 6.0])
    out = closed_form_fidelity(t, **S2_PARAMS)
    assert out.shape == (3,)
    assert abs(out[2] - 0.7924966388150465) < 1e-15


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_fidelity(0.0, -0.1, 2.9, 1.0, 104.0)
    with pytest.raises(ValueError):
        closed_form_fidelity(0.0, 0.1, 2.9, 1.5, 104.0)
    with pytest.raises(ValueError):
        closed_form_fidelity(0.0, 0.1, -1.0, 1.0, 104.0)
    # No signal and no background: F = 0 / 0 has no value.
    with pytest.raises(ValueError, match="zero detection rate"):
        closed_form_fidelity(0.0, 0.0, 2.9, 1.0, 104.0, background=0.0)
    # A tiny lifetime underflows the signal to 0 at t > 0 only.
    assert closed_form_fidelity(0.0, 0.127, 1e-300, 1.0, 104.0, background=0.0) == 1.0
    with pytest.raises(ValueError, match="zero detection rate"):
        closed_form_fidelity(np.array([0.0, 0.005]), 0.127, 1e-300, 1.0, 104.0, background=0.0)


def test_channel_model_matches_closed_form():
    mem = MemoryConfig()
    det = DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    for t in (0.0, 0.005, 2.2, 6.0):
        want = closed_form_fidelity(t, **S2_PARAMS)
        got = closed_form_fidelity(t, **channel_model(s2, mem, det))
        assert abs(got - want) < 1e-15


def test_channel_model_uses_static_gamma():
    mem = MemoryConfig(static_gamma={"S2": 0.8917592722497402})
    det = DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    model = channel_model(s2, mem, det)
    assert model["gamma0"] == 0.8917592722497402
    assert abs(closed_form_fidelity(0.005, **model) - 0.914) < 1e-12


def test_dataset_validation():
    with pytest.raises(ValueError):
        DecayDataset(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        DecayDataset(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        DecayDataset(np.array([-1.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        DecayDataset(np.array([0.0, 1.0]), np.array([1.0, 0.5]), np.array([0.1, 0.0]))


def test_fit_exponential_exact_recovery(rng):
    t = np.linspace(0.0, 8.0, 12)
    for _ in range(10):
        a = rng.uniform(0.05, 0.3)
        tau = rng.uniform(0.8, 5.0)
        report = fit_exponential(DecayDataset(t, a * np.exp(-t / tau)))
        assert report.converged
        assert abs(report.params["r0"] - a) / a < 1e-9
        assert abs(report.params["tau"] - tau) / tau < 1e-9


def test_fit_exponential_noisy_weighted(rng):
    t = np.linspace(0.005, 6.0, 12)
    truth = 0.127 * np.exp(-t / 2.9)
    sigma = np.full_like(t, 1e-3)
    values = truth + rng.normal(scale=sigma)
    report = fit_exponential(DecayDataset(t, values, sigma))
    assert report.converged
    assert abs(report.params["tau"] - 2.9) / 2.9 < 0.1
    assert set(report.uncertainties) == {"r0", "tau"}
    assert report.uncertainties["tau"] > 0


def _weighted_sse(dataset, r0, tau):
    curve = r0 * np.exp(-dataset.times / tau)
    return float(np.sum(dataset.weights() * (curve - dataset.values) ** 2))


@pytest.mark.parametrize("weighted", [False, True])
def test_fit_exponential_is_a_stationary_point(rng, weighted):
    t = np.linspace(0.005, 6.0, 12)
    sigma = 1e-3 * (1.0 + t)
    for _ in range(10):
        values = 0.127 * np.exp(-t / 2.9) + rng.normal(scale=sigma)
        dataset = DecayDataset(t, values, sigma if weighted else None)
        report = fit_exponential(dataset)
        best = _weighted_sse(dataset, **report.params)
        for key in ("r0", "tau"):
            for step in (1.0 - 1e-6, 1.0 + 1e-6):
                moved = {**report.params, key: report.params[key] * step}
                assert _weighted_sse(dataset, **moved) >= best


def test_fit_exponential_is_unit_agnostic(rng):
    t = np.linspace(0.005, 6.0, 12)
    for _ in range(10):
        tau = rng.uniform(0.8, 5.0)
        values = rng.uniform(0.05, 0.3) * np.exp(-t / tau)
        ms = fit_exponential(DecayDataset(t, values)).params["tau"]
        us = fit_exponential(DecayDataset(1000.0 * t, values)).params["tau"]
        assert abs(us / (1000.0 * ms) - 1.0) < 1e-8


def test_fit_exponential_flags_non_decaying_data():
    # The best decay for flat or rising data is tau -> infinity: the
    # search runs to the bracket edge and must say so.
    t = np.linspace(0.0, 6.0, 12)
    for values in (np.full_like(t, 0.1), 0.1 * np.exp(t / 3.0)):
        report = fit_exponential(DecayDataset(t, values))
        assert report.at_bound


def test_fit_exponential_two_points_report_only_given_errors():
    # Two points leave no residual degrees of freedom: without sigmas
    # there is nothing to scale the covariance by.
    t, values = np.array([0.0, 1.0]), np.array([1.0, 0.5])
    assert fit_exponential(DecayDataset(t, values)).uncertainties == {}
    report = fit_exponential(DecayDataset(t, values, np.array([0.01, 0.01])))
    assert set(report.uncertainties) == {"r0", "tau"}


def test_fit_exponential_rejects_nonpositive_data():
    t = np.linspace(0.0, 5.0, 6)
    with pytest.raises(FitError, match="2 distinct times"):
        fit_exponential(DecayDataset(t, np.zeros_like(t)))
    # Positive values at one time only, however often it repeats.
    for times, values in (([1.0, 1.0], [0.5, 0.4]), ([2.0, 2.0, 2.0, 3.0], [0.9, 0.8, 0.7, 0.0])):
        with pytest.raises(FitError, match="2 distinct times"):
            fit_exponential(DecayDataset(np.array(times), np.array(values)))
    # Positive at two times, but the best curve has a negative amplitude.
    values = np.array([0.1, 0.1, -5.0, -5.0, -5.0, -5.0])
    with pytest.raises(FitError, match="amplitude"):
        fit_exponential(DecayDataset(t, values))


def test_fit_exponential_recovers_underflowed_late_data():
    # Values near 1e-166: their squares underflow unless the search runs
    # on v / max|v|, and exp(-t / tau) does unless it runs on t - min(t).
    t = np.linspace(1100.0, 1106.0, 8)
    values = 0.127 * np.exp(-t / 2.9)
    for sigmas in (None, 0.01 * values):
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            report = fit_exponential(DecayDataset(t, values, sigmas))
        assert abs(report.params["r0"] / 0.127 - 1.0) < 1e-7
        assert abs(report.params["tau"] / 2.9 - 1.0) < 1e-7
        assert not report.at_bound
        assert set(report.uncertainties) == {"r0", "tau"}
        assert all(np.isfinite(list(report.uncertainties.values())))


def test_fit_exponential_rejects_an_overflowing_amplitude():
    # A drop of 150 decades in 1 ms, 1000 ms after t = 0: r0 = inf.
    dataset = DecayDataset(np.array([1000.0, 1001.0]), np.array([1.0, 1e-150]))
    with pytest.raises(FitError, match="overflows"):
        fit_exponential(dataset)


@pytest.mark.parametrize("smallest", [1e-200, 1e-300])
def test_fit_exponential_rejects_values_spanning_too_many_decades(smallest):
    # (v / max|v|)^2 underflows to 0, so the cost is flat over small tau
    # and the search used to return tau = 0.002684 without at_bound.
    dataset = DecayDataset(np.array([0.0, 1.0]), np.array([1.0, smallest]))
    with pytest.raises(FitError, match="too many decades"):
        fit_exponential(dataset)


def test_fit_exponential_recovers_a_drop_of_100_decades():
    report = fit_exponential(DecayDataset(np.array([0.0, 1.0]), np.array([1.0, 1e-100])))
    assert abs(report.params["tau"] * 100.0 * np.log(10.0) - 1.0) < 1e-10
    assert abs(report.params["r0"] - 1.0) < 1e-10
    assert not report.at_bound


def test_fit_sigma_gamma_noise_free_recovery(rng):
    t = np.array([0.005, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0])
    bundles = [S2_PARAMS] + [random_bundle(rng) for _ in range(8)]
    for model in bundles:
        # A weak dephasing amplitude leaves the width unidentifiable.
        model = {**model, "gamma0": max(model["gamma0"], 0.5)}
        values = closed_form_fidelity(t, **model)
        # The solver ignores the bundle's own sigma_gamma.
        report = fit_sigma_gamma(DecayDataset(t, values), {**model, "sigma_gamma": 1.0})
        assert report.converged
        assert not report.at_bound
        want = model["sigma_gamma"]
        assert abs(report.params["sigma_gamma"] - want) / want < 1e-6


def test_fit_sigma_gamma_flags_bracket_edge():
    # A flat dephasing envelope carries no width information; the search
    # runs to the bracket edge and must say so instead of failing.
    t = np.linspace(0.005, 6.0, 12)
    values = closed_form_fidelity(t, **{**S2_PARAMS, "sigma_gamma": 1e9})
    report = fit_sigma_gamma(DecayDataset(t, values), S2_PARAMS)
    assert report.at_bound


def test_calibrate_round_trip(rng):
    for _ in range(25):
        model = random_bundle(rng)
        t = rng.uniform(0.0, 6.0)
        target = closed_form_fidelity(t, **model)
        # The solver ignores the bundle's own gamma0.
        got = calibrate_static_gamma(target, t, {**model, "gamma0": 0.5})
        assert abs(got - model["gamma0"]) < 1e-10


def test_calibrate_reference_channel_values():
    # Exact algebraic inversions at the table storage time.
    cases = {
        0.14: (0.902, 0.8607934896046422),
        0.127: (0.914, 0.8917592722497402),
        0.0800023536228853: (0.895, 0.8883186572593773),
    }
    for r0, (target, gamma0) in cases.items():
        got = calibrate_static_gamma(target, 0.005, {**S2_PARAMS, "r0": r0})
        assert abs(got - gamma0) < 1e-12


def test_calibrate_rejects_unreachable_target():
    floor = closed_form_fidelity(0.005, **{**S2_PARAMS, "gamma0": 0.0})
    ceiling = closed_form_fidelity(0.005, **S2_PARAMS)
    assert 0.4 < floor < ceiling < 1.0
    message = re.escape(f"outside achievable range [{floor:.6g}, {ceiling:.6g}]")
    with pytest.raises(FitError, match=message):
        calibrate_static_gamma(ceiling + 0.01, 0.005, S2_PARAMS)
    with pytest.raises(FitError, match=message):
        calibrate_static_gamma(floor - 0.01, 0.005, S2_PARAMS)
    # The range edges themselves are reachable.
    assert calibrate_static_gamma(floor, 0.005, S2_PARAMS) == 0.0
    assert calibrate_static_gamma(ceiling, 0.005, S2_PARAMS) == 1.0


def test_calibrate_rejects_zero_signal():
    with pytest.raises(FitError, match="signal"):
        calibrate_static_gamma(0.9, 0.005, {**S2_PARAMS, "r0": 0.0})
