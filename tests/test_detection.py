import numpy as np
import pytest

from qmemsim.detection import (
    BASIS_DA,
    BASIS_HV,
    BASIS_RL,
    MEASUREMENT_BASES,
    CountRecord,
    DetectionConfig,
    effective_detection_efficiency,
    expected_counts,
    expected_rates,
    postselected_state,
    sample_counts,
    total_detection_efficiency,
)
from qmemsim.memory import dephase
from qmemsim.polarization import density_of, ket_from_named, state_fidelity
from conftest import random_density

DET = DetectionConfig()
H_STATE = density_of(ket_from_named("H"))


def test_chain_product():
    assert abs(total_detection_efficiency(DET) - 0.22504) < 1e-12


def test_chain_product_all_ones():
    cfg = DetectionConfig(eta_fiber=1.0, eta_etalons=1.0, eta_mmf=1.0, eta_spd=1.0)
    assert total_detection_efficiency(cfg) == 1.0


def test_chain_product_multiplicativity():
    halved = DetectionConfig(eta_spd=0.25)
    assert abs(total_detection_efficiency(halved) - 0.22504 / 2.0) < 1e-12


def test_effective_efficiency_uses_measured_total():
    # The measured end-to-end efficiency (23%) drives the rates; the
    # chain product stays available for budget breakdowns.
    assert effective_detection_efficiency(DET) == 0.23
    chain_only = DetectionConfig(eta_total=None)
    assert abs(effective_detection_efficiency(chain_only) - 0.22504) < 1e-12


def test_expected_rates_h_state_chain_efficiency():
    cfg = DetectionConfig(eta_total=None)
    mu_plus, mu_minus = expected_rates(H_STATE, 0.127, BASIS_HV, cfg)
    assert abs(mu_plus - (0.22504 * 0.127 + 7e-4)) < 1e-12
    assert abs(mu_minus - 7e-4) < 1e-15


def test_expected_rates_sum_identity(rng):
    for _ in range(20):
        state = random_density(rng)
        eff = rng.uniform(0, 1)
        for basis in MEASUREMENT_BASES:
            mu_plus, mu_minus = expected_rates(state, eff, basis, DET)
            total = DET.n_bar * 0.23 * eff + 2 * DET.background_n
            assert abs(mu_plus + mu_minus - total) < 1e-15


def test_expected_rates_maximally_mixed_is_symmetric():
    half = np.eye(2) / 2
    for basis in MEASUREMENT_BASES:
        mu_plus, mu_minus = expected_rates(half, 0.1, basis, DET)
        assert abs(mu_plus - mu_minus) < 1e-15


def test_expected_rates_zero_efficiency_gives_background():
    mu_plus, mu_minus = expected_rates(H_STATE, 0.0, BASIS_DA, DET)
    assert mu_plus == mu_minus == DET.background_n


def test_basis_projectors_complete_and_unbiased():
    for basis in MEASUREMENT_BASES:
        total = basis.plus_projector + basis.minus_projector
        assert np.max(np.abs(total - np.eye(2))) < 1e-15
    for a in (BASIS_HV, BASIS_DA, BASIS_RL):
        for b in (BASIS_HV, BASIS_DA, BASIS_RL):
            if a is b:
                continue
            overlap = np.trace(a.plus_projector @ b.plus_projector).real
            assert abs(overlap - 0.5) < 1e-14


def test_sample_counts_deterministic_per_seed():
    rates = (0.03, 7e-4)
    a = sample_counts(rates, 10**5, np.random.default_rng(7), "HV")
    b = sample_counts(rates, 10**5, np.random.default_rng(7), "HV")
    assert (a.n_plus, a.n_minus) == (b.n_plus, b.n_minus)


def test_sample_counts_zero_rates():
    rec = sample_counts((0.0, 0.0), 10**5, np.random.default_rng(0))
    assert rec.n_plus == 0 and rec.n_minus == 0


def test_sample_counts_poisson_moments():
    rates = (0.03, 7e-4)
    pulses = 10**5
    draws = np.array(
        [
            (r.n_plus, r.n_minus)
            for r in (
                sample_counts(rates, pulses, np.random.default_rng(seed))
                for seed in range(1000)
            )
        ],
        dtype=float,
    )
    means = draws.mean(axis=0)
    # 3 sigma of the mean estimator over 1000 draws
    for mean, mu in zip(means, rates):
        assert abs(mean - pulses * mu) < 3.0 * np.sqrt(pulses * mu / 1000.0)
    var_plus = draws[:, 0].var(ddof=1) / pulses**2
    assert abs(var_plus - rates[0] / pulses) < 0.15 * rates[0] / pulses


def test_sample_counts_rejects_overflow_scale():
    with pytest.raises(ValueError):
        sample_counts((0.01, 0.01), 10**9 + 1, np.random.default_rng(0))


def test_expected_counts_hold_exact_means():
    rec = expected_counts((0.03, 7e-4), 10**5, "HV")
    assert rec.n_plus == 3000.0
    assert rec.n_minus == 70.0


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord("HV", -1, 0, 100)
    with pytest.raises(ValueError):
        CountRecord("HV", 0, 0, 0)


def test_postselected_state_no_background_is_identity_map(rng):
    cfg = DetectionConfig(background_n=0.0)
    for _ in range(10):
        rho = random_density(rng)
        assert np.max(np.abs(postselected_state(rho, 0.1, cfg) - rho)) < 1e-15


def test_postselected_state_mixed_fixed_point():
    half = np.eye(2) / 2
    out = postselected_state(half, 0.1, DET)
    assert np.max(np.abs(out - half)) < 1e-15


def test_postselected_state_zero_signal_zero_background_rejected():
    cfg = DetectionConfig(background_n=0.0)
    with pytest.raises(ValueError):
        postselected_state(np.eye(2) / 2, 0.0, cfg)


def test_postselected_survival_fidelity(rng):
    # <H| post(dephase(|H><H|, gamma), R) |H>: the signal branch keeps
    # (1+gamma)/2 of the population, the background branch half, so
    # F = ((1+gamma) s + 2N) / (2 (s + 2N)) with s the signal rate.
    # (The process fidelity chi_00 of the same map has a single N in
    # the numerator; that identity is covered by the tomography tests.)
    for _ in range(25):
        gamma = rng.uniform(0, 1)
        eff = rng.uniform(0.01, 0.2)
        out = postselected_state(dephase(H_STATE, gamma), eff, DET)
        got = state_fidelity(out, H_STATE)
        signal = 0.23 * eff
        want = ((1 + gamma) * signal + 2 * 7e-4) / (2 * (signal + 2 * 7e-4))
        assert abs(got - want) < 1e-12
