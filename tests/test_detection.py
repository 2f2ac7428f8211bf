import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemsim.detection import (
    MEASUREMENT_BASES,
    DetectionConfig,
    expected_counts,
    expected_rates,
)
from qmemsim.memory import dephase
from qmemsim.polarization import (
    density_from_stokes,
    density_of,
    ket_from_named,
    stokes_of,
)
from reference_impl import (
    postselected_state,
    random_density,
    random_ket,
    reference_dephase,
    reference_rates,
)

DET = DetectionConfig()
H_KET = ket_from_named("H")
H_STATE = density_of(H_KET)
H_STOKES = stokes_of(H_STATE)


def test_expected_rates_h_state_chain_efficiency():
    # The chain's measured end-to-end efficiency (23%) drives the rates.
    rates = expected_rates(H_STOKES, 0.127, DET)
    assert rates.shape == (3, 2)
    mu_plus, mu_minus = rates[MEASUREMENT_BASES.index("HV")]
    assert abs(mu_plus - (0.23 * 0.127 + 7e-4)) < 1e-12
    assert abs(mu_minus - 7e-4) < 1e-15


def test_expected_rates_sum_identity(rng):
    for _ in range(20):
        state = random_density(rng)
        eff = rng.uniform(0, 1)
        total = DET.n_bar * 0.23 * eff + 2 * DET.background_n
        for mu_plus, mu_minus in expected_rates(stokes_of(state), eff, DET):
            assert abs(mu_plus + mu_minus - total) < 1e-15


def test_expected_rates_maximally_mixed_is_symmetric():
    half = np.eye(2) / 2
    for mu_plus, mu_minus in expected_rates(stokes_of(half), 0.1, DET):
        assert abs(mu_plus - mu_minus) < 1e-15


def test_expected_rates_zero_efficiency_gives_background():
    assert np.all(expected_rates(H_STOKES, 0.0, DET) == DET.background_n)


def test_expected_rates_broadcasts_an_array_of_efficiencies(rng):
    stokes = np.array([stokes_of(random_density(rng)) for _ in range(4)])
    efficiencies = np.append(rng.uniform(0, 0.2, size=5), [0.0, 1.0])
    batched = expected_rates(stokes, efficiencies[:, None], DET)
    assert batched.shape == (7, 4, 3, 2)
    for efficiency, rates in zip(efficiencies.tolist(), batched):
        assert np.array_equal(rates, expected_rates(stokes, efficiency, DET))
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match=rf"efficiency must be in \[0, 1\], got {bad}"):
            expected_rates(stokes, np.array([[0.1], [bad]]), DET)


def test_expected_rates_rejects_invalid_stokes():
    for bad, match in (
        (np.array([1.5, 0.0, 0.0]), "unit ball"),
        (np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), "non-finite"),
        (np.eye(2) / 2, "shape"),
        (np.eye(2, dtype=complex) / 2, "shape"),
        (np.array([0.0, 0.0, 0.5 + 0.0j]), "real"),
    ):
        with pytest.raises(ValueError, match=match):
            expected_rates(bad, 0.1, DET)


@st.composite
def _physical_states(draw):
    # Full-rank (Ginibre), pure and maximally mixed states.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ginibre", "pure", "mixed"]))
    if kind == "ginibre":
        return random_density(rng)
    if kind == "pure":
        return density_of(random_ket(rng))
    return np.eye(2, dtype=complex) / 2


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    _physical_states(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, DET.background_n]),
)
def test_stokes_forward_map_matches_matrix_reference(rho, gamma, efficiency, background_n):
    det = DetectionConfig(background_n=background_n)
    got = expected_rates(dephase(stokes_of(rho), gamma), efficiency, det)
    want = reference_rates(reference_dephase(rho, gamma), efficiency, det)
    assert got.shape == (3, 2)
    assert np.max(np.abs(got - want)) < 1e-15


def test_expected_counts_hold_exact_means():
    assert expected_counts((0.03, 7e-4), 10**5).tolist() == [3000.0, 70.0]
    rates = expected_rates(H_STOKES, 0.127, DET)
    assert np.array_equal(expected_counts(rates, 10**5), 10**5 * rates)


def test_count_validation():
    rates = np.full((3, 2), 0.01)
    negative = rates.copy()
    negative[1, 0] = -1e-3
    with pytest.raises(ValueError, match="non-negative"):
        expected_counts(negative, 100)
    for pulses in (0, 10**9 + 1):
        with pytest.raises(ValueError, match="pulses"):
            expected_counts(rates, pulses)


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
        out = postselected_state(density_from_stokes(dephase(H_STOKES, gamma)), eff, DET)
        got = np.vdot(H_KET, out @ H_KET).real
        signal = 0.23 * eff
        want = ((1 + gamma) * signal + 2 * 7e-4) / (2 * (signal + 2 * 7e-4))
        assert abs(got - want) < 1e-12
