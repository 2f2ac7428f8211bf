import numpy as np
import pytest

from qmemsim.polarization import (
    NAMED_KETS,
    PAULI_BASIS,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    STATE_LABELS,
    check_density,
    check_ket,
    check_stokes,
    density_from_stokes,
    density_of,
    ket_from_named,
    stokes_of,
)
from reference_impl import random_density

FAMILIES = (("H", "V"), ("D", "A"), ("R", "L"))


def test_named_states_are_normalized():
    for label in STATE_LABELS:
        ket = ket_from_named(label)
        assert abs(np.vdot(ket, ket).real - 1.0) < 1e-15


def test_families_are_orthogonal():
    for plus, minus in FAMILIES:
        overlap = np.vdot(ket_from_named(plus), ket_from_named(minus))
        assert abs(overlap) < 1e-15


def test_families_are_mutually_unbiased():
    for i, fam_a in enumerate(FAMILIES):
        for fam_b in FAMILIES[i + 1 :]:
            for a in fam_a:
                for b in fam_b:
                    overlap = abs(np.vdot(ket_from_named(a), ket_from_named(b))) ** 2
                    assert abs(overlap - 0.5) < 1e-14


def test_named_states_are_pauli_eigenstates():
    # (state, sigma, eigenvalue): each family diagonalizes one Pauli axis.
    cases = [
        ("H", SIGMA_1, 1), ("V", SIGMA_1, -1),
        ("D", SIGMA_2, 1), ("A", SIGMA_2, -1),
        ("R", SIGMA_3, 1), ("L", SIGMA_3, -1),
    ]
    for label, sigma, eig in cases:
        ket = ket_from_named(label)
        assert np.allclose(sigma @ ket, eig * ket, atol=1e-14)


def test_stokes_of_named_states():
    expected = {
        "H": (1, 0, 0), "V": (-1, 0, 0),
        "D": (0, 1, 0), "A": (0, -1, 0),
        "R": (0, 0, 1), "L": (0, 0, -1),
    }
    for label, stokes in expected.items():
        rho = density_of(ket_from_named(label))
        assert np.allclose(stokes_of(rho), stokes, atol=1e-14)


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        ket_from_named("X")


def test_check_ket_rejects_unnormalized():
    with pytest.raises(ValueError):
        check_ket(np.array([1.0, 1.0]))


def test_stokes_round_trip(rng):
    for _ in range(50):
        rho = random_density(rng)
        back = density_from_stokes(stokes_of(rho))
        assert np.max(np.abs(back - rho)) < 1e-12


def test_density_from_stokes_inverse_direction(rng):
    for _ in range(50):
        s = rng.uniform(-1, 1, size=3)
        s *= rng.uniform(0, 1) / max(np.linalg.norm(s), 1e-12)
        assert np.max(np.abs(stokes_of(density_from_stokes(s)) - s)) < 1e-12


def test_check_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_density(np.array([[0.6, 0.1j], [0.1j, 0.4]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        check_density(np.diag([1.2, -0.2]))  # negative eigenvalue


def test_check_stokes_accepts_the_states_check_density_accepts(rng):
    stack = np.array([[stokes_of(random_density(rng)) for _ in range(5)] for _ in range(2)])
    assert check_stokes(stack).shape == (2, 5, 3)
    named = np.array([stokes_of(density_of(ket)) for ket in NAMED_KETS.values()])
    assert np.array_equal(check_stokes(named), named)
    # Both checks draw the unit-ball edge at the same eigenvalue tolerance.
    for length, ok in ((1.0 + 1e-12, True), (1.0 + 1e-9, False)):
        s = np.array([0.6, 0.0, 0.8]) * length
        for check in (check_stokes, lambda s: check_density(density_from_stokes(s))):
            if ok:
                check(s)
            else:
                with pytest.raises(ValueError):
                    check(s)
    for bad, match in (
        (np.float64(0.5), "shape"),
        (np.zeros((3, 2)), "shape"),
        (np.array([0.0, np.nan, 0.0]), "non-finite"),
        (np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -np.inf]]), "non-finite"),
        (np.array([[0.0, 0.0, 1.0], [0.8, 0.8, 0.0]]), "unit ball"),
    ):
        with pytest.raises(ValueError, match=match):
            check_stokes(bad)


def test_pauli_basis_is_orthogonal():
    for i, a in enumerate(PAULI_BASIS):
        for j, b in enumerate(PAULI_BASIS):
            hs = np.trace(a.conj().T @ b).real
            assert abs(hs - (2.0 if i == j else 0.0)) < 1e-14


def test_named_kets_cover_exactly_six_states():
    assert set(NAMED_KETS) == {"H", "V", "D", "A", "R", "L"}
