"""Reference implementations and random physical inputs shared by the tests.

Matrix-form models of the package's Stokes-space physics, random states
and channels, and the scalar sampling and post-selection chain that the
batched code paths are checked against.
"""

import numpy as np

from qmemsim.detection import MEASUREMENT_BASES, expected_counts
from qmemsim.polarization import PAULI_BASIS, check_density, density_of, ket_from_named


def random_ket(rng: np.random.Generator) -> np.ndarray:
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    return ket / np.linalg.norm(ket)


def random_density(rng: np.random.Generator) -> np.ndarray:
    # Ginibre construction: always full rank, always physical.
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_cptp_kraus(rng: np.random.Generator, n_kraus: int = 4) -> list[np.ndarray]:
    """Random CPTP qubit channel via a Stinespring isometry."""
    g = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * i : 2 * i + 2, :] for i in range(n_kraus)]


def apply_kraus(kraus: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def chi_from_kraus(kraus: list[np.ndarray]) -> np.ndarray:
    """Pauli-basis process matrix of a Kraus channel (trace normalized)."""
    coeffs = np.array(
        [[np.trace(s.conj().T @ k) / 2.0 for s in PAULI_BASIS] for k in kraus]
    )
    chi = coeffs.T @ coeffs.conj()
    return chi / np.trace(chi).real


def apply_process(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Forward map rho_out = sum_mn chi[m, n] sigma_m rho sigma_n+."""
    chi = np.asarray(chi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for m, sm in enumerate(PAULI_BASIS):
        for n, sn in enumerate(PAULI_BASIS):
            out += chi[m, n] * (sm @ rho @ sn.conj().T)
    return out


def reference_dephase(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Matrix form of memory.dephase: the R/L off-diagonals scale by gamma."""
    out = np.array(rho, dtype=complex)
    out[0, 1] *= gamma
    out[1, 0] *= gamma
    return out


def reference_rates(rho: np.ndarray, efficiency: float, det) -> np.ndarray:
    """Matrix form of detection.expected_rates: one projector trace per basis."""
    signal = det.n_bar * det.eta_total * efficiency
    rates = []
    for basis in MEASUREMENT_BASES:
        projector = density_of(ket_from_named(basis[0]))
        p_plus = min(max(float(np.trace(projector @ rho).real), 0.0), 1.0)
        rates.append(
            (signal * p_plus + det.background_n, signal * (1.0 - p_plus) + det.background_n)
        )
    return np.array(rates)


def numpy_stream(seed: int, *key: int) -> np.random.Generator:
    """numpy.random's own stream of the key (seed, *key), the reference for ``derive_rng``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, *key))))


def sample_counts(rates: np.ndarray, pulses: int, rng: np.random.Generator) -> np.ndarray:
    """Integer counts n ~ Poisson(pulses * rates), drawn in C order of ``rates``.

    The draw a scenario makes for one unit from that unit's stream.
    """
    return rng.poisson(expected_counts(rates, pulses))


def postselected_state(state_deph: np.ndarray, efficiency: float, det) -> np.ndarray:
    """State conditioned on a detection event: signal mixed with background.

    Returns p * state + (1 - p) * I/2 with p = n_bar*eta*R / (n_bar*eta*R + 2N),
    the density-matrix form of the map the count pipeline reconstructs.
    """
    state_deph = check_density(state_deph)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency}")
    signal = det.n_bar * det.eta_total * efficiency
    denom = signal + 2.0 * det.background_n
    if denom == 0.0:
        raise ValueError("post-selection undefined: zero signal and zero background")
    p = signal / denom
    return p * state_deph + (1.0 - p) * np.eye(2, dtype=complex) / 2.0
