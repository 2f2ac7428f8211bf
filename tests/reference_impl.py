"""Reference implementations and random physical inputs shared by the tests.

Matrix-form models of the package's Stokes-space physics, random states
and channels, and the scalar sampling and post-selection chain that the
batched code paths are checked against.
"""

from fractions import Fraction

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
    signal = det.eta_total * efficiency
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

    Returns p * state + (1 - p) * I/2 with p = eta*R / (eta*R + 2N),
    the density-matrix form of the map the count pipeline reconstructs.
    """
    state_deph = check_density(state_deph)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency}")
    signal = det.eta_total * efficiency
    denom = signal + 2.0 * det.background_n
    if denom == 0.0:
        raise ValueError("post-selection undefined: zero signal and zero background")
    p = signal / denom
    return p * state_deph + (1.0 - p) * np.eye(2, dtype=complex) / 2.0


def fraction_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix of Fractions, by Gauss-Jordan with row swaps."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        head = rows[c][c]
        rows[c] = [x / head for x in rows[c]]
        for r in range(n):
            factor = rows[r][c]
            if r != c and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def fraction_chi_map(stokes) -> list[list[Fraction]]:
    """The (32, 16) chi map of inputs with exact Stokes vectors (4, 3), in Fractions.

    Chuang & Nielsen's route: the 16x16 complex design matrix of the inputs
    (I + s_k . sigma)/2, its inverse times the Bloch map of the output rows
    (1, S_k), Hermitized.  Complex matrices Z = X + iY are carried as the
    real blocks [[X, -Y], [Y, X]]; the design matrix and the Bloch map have
    Gaussian-integer multiples of 1/2 as entries, exact in float.
    """
    paulis = np.array(PAULI_BASIS)
    rho = (paulis[0] + np.einsum("ki,iab->kab", np.asarray(stokes, dtype=float), paulis[1:])) / 2
    design = np.einsum("mij,kjl,nol->kiomn", paulis, rho, paulis.conj()).reshape(16, 16)
    bloch = np.einsum("kl,iab->kabli", np.eye(4), paulis / 2).reshape(16, 16)

    def blocks(z):
        x, y = ([[Fraction(v) for v in row] for row in part.tolist()] for part in (z.real, z.imag))
        return [rx + [-v for v in ry] for rx, ry in zip(x, y)] + [ry + rx for rx, ry in zip(x, y)]

    inverse, bl = fraction_inverse(blocks(design)), blocks(bloch)
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*bl)] for row in inverse]
    re = [row[:16] for row in product[:16]]
    im = [row[:16] for row in product[16:]]
    out = [[Fraction(0)] * 16 for _ in range(32)]
    for m in range(4):
        for n in range(4):
            for col in range(16):
                # chi[m, n] and conj(chi[n, m]) averaged: Hermitian for real output rows.
                out[2 * (4 * m + n)][col] = (re[4 * m + n][col] + re[4 * n + m][col]) / 2
                out[2 * (4 * m + n) + 1][col] = (im[4 * m + n][col] - im[4 * n + m][col]) / 2
    return out
