"""Exact 2x2 / 4x4 complex linear algebra for polarization qubits.

Working basis is circular, {|R>, |L>}: the storage basis in which the
memory dephasing is diagonal.  Fixed phase convention for the six named
polarization states:

    |R> = (1, 0)            |L> = (0, 1)
    |H> = (1, 1)/sqrt(2)    |V> = -i (1, -1)/sqrt(2)
    |D> = (|H> + |V>)/sqrt(2)
    |A> = (|H> - |V>)/sqrt(2)

With this convention {H,V}, {D,A}, {R,L} are the +/- eigenpairs of the
three Pauli operators (in that order), and form three mutually unbiased
bases.
"""

from __future__ import annotations

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_TOL = 1e-10
EIG_REJECT = 1e-6

_SQ2 = np.sqrt(2.0)

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

#: Ordered operator basis used for process matrices: identity first, then
#: the Pauli whose +1 eigenstate is H, then D, then R.
PAULI_BASIS = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)

_KET_R = np.array([1.0, 0.0], dtype=complex)
_KET_L = np.array([0.0, 1.0], dtype=complex)
_KET_H = np.array([1.0, 1.0], dtype=complex) / _SQ2
_KET_V = -1j * np.array([1.0, -1.0], dtype=complex) / _SQ2
_KET_D = (_KET_H + _KET_V) / _SQ2
_KET_A = (_KET_H - _KET_V) / _SQ2

NAMED_KETS = {
    "H": _KET_H,
    "V": _KET_V,
    "D": _KET_D,
    "A": _KET_A,
    "R": _KET_R,
    "L": _KET_L,
}

STATE_LABELS = tuple(NAMED_KETS)


def ket_from_named(label: str) -> np.ndarray:
    """Return the amplitude pair (c_R, c_L) for one of H, V, D, A, R, L."""
    try:
        return NAMED_KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown polarization state label: {label!r}") from None


def check_ket(ket: np.ndarray) -> np.ndarray:
    """Validate normalization of an amplitude pair; returns it as complex."""
    ket = np.asarray(ket, dtype=complex)
    if ket.shape != (2,):
        raise ValueError(f"ket must have shape (2,), got {ket.shape}")
    norm2 = float(np.vdot(ket, ket).real)
    if abs(norm2 - 1.0) > NORM_TOL:
        raise ValueError(f"ket not normalized: |c_R|^2 + |c_L|^2 = {norm2!r}")
    return ket


def density_of(ket: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi| of a normalized amplitude pair."""
    ket = check_ket(ket)
    return np.outer(ket, ket.conj())


def check_density(rho: np.ndarray, eig_tol: float = EIG_TOL) -> np.ndarray:
    """Validate a physical density matrix (Hermitian, unit trace, PSD)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace is {np.trace(rho).real!r}, expected 1")
    if np.min(np.linalg.eigvalsh(rho)) < -eig_tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def stokes_of(rho: np.ndarray) -> np.ndarray:
    """Stokes vector S_i = Tr(rho sigma_i), i = 1..3.

    Axis order matches PAULI_BASIS: S[0] is +1 for H, S[1] for D, S[2] for R.
    """
    rho = check_density(rho)
    return np.array(
        [np.trace(rho @ s).real for s in (SIGMA_1, SIGMA_2, SIGMA_3)]
    )


def density_from_stokes(stokes: np.ndarray) -> np.ndarray:
    """Linear inverse of stokes_of: rho = (I + sum_i S_i sigma_i)/2.

    No physicality check; callers clamp if ||S|| may exceed 1.
    """
    stokes = np.asarray(stokes, dtype=float)
    if stokes.shape != (3,):
        raise ValueError(f"Stokes vector must have shape (3,), got {stokes.shape}")
    x, y, z = stokes.tolist()
    return np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]) / 2.0


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """PSD square root of a Hermitian PSD matrix (dim 2 or 4).

    Eigenvalues in [-EIG_REJECT, 0) are clamped to zero; anything more
    negative is rejected as unphysical input.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if mat.shape != (n, n) or n not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got {mat.shape}")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] < -EIG_REJECT:
        raise ValueError(f"matrix has significantly negative eigenvalue {vals[0]!r}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _rank_one_part(mat: np.ndarray) -> tuple[float, np.ndarray] | None:
    vals, vecs = np.linalg.eigh(mat)
    if np.all(vals[:-1] <= 1e-12):
        return float(vals[-1]), vecs[:, -1]
    return None


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """F = (Tr sqrt(sqrt(a) b sqrt(a)))^2 for Hermitian PSD a, b.

    When one operand is (numerically) rank one the exact reduction
    F = lambda <v| other |v> is used; the general eigh-based square root
    loses ~sqrt(eps) of precision on rank-deficient matrices, which
    would swamp tight fidelity tolerances.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for first, second in ((a, b), (b, a)):
        pure = _rank_one_part(first)
        if pure is not None:
            lam, v = pure
            fid = lam * float(np.real(np.vdot(v, second @ v)))
            return min(max(fid, 0.0), 1.0)
    root = psd_sqrt(a)
    inner = root @ b @ root
    inner = (inner + inner.conj().T) / 2.0
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    fid = float(np.sum(np.sqrt(vals)) ** 2)
    return min(max(fid, 0.0), 1.0)


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity between two physical qubit states."""
    return uhlmann_fidelity(check_density(rho), check_density(sigma))
