"""Exact 2x2 complex linear algebra for polarization qubits.

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

#: Exact Stokes vector of each named state, on the axes of ``stokes_of``: the
#: +1 eigenstates H, D, R of the three Paulis are +e0, +e1, +e2, and their
#: partners V, A, L are -e0, -e1, -e2.
NAMED_STOKES = {
    "H": (1, 0, 0),
    "V": (-1, 0, 0),
    "D": (0, 1, 0),
    "A": (0, -1, 0),
    "R": (0, 0, 1),
    "L": (0, 0, -1),
}


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


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a physical density matrix (Hermitian, unit trace, PSD)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace is {np.trace(rho).real!r}, expected 1")
    if np.min(np.linalg.eigvalsh(rho)) < -EIG_TOL:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def check_stokes(stokes: np.ndarray) -> np.ndarray:
    """Validate Stokes vectors (..., 3): real, finite, |S| <= 1 to check_density's EIG_TOL."""
    stokes = np.asarray(stokes)
    if stokes.ndim == 0 or stokes.shape[-1] != 3:
        raise ValueError(f"Stokes vectors must have shape (..., 3), got {stokes.shape}")
    if np.iscomplexobj(stokes):
        raise ValueError("Stokes vectors must be real, got a complex array")
    stokes = np.asarray(stokes, dtype=float)
    if not np.all(np.isfinite(stokes)):
        raise ValueError("Stokes vector contains non-finite values")
    length = np.sqrt((stokes * stokes).sum(axis=-1))  # np.linalg.norm's sum, bit for bit
    if np.any(length > 1.0 + 2.0 * EIG_TOL):  # (1 - |S|)/2 < -EIG_TOL
        raise ValueError("Stokes vector lies outside the unit ball")
    return stokes


def stokes_of(rho: np.ndarray) -> np.ndarray:
    """Stokes vector S_i = Tr(rho sigma_i), i = 1..3.

    Axis order matches PAULI_BASIS: S[0] is +1 for H, S[1] for D, S[2] for R.
    """
    rho = check_density(rho)
    return np.array([np.trace(rho @ s).real for s in (SIGMA_1, SIGMA_2, SIGMA_3)])


def density_from_stokes(stokes: np.ndarray) -> np.ndarray:
    """Linear inverse of stokes_of: rho = (I + sum_i S_i sigma_i)/2.

    No physicality check; callers clamp if ||S|| may exceed 1.
    """
    stokes = np.asarray(stokes, dtype=float)
    if stokes.shape != (3,):
        raise ValueError(f"Stokes vector must have shape (3,), got {stokes.shape}")
    x, y, z = stokes.tolist()
    return np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]) / 2.0

