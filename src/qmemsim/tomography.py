"""State and process reconstruction from photon counts.

State estimation is linear inversion over Stokes parameters with a
deterministic physicality projection instead of iterative likelihood
maximization; at the count scales simulated here the two agree to well
within the error bars, and the closed-form projection keeps every run
bit-reproducible.  For a qubit, clamping the negative eigenvalue of
(I + S.sigma)/2 and renormalizing the trace is exactly the rescaling
S -> S/|S|; the process matrix chi is projected by clamping the negative
eigenvalues of its 4x4 eigendecomposition and renormalizing the trace.

The process matrix chi expands a qubit channel in the ordered operator
basis PAULI_BASIS:  rho_out = sum_mn chi[m, n] sigma_m rho_in sigma_n+,
with Tr(chi) = 1 for post-selected (trace-renormalized) maps.  Four
informationally complete inputs give the 16 real constraints needed, so
chi is one linear solve (Chuang & Nielsen, J. Mod. Opt. 44, 2455 (1997)).
The solve depends only on the inputs: ``_transfer_map`` writes it in
Pauli-transfer form as one real linear map from the output Stokes rows
(1, S_k) to chi, from the exact inverse of the inputs' rows (1, s_k) and a
table of Pauli traces.  Every chi here is ``_solve_chi`` applying such a
map: ``_input_set`` caches the map of the fixed H, V, D, R input quartet,
built from the exact ``NAMED_STOKES`` axes, so each entry is exactly 0,
+-1/8 or +-1/4, next to the inputs' Stokes vectors S that the simulated
rates expected_rates(dephase(S, gamma), R, detection) start from; and
``process_matrix`` builds the map of the states it is given.

``_reconstruct`` is the kernel for counts: Stokes rows, their
projection, ``_solve_chi``, ``_project_chi`` (one batched eigh over the
chi that a per-unit Cholesky certificate cannot prove unprojected),
then the projected chi[0, 0] (the fidelity to the identity process), in
one pass over a (..., 4, 3, 2) count stack.  A scenario scores tiles of at
most _SEED_BLOCK units.  ``monte_carlo_error`` takes units in chunks, draws
each chunk's bootstrap resamples with ``streams.poisson`` and scores the
unit-major draws in slices of at most _SLICE_UNITS, one call each.  The
map is applied by numpy's own einsum loop, which sums each entry of chi in
a fixed order whatever the unit count and calls no BLAS, so a unit's row
depends neither on the other units nor on the CPU's BLAS kernel.  Only the
chi that the certificate cannot pass reach LAPACK, through eigh's one call
per matrix, which is batch-independent too; so a stack of certified chi,
such as every expected-count run's, touches neither LAPACK nor BLAS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import MEASUREMENT_BASES
from .polarization import NAMED_STOKES, PAULI_BASIS, check_density, density_from_stokes, stokes_of
from .streams import poisson

#: The input preparation quartet of every tomography run (informationally complete).
DEFAULT_INPUT_LABELS = ("H", "V", "D", "R")

_PROJECT_EIG_TOL = 1e-12
#: The shift s = tol - e - c of ``_certified``'s Cholesky test; its docstring derives e and c.
_CERTIFY_SHIFT = _PROJECT_EIG_TOL - 2.0**-45 - 2.0**-48

#: Units ``scenarios.tomography_points`` takes at once, and keys the bootstrap draws at once:
#: all R resamples of max(1, _SEED_BLOCK // R) units, or _SEED_BLOCK of one unit's; one
#: ``reconstruct_from_records`` call scores at most _SLICE_UNITS of those draws.
_SEED_BLOCK, _SLICE_UNITS = 4096, 256


@dataclass(frozen=True)
class TomographyResult:
    """A reconstructed qubit state and whether it was projected to the physical set."""

    rho: np.ndarray
    physical_projection_applied: bool


@dataclass(frozen=True)
class ProcessResult:
    """Process fidelities, raw chi[0, 0] and chi projection masks of a (...) stack of units."""

    process_fidelity: np.ndarray
    raw_chi00: np.ndarray
    projection_applied: np.ndarray


def stokes_from_counts(counts: np.ndarray) -> np.ndarray:
    """Stokes vectors from (..., 3, 2) counts (basis x (+, -)).

    Each basis contributes S = (n_plus - n_minus)/(n_plus + n_minus) on
    its own axis.  An error names the first bad basis in input order: a
    non-finite or negative count, or a zero total.
    """
    counts = np.asarray(counts)
    if counts.shape[-2:] != (len(MEASUREMENT_BASES), 2):
        raise ValueError(f"counts must end in shape (3, 2), got {counts.shape}")
    plus, minus = counts[..., 0], counts[..., 1]
    if counts.min(initial=0) >= 0:  # NaN fails; with no negative count, no total is inf - inf
        total = plus + minus
        if total.min(initial=1) > 0 and total.max(initial=0) < np.inf:
            return (plus - minus) / total
    negative, finite = (counts < 0).any(axis=-1), np.isfinite(counts).all(axis=-1)
    first = tuple(np.argwhere(negative | ~finite | (counts == 0).all(axis=-1))[0])
    kind = "non-finite" if not finite[first] else "negative" if negative[first] else "zero total"
    raise ValueError(f"{kind} counts in basis {MEASUREMENT_BASES[first[-1]]}")


def state_estimate(stokes: np.ndarray) -> TomographyResult:
    """Linear state estimate with projection to the physical set.

    Builds rho = (I + sum S_i sigma_i)/2, whose eigenvalues are
    (1 +- |S|)/2.  If the smaller one is below -_PROJECT_EIG_TOL (raw
    Stokes estimates may leave the unit ball under shot noise), clamping
    it to zero and renormalizing the trace leaves the pure state
    (I + S/|S| . sigma)/2, which is returned with the projection flag set.
    """
    projected, fired = _project_stokes(np.asarray(stokes, dtype=float))
    return TomographyResult(density_from_stokes(projected), bool(fired))


def _project_stokes(stokes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale the Stokes rows (..., 3) with |S| > 1 + 2 _PROJECT_EIG_TOL to S/|S|.

    Returns the rows and the mask (...) of the rescaled ones.  Non-finite
    rows are rejected.
    """
    length = np.sqrt(np.einsum("...i,...i->...", stokes, stokes))[..., None]
    if not length.max(initial=0.0) < np.inf:  # NaN fails too
        raise ValueError("Stokes estimate contains non-finite values")
    fired = length > 1.0 + 2.0 * _PROJECT_EIG_TOL
    return stokes / np.where(fired, length, 1.0), fired[..., 0]


def _chi_map(states: np.ndarray) -> np.ndarray:
    """``_transfer_map`` of four input states (4, 2, 2), refused unless informationally complete.

    The states are informationally complete when their rows (1, s_k) have rank 4.
    """
    stokes = np.array([stokes_of(rho) for rho in states])
    if np.linalg.matrix_rank(np.concatenate((np.ones((4, 1)), stokes), axis=1)) < 4:
        raise ValueError("degenerate input set: states are not informationally complete")
    return _transfer_map(stokes)


def _transfer_map(stokes: np.ndarray) -> np.ndarray:
    """Real (32, 16) map to chi from the output rows (1, S_k) of inputs with Stokes vectors (4, 3).

    Pauli-transfer form (Greenbaum, arXiv:1509.02921): a channel takes sigma_j to
    sum_i R[i, j] sigma_i, so the outputs' rows, as the columns of X, are R B^T, where B has
    the rows (1, s_k), and R = X B^-T.  vec R = K vec chi with K[(i, j), (m, n)] =
    Tr(sigma_i sigma_m sigma_j sigma_n) / 2, and K+ K = 4 I, so vec chi = K+ vec R / 4.  For
    each (i, m, n) one j has a nonzero K, one of +-1 and +-1j, so each entry of the map is
    +-B^-1[j, k] / 4, real or imaginary: B^-1 comes from exact integer arithmetic, rounded
    once, and the map is exact wherever B^-1 is.  For the NAMED_STOKES axes B^-1 holds 0,
    +-1/2 and 1, so the map holds 0, +-1/8 and +-1/4.  Row 2(4m + n) holds the real part of
    chi[m, n], row 2(4m + n) + 1 its imaginary part; column 4k + i takes X[i, k].  Rows
    (m, n) and (n, m) are conjugate, so a real X gives a Hermitian chi.
    """
    paulis = np.array(PAULI_BASIS)
    k = np.einsum("iab,mbc,jcd,nda->ijmn", paulis, paulis, paulis, paulis) / 2.0
    b = np.ones((4, 4))
    b[:, 1:] = stokes
    chi_map = np.einsum("ijmn,jk->mnki", k.conj(), _exact_inverse(b)).reshape(16, 16) / 4.0
    return np.stack((chi_map.real, chi_map.imag), axis=1).reshape(32, 16)


def _exact_inverse(b: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular float matrix (n, n), each entry the exact one rounded once.

    b = m / q, q the largest denominator (a power of 2) of its entries and m integer.
    Gauss-Jordan on [m | I] in Python integers, with no division, leaves each row r with
    d_r on the diagonal of its left half and d_r times row r of m^-1 in its right half, so
    each entry of b^-1 = q m^-1 is one correctly rounded integer division.
    """
    n, ratios = len(b), [x.as_integer_ratio() for x in b.ravel().tolist()]
    q = max(den for _, den in ratios)
    eye = np.eye(n, dtype=int).tolist()
    rows = [[num * (q // den) for num, den in ratios[n * r : n * r + n]] + eye[r] for r in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        d = rows[c][c]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x * d - f * y for x, y in zip(rows[r], rows[c])]
    return np.array([[x * q / row[r] for x in row[n:]] for r, row in enumerate(rows)])


@functools.cache
def _input_set() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Stokes vectors (4, 3) of the DEFAULT_INPUT_LABELS inputs and their exact map."""
    stokes = np.array([NAMED_STOKES[lbl] for lbl in DEFAULT_INPUT_LABELS], dtype=float)
    chi_map = _transfer_map(stokes)
    for arr in (stokes, chi_map):
        arr.setflags(write=False)
    return stokes, chi_map


def _solve_chi(chi_map: np.ndarray, stokes: np.ndarray) -> np.ndarray:
    """Raw chi (..., 4, 4) of output Stokes vectors (..., 4, 3) through a ``_transfer_map``.

    The map is applied to each unit's flattened rows (1, S_k) by numpy's own einsum loop,
    with no BLAS call, summing each entry in the same order for every unit, so no bit of a
    unit's chi depends on the other units or on the CPU kernel.  No projection:
    ``_project_chi`` takes the result to the physical cone.
    """
    lead = stokes.shape[:-2]
    rows = np.ones(stokes.shape[:-1] + (4,))
    rows[..., 1:] = stokes
    vec_chi = np.einsum("ij,...j->...i", chi_map, rows.reshape(lead + (16,)))
    return vec_chi.view(complex).reshape(lead + (4, 4))


def _project_chi(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp the negative eigenvalues of unit-trace Hermitian chi (..., 4, 4) and renormalize.

    Only units with an eigenvalue below -_PROJECT_EIG_TOL change, in a copy of chi, so
    every other unit comes back bit for bit.  Returns the projected chi and the mask (...)
    of the changed units.  The units ``_certified`` passes skip eigh and have their traces
    checked as diagonal sums; eigh runs on the rest alone, and its one LAPACK call per
    matrix gives each unit what a call on the whole stack would.  The test costs ~0.1 us
    a chi and ~60 us a call, eigh ~2.9 us a chi (numpy 2.4, OpenBLAS at one thread, Xeon).
    """
    certified = _certified(chi)
    _check_unit_trace("chi", chi[certified].diagonal(0, -2, -1).real.sum(axis=-1))
    projected, applied = chi.copy(), np.zeros(certified.shape, dtype=bool)
    if not certified.all():
        vals, vecs = np.linalg.eigh(chi[~certified])
        _check_unit_trace("chi", vals.sum(axis=-1))
        fires = vals[:, 0] < -_PROJECT_EIG_TOL
        applied[~certified] = fires
        clamped, vecs = np.maximum(vals[fires], 0.0), vecs[fires]
        lam = clamped / clamped.sum(axis=-1, keepdims=True)
        projected[applied] = (vecs * lam[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return projected, applied


def _certified(chi: np.ndarray) -> np.ndarray:
    """Mask (...) of the chi (..., 4, 4) in which eigh provably finds no eigenvalue below -tol.

    eigh reads the Hermitian H of chi's lower triangle and real diagonal; a unit passes when the
    floating-point Cholesky factorization L L+ of A = H + sI, s = _CERTIFY_SHIFT, meets four
    positive finite pivots (a NaN or inf read fails one).  Proof for a unit that passes the trace
    check, u = 2**-53, gamma_k = k u / (1 - k u), tol = _PROJECT_EIG_TOL (Rump, BIT Numer. Math.
    46, 433 (2006)): A's diagonal is H's plus s rounded once, so ||A - H - sI||_2 <= gamma_1 tr(A).
    A complex product errs by < gamma_3 relative, fused multiply-add or not (Higham, Accuracy and
    Stability, 2nd ed., Lemma 3.5), any other operation by <= u; as L's diagonal holds the exact
    roots of the pivots, each entry of L L+ - A unrolls to <= 7 such factors and is within gamma_7
    (|L| |L+|)_ij (Higham, Thm. 10.3).  L is nonsingular, so lambda_min(A) > -gamma_7 ||L||_F^2 >=
    -gamma_7 tr(A) / (1 - gamma_7), less < 2**-1000 for underflow.  With tr(A) < 1.01 from the
    trace check, lambda_min(H) > -s - c, c = 2**-48 > 1.01 (gamma_7 / (1 - gamma_7) + gamma_1) +
    2**-1000; H's eigenvalues lie in (-tol, 2), and LAPACK's within e = p(4) 2**-52 ||H||_2 <= 64 *
    2**-51 = 2**-45 of them (LAPACK Users' Guide 4.7): eigh's smallest is > -s - c - e = -tol.
    The diagonal sum is within 2**-42 of the eigenvalue sum eigh would check as the trace.
    """
    with np.errstate(all="ignore"):
        h, pivots, low = np.moveaxis(chi, (-2, -1), (0, 1)), [], {}  # h[i, j]: each unit's (i, j)
        for j in range(4):
            pivot, col = h[j, j].real + _CERTIFY_SHIFT, {i: h[i, j] for i in range(j + 1, 4)}
            for k in range(j):
                conj = low[j, k].conj()
                pivot = pivot - (low[j, k] * conj).real
                for i in col:
                    col[i] = col[i] - low[i, k] * conj
            root = 1.0 / np.sqrt(pivot)
            low.update(((i, j), entry * root) for i, entry in col.items())
            pivots.append((0.0 < pivot) & (pivot < np.inf))
        return np.all(pivots, axis=0)


def process_matrix(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Reconstruct chi from four (in, out) density-matrix pairs, projected to the physical cone."""
    if len(pairs) != 4:
        raise ValueError(f"need exactly 4 input/output pairs, got {len(pairs)}")
    inputs = np.array([check_density(rho_in) for rho_in, _ in pairs])
    stokes = np.array([stokes_of(rho_out) for _, rho_out in pairs])
    return _project_chi(_solve_chi(_chi_map(inputs), stokes))[0]


def identity_chi() -> np.ndarray:
    """Process matrix of the ideal (identity) channel: single unit at (0,0)."""
    return np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Fidelity lambda <v|chi|v> of chi to a unitary target chi_ideal = lambda |v><v|.

    Exact for the rank-one chi of a unitary (Chuang & Nielsen 1997), and
    chi[0, 0] for identity_chi().  Both arguments must have unit trace; an
    ideal with an eigenvalue other than its largest above 1e-12 is rejected.
    """
    _check_unit_trace("chi", np.trace(chi).real)
    _check_unit_trace("chi_ideal", np.trace(chi_ideal).real)
    vals, vecs = np.linalg.eigh(chi_ideal)
    if vals[-2] > 1e-12:
        raise ValueError("chi_ideal is not rank one, so it is not the chi of a unitary")
    fid = vals[-1] * float(np.vdot(vecs[:, -1], np.asarray(chi) @ vecs[:, -1]).real)
    return min(max(fid, 0.0), 1.0)


def _check_unit_trace(name: str, trace: np.ndarray) -> None:
    """Reject real traces (...) unless each is 1 to within 1e-6 (a NaN fails)."""
    if not abs(trace - 1.0).max(initial=0.0) <= 1e-6:
        raise ValueError(f"{name} is not trace-normalized")


def _reconstruct(counts: np.ndarray) -> ProcessResult:
    """Score a (..., 4, 3, 2) count stack in one pass: Stokes -> chi -> fidelity.

    Every field of the result has the leading shape (...) of ``counts``,
    and a unit's values do not depend on the other units.
    """
    _, chi_map = _input_set()
    counts = np.asarray(counts)
    if counts.shape[-3:] != (4, 3, 2):
        if counts.ndim >= 3 and counts.shape[-2:] == (3, 2):
            raise ValueError(f"need counts for 4 inputs, got {counts.shape[-3]}")
        raise ValueError(f"counts must have shape (..., 4, 3, 2), got {counts.shape}")
    stokes, _ = _project_stokes(stokes_from_counts(counts))
    chi_raw = _solve_chi(chi_map, stokes)
    chi, applied = _project_chi(chi_raw)
    fidelity = np.minimum(np.maximum(chi[..., 0, 0].real, 0.0), 1.0)
    return ProcessResult(fidelity, chi_raw[..., 0, 0].real, applied)


def reconstruct_from_records(counts: np.ndarray) -> np.ndarray:
    """Process fidelities (...) of a (..., 4, 3, 2) count stack; one unit's is a float."""
    return _reconstruct(counts).process_fidelity


def monte_carlo_error(counts: np.ndarray, resamples: int, keys: np.ndarray) -> np.ndarray:
    """Std deviations (U,) of the process fidelities of a (U, 4, 3, 2) count stack.

    Resample j redraws unit k's counts as Poisson(observed) from the stream of key
    (*keys[k], j), ``keys`` the units' uint64 keys (U, L), so no sigma depends on the other
    units.  The data stays unit-major: units come in chunks of c = max(1, _SEED_BLOCK // R),
    a chunk's streams are drawn min(R, _SEED_BLOCK) resamples at a time, and
    ``reconstruct_from_records`` scores the draws in contiguous slices of at most
    _SLICE_UNITS.  Each unit's score is its own, so no size changes a bit, and a zero-total
    basis raises for the first unit, then resample, that has one.  A chunk's (c, R)
    fidelities are C-contiguous, so ``np.std`` reads each unit's R values in a row.
    """
    lam, keys = np.asarray(counts, dtype=float), np.asarray(keys)
    if lam.ndim != 4:
        raise ValueError(f"counts must be a (units, 4, 3, 2) stack, got {lam.shape}")
    if resamples < 2:
        raise ValueError(f"need at least 2 resamples, got {resamples}")
    if keys.dtype != np.uint64:  # poisson refuses others; a copy into uint64 would wrap them
        raise ValueError(f"keys must be uint64, got {keys.dtype}")
    if keys.ndim != 2 or len(keys) != len(lam) or not keys.shape[1]:
        raise ValueError(f"keys must be ({len(lam)}, L >= 1), one row per unit, got {keys.shape}")
    sigma = np.empty(len(lam))
    chunk, block = max(1, _SEED_BLOCK // resamples), min(resamples, _SEED_BLOCK)
    for first in range(0, len(lam), chunk):
        part, scored = lam[first : first + chunk], []
        for start in range(0, resamples, block):
            js = np.arange(start, min(start + block, resamples), dtype=np.uint64)
            stack = np.empty((len(part), len(js), keys.shape[1] + 1), dtype=np.uint64)
            stack[..., :-1], stack[..., -1] = keys[first : first + chunk, None], js
            draws = poisson(stack, part).reshape(-1, 4, 3, 2)
            for s in range(0, len(draws), _SLICE_UNITS):
                scored.append(reconstruct_from_records(draws[s : s + _SLICE_UNITS]))
        fidelities = np.concatenate(scored).reshape(len(part), resamples)
        sigma[first : first + chunk] = np.std(fidelities, axis=1, ddof=1)
    return sigma
