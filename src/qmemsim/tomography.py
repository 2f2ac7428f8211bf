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
The design matrix depends only on the inputs, and so does the whole
linear map from the output Stokes rows (1, S_k) to the Hermitized chi.
Every chi here is ``_solve_chi`` applying a ``_chi_map``: ``_input_set``
caches the map of the fixed H, V, D, R input quartet next to the inputs'
Stokes vectors S that the simulated rates
expected_rates(dephase(S, gamma), R, detection) start from, and
``process_matrix`` builds the map of the states it is given.

``_reconstruct`` is the kernel for counts: Stokes rows, their
projection, ``_solve_chi``, ``_project_chi`` (one batched eigh), then the
projected chi[0, 0] (the fidelity to the identity process), in one pass
over a (..., 4, 3, 2) count stack.  A scenario scores all
its units in one call, and so does each bootstrap resample, whose counts
``monte_carlo_error`` draws with ``streams.poisson``.  The map is applied
as a stacked real (32, 16) matrix-vector product per unit, not as one
matrix product over all units, whose BLAS blocking (and so the last bits
of a row) depends on the unit count: like eigh's per-matrix LAPACK calls,
it makes every row batch-independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import MEASUREMENT_BASES
from .polarization import (
    PAULI_BASIS,
    check_density,
    density_from_stokes,
    density_of,
    ket_from_named,
    stokes_of,
)
from .streams import poisson

#: The input preparation quartet of every tomography run (informationally complete).
DEFAULT_INPUT_LABELS = ("H", "V", "D", "R")

_PROJECT_EIG_TOL = 1e-12

#: Keys the bootstrap draws at once: those of max(1, _SEED_BLOCK // U) resamples of U units.
_SEED_BLOCK = 4096

_PAULIS = np.array(PAULI_BASIS)


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
    its own axis.  An error names the first bad basis in input order.
    """
    counts = np.asarray(counts)
    if counts.shape[-2:] != (len(MEASUREMENT_BASES), 2):
        raise ValueError(f"counts must end in shape (3, 2), got {counts.shape}")
    plus, minus = counts[..., 0], counts[..., 1]
    total = plus + minus
    if counts.min(initial=0) < 0 or total.min(initial=1) <= 0:
        negative = (counts < 0).any(axis=-1)
        first = tuple(np.argwhere(negative | (total <= 0))[0])
        kind = "negative" if negative[first] else "zero total"
        raise ValueError(f"{kind} counts in basis {MEASUREMENT_BASES[first[-1]]}")
    return (plus - minus) / total


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
    """Real (32, 16) map from the output rows (1, S_k) of four input states (4, 2, 2) to chi.

    The map takes the rows x_k = (1, S_k), flattened, to the Hermitized
    vec chi: the Bloch map rho_k = sum_i x_ki sigma_i / 2 folded into the
    inverse of the 16x16 design matrix, whose rank is checked first.  For
    real x, chi+ comes from the conjugated map with the rows of (m, n) and
    (n, m) swapped.  Rows 2j and 2j + 1 hold the real and imaginary parts
    of complex row j.
    """
    # Row 4k + 2i + o, column 4m + n holds (sigma_m rho_in_k sigma_n+)[i, o].
    a = np.einsum("mij,kjl,nol->kiomn", _PAULIS, states, _PAULIS.conj()).reshape(16, 16)
    if np.linalg.matrix_rank(a) < 16:
        raise ValueError("degenerate input set: states are not informationally complete")
    # Row 4k + 2a + b, column 4l + i holds delta_kl sigma_i[a, b] / 2.
    bloch = np.einsum("kl,iab->kabli", np.eye(4), _PAULIS / 2.0).reshape(16, 16)
    chi_map = np.linalg.inv(a) @ bloch
    swapped = chi_map.reshape(4, 4, 16).transpose(1, 0, 2).reshape(16, 16)
    chi_map = (chi_map + swapped.conj()) / 2.0
    return np.stack((chi_map.real, chi_map.imag), axis=1).reshape(32, 16)


@functools.cache
def _input_set() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Stokes vectors (4, 3) of the DEFAULT_INPUT_LABELS inputs and their ``_chi_map``."""
    states = np.array([density_of(ket_from_named(lbl)) for lbl in DEFAULT_INPUT_LABELS])
    stokes = np.array([stokes_of(rho) for rho in states])
    chi_map = _chi_map(states)
    for arr in (stokes, chi_map):
        arr.setflags(write=False)
    return stokes, chi_map


def _solve_chi(chi_map: np.ndarray, stokes: np.ndarray) -> np.ndarray:
    """Raw chi (..., 4, 4) of output Stokes vectors (..., 4, 3) through a ``_chi_map``.

    No projection: ``_project_chi`` takes the result to the physical cone.
    """
    lead = stokes.shape[:-2]
    rows = np.ones(stokes.shape[:-1] + (4,))
    rows[..., 1:] = stokes
    vec_chi = np.matmul(chi_map, rows.reshape(lead + (16, 1)))
    return vec_chi.reshape(lead + (32,)).view(complex).reshape(lead + (4, 4))


def _project_chi(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp the negative eigenvalues of unit-trace Hermitian chi (..., 4, 4) and renormalize.

    Only units with an eigenvalue below -_PROJECT_EIG_TOL change.  Returns
    the projected chi and the mask (...) of the changed units.
    """
    vals, vecs = np.linalg.eigh(chi)
    _check_unit_trace("chi", vals.sum(axis=-1))
    applied = vals[..., 0] < -_PROJECT_EIG_TOL
    if not applied.any():
        return chi, applied
    clamped = np.maximum(vals, 0.0)
    lam = clamped / clamped.sum(axis=-1, keepdims=True)
    projected = (vecs * lam[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return np.where(applied[..., None, None], projected, chi), applied


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
    units; one reconstruction rescores the stack.  The streams of max(1, _SEED_BLOCK // U)
    resamples are drawn at a time.
    """
    lam = np.asarray(counts, dtype=float)
    if lam.ndim != 4:
        raise ValueError(f"counts must be a (units, 4, 3, 2) stack, got {lam.shape}")
    if resamples < 2:
        raise ValueError(f"need at least 2 resamples, got {resamples}")
    fidelities = np.empty((len(lam), resamples))
    step = max(1, _SEED_BLOCK // max(1, len(lam)))
    for start in range(0, resamples, step):
        js = np.arange(start, min(start + step, resamples), dtype=np.uint64)
        block = np.empty((len(lam), len(js), keys.shape[1] + 1), dtype=np.uint64)
        block[..., :-1], block[..., -1] = keys[:, None], js
        for j, draws in enumerate(np.moveaxis(poisson(block, lam), 1, 0), start):
            fidelities[:, j] = reconstruct_from_records(draws)
    return np.std(fidelities, axis=1, ddof=1)
