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
caches the map of a labelled input set next to the inputs' Stokes vectors
S that the simulated rates expected_rates(dephase(S, gamma), R, detection)
start from, and ``process_matrix`` builds the map of the states it is given.

``_reconstruct`` is the kernel for counts: Stokes rows, their
projection and ``_solve_chi`` (one batched eigh for the chi projection),
then the projected chi[0, 0] (the fidelity to the identity process), in
one pass over a (..., n_inputs, 3, 2) count stack.  A scenario scores all
its units in one call; a bootstrap resample is a call on one unit.  The
map is applied as a stacked real (32, 16) matrix-vector product per
unit, not as one matrix product over all units, whose BLAS blocking (and
so the last bits of a row) depends on the unit count: like eigh's
per-matrix LAPACK calls, it makes every row independent of the batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

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

#: Input preparation quartet used by default (informationally complete).
DEFAULT_INPUT_LABELS = ("H", "V", "D", "R")

_PROJECT_EIG_TOL = 1e-12

_PAULIS = np.array(PAULI_BASIS)


@dataclass(frozen=True)
class TomographyResult:
    """A reconstructed qubit state plus reconstruction diagnostics."""

    rho: np.ndarray
    physical_projection_applied: bool
    projection_distance: float


@dataclass(frozen=True)
class ProcessResult:
    """Reconstructed process matrices, fidelities and diagnostics of a (...) stack of units."""

    chi: np.ndarray
    process_fidelity: np.ndarray
    raw_chi00: np.ndarray
    projection_applied: np.ndarray
    projection_distance: np.ndarray


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
    (I + S/|S| . sigma)/2, which is returned with the projection flag set
    and its Frobenius distance (|S| - 1)/sqrt(2) from the linear estimate.
    """
    projected, fired = _project_stokes(np.asarray(stokes, dtype=float))
    rho, rho_lin = density_from_stokes(projected), density_from_stokes(stokes)
    return TomographyResult(rho, bool(fired), float(np.linalg.norm(rho - rho_lin)))


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


@functools.lru_cache(maxsize=None)
def _input_set(input_labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Stokes vectors (4, 3) of the ideal inputs and their ``_chi_map``."""
    if len(input_labels) != 4:
        raise ValueError(f"need exactly 4 input states, got {len(input_labels)}")
    states = np.array([density_of(ket_from_named(lbl)) for lbl in input_labels])
    stokes = np.array([stokes_of(rho) for rho in states])
    chi_map = _chi_map(states)
    for arr in (stokes, chi_map):
        arr.setflags(write=False)
    return stokes, chi_map


def _solve_chi(chi_map: np.ndarray, stokes: np.ndarray) -> tuple:
    """Chi (..., 4, 4) of output Stokes vectors (..., 4, 3) through a ``_chi_map``.

    Returns the ``_project_chi`` result (chi, mask, distance) and the raw chi.
    """
    lead = stokes.shape[:-2]
    rows = np.ones(stokes.shape[:-1] + (4,))
    rows[..., 1:] = stokes
    vec_chi = np.matmul(chi_map, rows.reshape(lead + (16, 1)))
    del rows  # free it before the eigendecomposition
    chi_raw = vec_chi.reshape(lead + (32,)).view(complex).reshape(lead + (4, 4))
    return (*_project_chi(chi_raw), chi_raw)


def _project_chi(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamp the negative eigenvalues of unit-trace Hermitian chi (..., 4, 4) and renormalize.

    Only units with an eigenvalue below -_PROJECT_EIG_TOL change.  Returns
    the projected chi, their mask (...) and their Frobenius distance from chi.
    """
    vals, vecs = np.linalg.eigh(chi)
    _check_unit_trace("chi", vals.sum(axis=-1))
    applied = vals[..., 0] < -_PROJECT_EIG_TOL
    fired = np.count_nonzero(applied)
    if not fired:
        return chi, applied, np.zeros(applied.shape)
    clamped = np.maximum(vals, 0.0)
    lam = clamped / clamped.sum(axis=-1, keepdims=True)
    projected = (vecs * lam[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    if fired < applied.size:
        lam = np.where(applied[..., None], lam, vals)
        projected = np.where(applied[..., None, None], projected, chi)
    return projected, applied, np.sqrt(np.square(lam - vals).sum(axis=-1))


def process_matrix(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Reconstruct chi from four (in, out) density-matrix pairs, projected to the physical cone."""
    if len(pairs) != 4:
        raise ValueError(f"need exactly 4 input/output pairs, got {len(pairs)}")
    inputs = np.array([check_density(rho_in) for rho_in, _ in pairs])
    stokes = np.array([stokes_of(rho_out) for _, rho_out in pairs])
    return _solve_chi(_chi_map(inputs), stokes)[0]


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


def _reconstruct(counts: np.ndarray, input_labels: Sequence[str]) -> ProcessResult:
    """Score a (..., n_inputs, 3, 2) count stack in one pass: Stokes -> chi -> fidelity.

    Every field of the result has the leading shape (...) of ``counts``,
    and a unit's values do not depend on the other units.
    """
    _, chi_map = _input_set(tuple(input_labels))
    counts = np.asarray(counts)
    n = len(input_labels)
    if counts.shape[-3:] != (n, 3, 2):
        if counts.ndim >= 3 and counts.shape[-2:] == (3, 2):
            raise ValueError(f"need counts for {n} inputs, got {counts.shape[-3]}")
        raise ValueError(f"counts must have shape (..., {n}, 3, 2), got {counts.shape}")
    stokes, _ = _project_stokes(stokes_from_counts(counts))
    chi, applied, distance, chi_raw = _solve_chi(chi_map, stokes)
    fidelity = np.minimum(np.maximum(chi[..., 0, 0].real, 0.0), 1.0)
    return ProcessResult(chi, fidelity, chi_raw[..., 0, 0].real, applied, distance)


def reconstruct_from_records(
    counts: np.ndarray,
    input_labels: Sequence[str] = DEFAULT_INPUT_LABELS,
) -> float:
    """Process fidelity of the reconstruction from one unit's (n_inputs, 3, 2) counts."""
    if np.ndim(counts) != 3:
        shape = np.shape(counts)
        raise ValueError(f"counts must have shape ({len(input_labels)}, 3, 2), got {shape}")
    return float(_reconstruct(counts, input_labels).process_fidelity)


def monte_carlo_error(
    counts: np.ndarray,
    resamples: int,
    stream_for: Callable[[int], np.random.Generator],
    input_labels: Sequence[str] = DEFAULT_INPUT_LABELS,
) -> float:
    """Std deviation of the process fidelity under Poisson count resampling.

    Each resample redraws every count as Poisson(observed), in one draw
    over the (n_inputs, 3, 2) ``counts``, reruns the full reconstruction
    and rescores; ``stream_for(j)`` must return an independent
    deterministic stream for resample j, which makes the estimate
    independent of evaluation order.  At least 100 resamples recommended
    for a stable estimate.
    """
    if resamples < 2:
        raise ValueError(f"need at least 2 resamples, got {resamples}")
    lam = np.asarray(counts, dtype=float)
    fidelities = np.empty(resamples)
    for j in range(resamples):
        fidelities[j] = reconstruct_from_records(stream_for(j).poisson(lam), input_labels)
    return float(np.std(fidelities, ddof=1))
