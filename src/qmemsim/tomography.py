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
linear map from the output Stokes rows (1, S_k) to the Hermitized chi:
``_input_set`` builds and rank-checks it once per input set, next to the
inputs' validated Stokes vectors S that the simulated rates
expected_rates(dephase(S, gamma), R, detection) start from.

``_reconstruct`` is the single reconstruction path, one vectorized pass
over the (n_inputs, 3, 2) counts of ``detection``: Stokes rows, their
closed-form projection, one matvec through the cached map, the chi
projection, and the fidelity against the identity process, which is the
projected chi[0, 0].  The point estimate and every bootstrap resample go
through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .detection import (
    DetectionConfig,
    MEASUREMENT_BASES,
    expected_counts,
    expected_rates,
    sample_counts,
)
from .memory import ChannelSpec, MemoryConfig, dephase, dephasing_factor, retrieval_efficiency
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
    """A reconstructed process matrix plus fidelity and diagnostics."""

    chi: np.ndarray
    process_fidelity: float
    raw_chi00: float
    projection_applied: bool
    projection_distance: float
    counts: np.ndarray


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
    if (counts < 0).any() or (total <= 0).any():
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


def _project_stokes(stokes: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """Rescale the Stokes rows (..., 3) with |S| > 1 + 2 _PROJECT_EIG_TOL to S/|S|.

    Returns the rows, written to ``out`` if given, and the mask (...) of
    the rescaled ones.  Non-finite rows are rejected.
    """
    length = np.sqrt(np.einsum("...i,...i->...", stokes, stokes))[..., None]
    if not np.isfinite(length).all():
        raise ValueError("Stokes estimate contains non-finite values")
    fired = length > 1.0 + 2.0 * _PROJECT_EIG_TOL
    return np.divide(stokes, np.where(fired, length, 1.0), out=out), fired[..., 0]


def _design_inverse(inputs: np.ndarray) -> np.ndarray:
    """Inverse of the 16x16 design matrix of four informationally complete states."""
    # Row 4k + 2i + o, column 4m + n holds (sigma_m rho_in_k sigma_n+)[i, o].
    a = np.einsum("mij,kjl,nol->kiomn", _PAULIS, inputs, _PAULIS.conj()).reshape(16, 16)
    if np.linalg.matrix_rank(a) < 16:
        raise ValueError("degenerate input set: states are not informationally complete")
    return np.linalg.inv(a)


@functools.lru_cache(maxsize=None)
def _input_set(input_labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Stokes vectors (4, 3) of the ideal inputs and their chi map (16, 16).

    The chi map takes the output rows x_k = (1, S_k), flattened, to the
    Hermitized vec chi: the Bloch map rho_k = sum_i x_ki sigma_i / 2
    folded into the design inverse.  For real x, chi+ comes from the
    conjugated map with the rows of (m, n) and (n, m) swapped.
    """
    if len(input_labels) != 4:
        raise ValueError(f"need exactly 4 input states, got {len(input_labels)}")
    states = np.array([density_of(ket_from_named(lbl)) for lbl in input_labels])
    stokes = np.array([stokes_of(rho) for rho in states])
    # Row 4k + 2a + b, column 4l + i holds delta_kl sigma_i[a, b] / 2.
    bloch = np.einsum("kl,iab->kabli", np.eye(4), _PAULIS / 2.0).reshape(16, 16)
    chi_map = _design_inverse(states) @ bloch
    swapped = chi_map.reshape(4, 4, 16).transpose(1, 0, 2).reshape(16, 16)
    chi_map = (chi_map + swapped.conj()) / 2.0
    for arr in (stokes, chi_map):
        arr.setflags(write=False)
    return stokes, chi_map


def process_matrix_linear(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Solve the 16x16 linear system for chi from four (in, out) pairs.

    The result is Hermitized but not projected; degenerate (not
    informationally complete) input sets are rejected.
    """
    if len(pairs) != 4:
        raise ValueError(f"need exactly 4 input/output pairs, got {len(pairs)}")
    checked = np.array([[check_density(rho) for rho in pair] for pair in pairs])
    chi = (_design_inverse(checked[:, 0]) @ checked[:, 1].reshape(16)).reshape(4, 4)
    return (chi + chi.conj().T) / 2.0


def project_process_matrix(chi: np.ndarray) -> tuple[np.ndarray, bool, float]:
    """Clamp negative eigenvalues of chi and renormalize Tr(chi) to 1.

    Returns (chi_projected, projection_applied, frobenius_distance).
    """
    chi = np.asarray(chi, dtype=complex)
    chi = (chi + chi.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(chi)
    if vals[0] >= -_PROJECT_EIG_TOL:
        return chi, False, 0.0
    clamped = np.maximum(vals, 0.0)
    projected = (vecs * (clamped / clamped.sum())) @ vecs.conj().T
    return projected, True, float(np.linalg.norm(projected - chi))


def process_matrix(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Reconstruct chi from four pairs, projected to the physical cone."""
    chi, _, _ = project_process_matrix(process_matrix_linear(pairs))
    return chi


def identity_chi() -> np.ndarray:
    """Process matrix of the ideal (identity) channel: single unit at (0,0)."""
    return np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Fidelity lambda <v|chi|v> of chi to a unitary target chi_ideal = lambda |v><v|.

    Exact for the rank-one chi of a unitary (Chuang & Nielsen 1997), and
    chi[0, 0] for identity_chi().  Both arguments must have unit trace; an
    ideal with an eigenvalue other than its largest above 1e-12 is rejected.
    """
    _check_unit_trace("chi", chi)
    _check_unit_trace("chi_ideal", chi_ideal)
    vals, vecs = np.linalg.eigh(chi_ideal)
    if vals[-2] > 1e-12:
        raise ValueError("chi_ideal is not rank one, so it is not the chi of a unitary")
    fid = vals[-1] * float(np.vdot(vecs[:, -1], np.asarray(chi) @ vecs[:, -1]).real)
    return min(max(fid, 0.0), 1.0)


def _check_unit_trace(name: str, mat: np.ndarray) -> None:
    if abs(np.asarray(mat).trace().real - 1.0) > 1e-6:
        raise ValueError(f"{name} is not trace-normalized")


def run_process_tomography(
    channel: ChannelSpec,
    t: float,
    memory: MemoryConfig,
    det: DetectionConfig,
    pulses: int,
    rng: np.random.Generator | None = None,
    input_labels: Sequence[str] = DEFAULT_INPUT_LABELS,
) -> ProcessResult:
    """Simulate full process tomography of storage and retrieval.

    The channel's dephasing factor and retrieval efficiency at time t
    are worked out once; the Stokes vectors of all inputs are dephased by
    that factor and their rates in the three analysis bases are taken at
    that efficiency.  Then all counts are drawn at once (or taken as exact
    means when ``rng`` is None), and ``_reconstruct`` turns them into chi
    and scores it against the identity process.  The draw consumes
    ``rng`` in input x basis x (+, -) order, so a run is fully determined
    by the supplied stream.
    """
    input_labels = tuple(input_labels)
    stokes, _ = _input_set(input_labels)
    gamma = dephasing_factor(t, channel, memory)
    efficiency = retrieval_efficiency(channel.theta, t, memory)
    rates = expected_rates(dephase(stokes, gamma), efficiency, det)
    counts = expected_counts(rates, pulses) if rng is None else sample_counts(rates, pulses, rng)
    return _reconstruct(counts, input_labels)


def _reconstruct(counts: np.ndarray, input_labels: Sequence[str]) -> ProcessResult:
    """Score (n_inputs, 3, 2) counts in one pass: Stokes -> chi -> fidelity.

    Stokes rows outside the unit ball are rescaled to S/|S| by
    ``_project_stokes``, as in ``state_estimate``.  The fidelity against
    the identity process is the projected chi[0, 0].
    """
    input_labels = tuple(input_labels)
    _, chi_map = _input_set(input_labels)
    shape = np.shape(counts)
    if shape != (len(input_labels), 3, 2):
        if shape[1:] == (3, 2):
            raise ValueError(f"need counts for {len(input_labels)} inputs, got {shape[0]}")
        raise ValueError(f"counts must have shape ({len(input_labels)}, 3, 2), got {shape}")
    stokes = stokes_from_counts(counts)
    rows = np.ones((len(stokes), 4))
    _project_stokes(stokes, out=rows[:, 1:])
    chi_raw = (chi_map @ rows.ravel()).reshape(4, 4)
    chi, applied, distance = project_process_matrix(chi_raw)
    _check_unit_trace("chi", chi)
    return ProcessResult(
        chi=chi,
        process_fidelity=min(max(float(chi[0, 0].real), 0.0), 1.0),
        raw_chi00=float(chi_raw[0, 0].real),
        projection_applied=applied,
        projection_distance=distance,
        counts=counts,
    )


def reconstruct_from_records(
    counts: np.ndarray,
    input_labels: Sequence[str] = DEFAULT_INPUT_LABELS,
) -> float:
    """Process fidelity of the reconstruction from (n_inputs, 3, 2) counts."""
    return _reconstruct(counts, input_labels).process_fidelity


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
