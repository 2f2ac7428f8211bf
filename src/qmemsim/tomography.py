"""State and process reconstruction from photon counts.

State estimation is linear inversion over Stokes parameters with a
deterministic physicality projection instead of iterative likelihood
maximization; at the count scales simulated here the two agree to well
within the error bars, and the closed-form projection keeps every run
bit-reproducible.  For a qubit, clamping the negative eigenvalue of
(I + S.sigma)/2 and renormalizing the trace is exactly the rescaling
S -> S/|S|, so a state is projected in closed form; the process matrix
chi is projected by clamping the negative eigenvalues of its 4x4
eigendecomposition and renormalizing the trace.

The process matrix chi expands a qubit channel in the ordered operator
basis PAULI_BASIS:  rho_out = sum_mn chi[m, n] sigma_m rho_in sigma_n+.
Four informationally complete input states give exactly the 16 real
constraints needed, so chi is recovered by one linear solve (Chuang &
Nielsen, J. Mod. Opt. 44, 2455 (1997)).  The 16x16 design matrix depends
only on the inputs, so its inverse is built and rank-checked once per
input set and each solve is one matmul.  The trace convention is
Tr(chi) = 1 for post-selected (trace-renormalized) maps.

``_reconstruct`` is the single reconstruction path (counts -> Stokes ->
rho per input -> chi, solved then projected -> fidelity); the point
estimate and every bootstrap resample go through it.  Counts are the
(n_inputs, 3, 2) arrays described in ``detection``.  Its fidelity
against the identity process is the projected chi[0, 0].
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
from .memory import ChannelSpec, MemoryConfig, PhaseMatchConfig, release
from .polarization import (
    PAULI_BASIS,
    check_density,
    density_from_stokes,
    density_of,
    ket_from_named,
    uhlmann_fidelity,
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
    input_labels: tuple[str, ...]
    raw_chi00: float
    projection_applied: bool
    projection_distance: float
    counts: np.ndarray


def stokes_from_counts(counts: np.ndarray) -> np.ndarray:
    """Stokes vector from one input's (3, 2) counts (basis x (+, -)).

    Each basis contributes S = (n_plus - n_minus)/(n_plus + n_minus) on
    its own axis.
    """
    counts = np.asarray(counts)
    if counts.shape != (len(MEASUREMENT_BASES), 2):
        raise ValueError(f"counts must have shape (3, 2), got {counts.shape}")
    stokes = np.zeros(3)
    for axis, (n_plus, n_minus) in enumerate(counts.tolist()):
        if n_plus < 0 or n_minus < 0:
            raise ValueError(f"negative counts in basis {MEASUREMENT_BASES[axis].label}")
        total = n_plus + n_minus
        if total <= 0:
            raise ValueError(f"zero total counts in basis {MEASUREMENT_BASES[axis].label}")
        stokes[axis] = (n_plus - n_minus) / total
    return stokes


def state_estimate(stokes: np.ndarray) -> TomographyResult:
    """Linear state estimate with projection to the physical set.

    Builds rho = (I + sum S_i sigma_i)/2, whose eigenvalues are
    (1 +- |S|)/2.  If the smaller one is below -_PROJECT_EIG_TOL (raw
    Stokes estimates may leave the unit ball under shot noise), clamping
    it to zero and renormalizing the trace leaves the pure state
    (I + S/|S| . sigma)/2, which is returned with the projection flag set
    and its Frobenius distance (|S| - 1)/sqrt(2) from the linear estimate.
    """
    stokes = np.asarray(stokes, dtype=float)
    if not np.all(np.isfinite(stokes)):
        raise ValueError("Stokes estimate contains non-finite values")
    rho_lin = density_from_stokes(stokes)
    length = float(np.linalg.norm(stokes))
    if length <= 1.0 + 2.0 * _PROJECT_EIG_TOL:
        return TomographyResult(rho_lin, False, 0.0)
    rho = density_from_stokes(stokes / length)
    return TomographyResult(rho, True, float(np.linalg.norm(rho - rho_lin)))


def apply_process(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Forward map rho_out = sum_mn chi[m, n] sigma_m rho sigma_n+."""
    chi = np.asarray(chi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for m, sm in enumerate(PAULI_BASIS):
        for n, sn in enumerate(PAULI_BASIS):
            out += chi[m, n] * (sm @ rho @ sn.conj().T)
    return out


def _design_inverse(inputs: np.ndarray) -> np.ndarray:
    """Read-only inverse of the 16x16 design matrix of four input states.

    Degenerate (not informationally complete) input sets are rejected.
    """
    # Row 4k + 2i + o, column 4m + n holds (sigma_m rho_in_k sigma_n+)[i, o].
    a = np.einsum("mij,kjl,nol->kiomn", _PAULIS, inputs, _PAULIS.conj()).reshape(16, 16)
    if np.linalg.matrix_rank(a) < 16:
        raise ValueError("degenerate input set: states are not informationally complete")
    inverse = np.linalg.inv(a)
    inverse.setflags(write=False)
    return inverse


@functools.lru_cache(maxsize=None)
def _input_set(input_labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ideal input states (4, 2, 2) and their design inverse.

    Built and validated once per label tuple, on first use.
    """
    if len(input_labels) != 4:
        raise ValueError(f"need exactly 4 input states, got {len(input_labels)}")
    states = np.array([check_density(density_of(ket_from_named(lbl))) for lbl in input_labels])
    states.setflags(write=False)
    return states, _design_inverse(states)


def _solve_chi(inverse: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Hermitized chi from the design inverse and the (4, 2, 2) outputs."""
    chi = (inverse @ outputs.reshape(16)).reshape(4, 4)
    return (chi + chi.conj().T) / 2.0


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
    return _solve_chi(_design_inverse(checked[:, 0]), checked[:, 1])


def project_process_matrix(chi: np.ndarray) -> tuple[np.ndarray, bool, float]:
    """Clamp negative eigenvalues of chi and renormalize Tr(chi) to 1.

    Returns (chi_projected, projection_applied, frobenius_distance).
    """
    chi = np.asarray(chi, dtype=complex)
    chi = (chi + chi.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(chi)
    if vals[0] >= -_PROJECT_EIG_TOL:
        return chi, False, 0.0
    clamped = np.clip(vals, 0.0, None)
    projected = (vecs * (clamped / clamped.sum())) @ vecs.conj().T
    return projected, True, float(np.linalg.norm(projected - chi))


def process_matrix(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Reconstruct chi from four pairs, projected to the physical cone."""
    chi, _, _ = project_process_matrix(process_matrix_linear(pairs))
    return chi


def identity_chi() -> np.ndarray:
    """Process matrix of the ideal (identity) channel: single unit at (0,0)."""
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 1.0
    return chi


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(chi) chi_ideal sqrt(chi)))^2.

    Both arguments must be Hermitian, PSD (to tolerance) and normalized
    to unit trace.  For a rank-1 ideal at (0,0) this reduces to chi[0,0].
    """
    _check_unit_trace("chi", chi)
    _check_unit_trace("chi_ideal", chi_ideal)
    return uhlmann_fidelity(chi, chi_ideal)


def _check_unit_trace(name: str, mat: np.ndarray) -> None:
    if abs(np.trace(np.asarray(mat)).real - 1.0) > 1e-6:
        raise ValueError(f"{name} is not trace-normalized")


def run_process_tomography(
    channel: ChannelSpec,
    t: float,
    memory: MemoryConfig,
    det: DetectionConfig,
    pm: PhaseMatchConfig,
    pulses: int,
    rng: np.random.Generator | None = None,
    input_labels: Sequence[str] = DEFAULT_INPUT_LABELS,
) -> ProcessResult:
    """Simulate full process tomography of storage and retrieval.

    For each prepared input: release after time t and take the expected
    rates in the three analysis bases; then draw all counts at once (or
    take exact means when ``rng`` is None), reconstruct the output states,
    solve for chi from the four pairs and score it against the identity
    process.  The draw consumes ``rng`` in input x basis x (+, -) order,
    so a run is fully determined by the supplied stream.
    """
    input_labels = tuple(input_labels)
    states, _ = _input_set(input_labels)
    outcomes = [release(rho_in, channel, t, memory, pm) for rho_in in states]
    rates = np.array([expected_rates(o.state, o.efficiency, det) for o in outcomes])
    if rng is None:
        counts = expected_counts(rates, pulses)
    else:
        counts = sample_counts(rates, pulses, rng)
    return _reconstruct(counts, input_labels)


def _reconstruct(counts: np.ndarray, input_labels: Sequence[str]) -> ProcessResult:
    """Score (n_inputs, 3, 2) counts: Stokes -> rho -> chi -> fidelity.

    The fidelity against the identity process, whose chi is a single
    unit at (0, 0), is the projected chi[0, 0].
    """
    input_labels = tuple(input_labels)
    _, inverse = _input_set(input_labels)
    if len(counts) != len(input_labels):
        raise ValueError(f"need counts for {len(input_labels)} inputs, got {len(counts)}")
    outputs = np.array([state_estimate(stokes_from_counts(c)).rho for c in counts])
    chi_raw = _solve_chi(inverse, outputs)
    chi, applied, distance = project_process_matrix(chi_raw)
    _check_unit_trace("chi", chi)
    return ProcessResult(
        chi=chi,
        process_fidelity=min(max(float(chi[0, 0].real), 0.0), 1.0),
        input_labels=input_labels,
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
