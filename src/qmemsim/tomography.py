"""State and process reconstruction from photon-count records.

State estimation is linear inversion over Stokes parameters with a
deterministic physicality projection (eigenvalue clamping and trace
renormalization) instead of iterative likelihood maximization; at the
count scales simulated here the two agree to well within the error bars,
and the closed-form projection keeps every run bit-reproducible.

The process matrix chi expands a qubit channel in the ordered operator
basis PAULI_BASIS:  rho_out = sum_mn chi[m, n] sigma_m rho_in sigma_n+.
Four informationally complete input states give exactly the 16 real
constraints needed, so chi is recovered by one linear solve.  The trace
convention is Tr(chi) = 1 for post-selected (trace-renormalized) maps.

``_reconstruct`` is the single reconstruction path (counts -> Stokes ->
rho per input -> chi, solved then projected -> fidelity); the point
estimate and every bootstrap resample go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .detection import (
    CountRecord,
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
    records: dict[str, dict[str, CountRecord]]


def stokes_from_counts(records: Mapping[str, CountRecord]) -> np.ndarray:
    """Stokes vector from one count record per analysis basis.

    Each basis contributes S = (n_plus - n_minus)/(n_plus + n_minus) on
    its own axis; records are keyed by basis label (HV, DA, RL).
    """
    stokes = np.zeros(3)
    for basis in MEASUREMENT_BASES:
        try:
            rec = records[basis.label]
        except KeyError:
            raise ValueError(f"missing count record for basis {basis.label}") from None
        total = rec.n_plus + rec.n_minus
        if total <= 0:
            raise ValueError(f"zero total counts in basis {basis.label}")
        stokes[basis.axis] = (rec.n_plus - rec.n_minus) / total
    return stokes


def state_estimate(stokes: np.ndarray) -> TomographyResult:
    """Linear state estimate with projection to the physical set.

    Builds rho = (I + sum S_i sigma_i)/2; if that has a negative
    eigenvalue (raw Stokes estimates may leave the unit ball under shot
    noise) the eigenvalues are clamped to zero and the trace
    renormalized, and the projection flag is set.
    """
    stokes = np.asarray(stokes, dtype=float)
    if not np.all(np.isfinite(stokes)):
        raise ValueError("Stokes estimate contains non-finite values")
    rho_lin = density_from_stokes(stokes)
    vals, vecs = np.linalg.eigh(rho_lin)
    if vals[0] >= -_PROJECT_EIG_TOL:
        return TomographyResult(rho_lin, False, 0.0)
    clamped = np.clip(vals, 0.0, None)
    rho = (vecs * (clamped / clamped.sum())) @ vecs.conj().T
    distance = float(np.linalg.norm(rho - rho_lin))
    return TomographyResult(rho, True, distance)


def apply_process(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Forward map rho_out = sum_mn chi[m, n] sigma_m rho sigma_n+."""
    chi = np.asarray(chi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for m, sm in enumerate(PAULI_BASIS):
        for n, sn in enumerate(PAULI_BASIS):
            out += chi[m, n] * (sm @ rho @ sn.conj().T)
    return out


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
    # Row 4k + 2i + o, column 4m + n holds (sigma_m rho_in_k sigma_n+)[i, o].
    a = np.einsum(
        "mij,kjl,nol->kiomn", _PAULIS, checked[:, 0], _PAULIS.conj()
    ).reshape(16, 16)
    b = checked[:, 1].reshape(16)
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 16:
        raise ValueError("degenerate input set: states are not informationally complete")
    chi = solution.reshape(4, 4)
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
    for name, mat in (("chi", chi), ("chi_ideal", chi_ideal)):
        mat = np.asarray(mat)
        if abs(np.trace(mat).real - 1.0) > 1e-6:
            raise ValueError(f"{name} is not trace-normalized")
    return uhlmann_fidelity(chi, chi_ideal)


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

    For each prepared input: release after time t, measure expected rates
    in the three analysis bases, draw counts (or take exact means when
    ``rng`` is None), and reconstruct the output state; then solve for
    chi from the four pairs and score it against the identity process.
    Count draws consume ``rng`` in a fixed input x basis order, so a run
    is fully determined by the supplied stream.
    """
    input_labels = tuple(input_labels)
    records: dict[str, dict[str, CountRecord]] = {}
    for lbl in input_labels:
        outcome = release(density_of(ket_from_named(lbl)), channel, t, memory, pm)
        per_basis: dict[str, CountRecord] = {}
        for basis in MEASUREMENT_BASES:
            rates = expected_rates(outcome.state, outcome.efficiency, basis, det)
            if rng is None:
                rec = expected_counts(rates, pulses, basis.label)
            else:
                rec = sample_counts(rates, pulses, rng, basis.label)
            per_basis[basis.label] = rec
        records[lbl] = per_basis
    return _reconstruct(records, input_labels)


def _reconstruct(
    records: Mapping[str, Mapping[str, CountRecord]],
    input_labels: Sequence[str],
) -> ProcessResult:
    """Score per-input count records: Stokes -> rho -> chi -> fidelity."""
    input_labels = tuple(input_labels)
    pairs = [
        (density_of(ket_from_named(lbl)), state_estimate(stokes_from_counts(records[lbl])).rho)
        for lbl in input_labels
    ]
    chi_raw = process_matrix_linear(pairs)
    chi, applied, distance = project_process_matrix(chi_raw)
    return ProcessResult(
        chi=chi,
        process_fidelity=process_fidelity(chi, identity_chi()),
        input_labels=input_labels,
        raw_chi00=float(chi_raw[0, 0].real),
        projection_applied=applied,
        projection_distance=distance,
        records=records,
    )


def reconstruct_from_records(
    records: Mapping[str, Mapping[str, CountRecord]],
    input_labels: Sequence[str] = DEFAULT_INPUT_LABELS,
) -> float:
    """Process fidelity of the reconstruction given per-input count records."""
    return _reconstruct(records, input_labels).process_fidelity


def monte_carlo_error(
    records: Mapping[str, Mapping[str, CountRecord]],
    resamples: int,
    stream_for: Callable[[int], np.random.Generator],
    input_labels: Sequence[str] = DEFAULT_INPUT_LABELS,
) -> float:
    """Std deviation of the process fidelity under Poisson count resampling.

    Each resample redraws every count as Poisson(observed), reruns the
    full reconstruction and rescores; ``stream_for(j)`` must return an
    independent deterministic stream for resample j, which makes the
    estimate independent of evaluation order.  At least 100 resamples
    recommended for a stable estimate.
    """
    if resamples < 2:
        raise ValueError(f"need at least 2 resamples, got {resamples}")
    cells = [(lbl, basis.label) for lbl in input_labels for basis in MEASUREMENT_BASES]
    lam = np.array(
        [(records[lbl][b].n_plus, records[lbl][b].n_minus) for lbl, b in cells],
        dtype=float,
    )
    fidelities = np.empty(resamples)
    for j in range(resamples):
        draws = stream_for(j).poisson(lam).tolist()
        resampled: dict[str, dict[str, CountRecord]] = {lbl: {} for lbl in input_labels}
        for (lbl, b), (n_plus, n_minus) in zip(cells, draws):
            resampled[lbl][b] = CountRecord(b, n_plus, n_minus, records[lbl][b].pulses)
        fidelities[j] = reconstruct_from_records(resampled, input_labels)
    return float(np.std(fidelities, ddof=1))
