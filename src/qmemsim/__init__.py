"""Deterministic simulator and estimation toolkit for a multi-channel
atomic quantum memory storing photonic polarization qubits.

The pipeline runs storage/retrieval physics (angle-dependent efficiency,
Gaussian-envelope dephasing, phase-matched readout angles), photon-count
simulation with background and finite detection efficiency, state and
process tomography from counts, and decay-model fitting, all seeded and
byte-reproducible.
"""

from .config import (
    ScenarioConfig,
    config_from_dict,
    effective_config,
    load_config,
)
from .detection import (
    MEASUREMENT_BASES,
    DetectionConfig,
    expected_counts,
    expected_rates,
)
from .errors import ConfigError, FitError, QmemsimError
from .fitting import (
    DecayDataset,
    FitReport,
    calibrate_static_gamma,
    channel_model,
    closed_form_fidelity,
    fit_exponential,
    fit_sigma_gamma,
)
from .memory import (
    DEFAULT_CHANNELS,
    ChannelSpec,
    MemoryConfig,
    PhaseMatchConfig,
    dephase,
    dephasing_factor,
    retrieval_efficiency,
    theta_prime,
    walk_off_r0,
)
from .polarization import (
    NAMED_KETS,
    PAULI_BASIS,
    STATE_LABELS,
    density_from_stokes,
    density_of,
    ket_from_named,
    stokes_of,
)
from .scenarios import (
    DEFAULT_CALIBRATION_TARGETS,
    CALIBRATION_TARGET_ERRORS,
    RunArtifact,
    TABLE_TIME_MS,
    calibrate_table,
    derive_rng,
    emit,
    run_fig3,
    run_fig4,
    run_fig5,
    run_simulate,
    run_table1,
    tomography_point,
)
from .tomography import (
    TomographyResult,
    identity_chi,
    monte_carlo_error,
    process_fidelity,
    process_matrix,
    state_estimate,
    stokes_from_counts,
)

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

# The relative imports above also bind the submodules, which are not exported.
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))
