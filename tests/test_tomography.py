import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemsim import tomography
from qmemsim.detection import DetectionConfig, expected_counts, expected_rates
from qmemsim.memory import (
    DEFAULT_CHANNELS,
    MemoryConfig,
    dephase,
    dephasing_factor,
    retrieval_efficiency,
)
from qmemsim.polarization import (
    PAULI_BASIS,
    density_from_stokes,
    density_of,
    ket_from_named,
    stokes_of,
)
from qmemsim.tomography import (
    _PROJECT_EIG_TOL,
    DEFAULT_INPUT_LABELS,
    _chi_map,
    _input_set,
    _project_chi,
    _reconstruct,
    identity_chi,
    monte_carlo_error,
    process_fidelity,
    process_matrix,
    reconstruct_from_records,
    state_estimate,
    stokes_from_counts,
)
from reference_impl import (
    apply_kraus,
    apply_process,
    chi_from_kraus,
    numpy_stream,
    postselected_state,
    random_cptp_kraus,
    random_density,
    reference_dephase,
    reference_rates,
    sample_counts,
)

INPUT_STATES = {lbl: density_of(ket_from_named(lbl)) for lbl in DEFAULT_INPUT_LABELS}


def _dephase_state(rho, gamma):
    return density_from_stokes(dephase(stokes_of(rho), gamma))


def _run_process_tomography(channel, t, cfg, det, pulses, rng=None):
    # One unit's process tomography: the counts drawn from (or, with no
    # rng, the means of) its rates, and their reconstruction.
    stokes, _ = _input_set()
    gamma = dephasing_factor(t, channel, cfg)
    rates = expected_rates(dephase(stokes, gamma), retrieval_efficiency(channel.theta, t, cfg), det)
    counts = expected_counts(rates, pulses) if rng is None else sample_counts(rates, pulses, rng)
    return counts, _reconstruct(counts)


def test_stokes_from_counts_basic():
    counts = np.array([(750, 250), (500, 500), (100, 900)])
    for c in (counts, counts.astype(float)):
        assert np.allclose(stokes_from_counts(c), [0.5, 0.0, -0.8], atol=1e-15)


def test_stokes_from_counts_missing_basis():
    with pytest.raises(ValueError, match=r"shape \(3, 2\), got \(2, 2\)"):
        stokes_from_counts(np.array([(750, 250), (500, 500)]))
    with pytest.raises(ValueError, match="need counts for 4 inputs, got 3"):
        reconstruct_from_records(np.full((3, 3, 2), 5))
    # A (4, 4, 3, 2) stack is four units, each scored as on its own.
    stack = np.arange(1, 97).reshape(4, 4, 3, 2)
    fidelities = reconstruct_from_records(stack)
    assert fidelities.shape == (4,)
    for k in range(4):
        one = reconstruct_from_records(stack[k])
        assert isinstance(one, float)
        assert fidelities[k] == one


def test_stokes_from_counts_zero_total():
    counts = np.array([(0, 0), (500, 500), (100, 900)])
    with pytest.raises(ValueError, match="zero total counts in basis HV"):
        stokes_from_counts(counts)


def test_stokes_from_counts_negative():
    counts = np.array([(750, 250), (500, -1), (100, 900)])
    with pytest.raises(ValueError, match="negative counts in basis DA"):
        stokes_from_counts(counts)


def test_stokes_from_counts_stacks_match_the_per_input_loop(rng):
    # Reference: one Python ratio per basis, input by input.
    stacks = [rng.integers(1, 10**5, size=(4, 3, 2)), rng.integers(1, 50, size=(7, 4, 3, 2))]
    for counts in stacks + [stacks[0].astype(float)]:
        flat = counts.reshape(-1, 3, 2)
        want = [[(p - m) / (p + m) for p, m in c.tolist()] for c in flat]
        got = stokes_from_counts(counts)
        assert got.shape == counts.shape[:-1]
        assert np.array_equal(got.reshape(-1, 3), np.array(want))
        assert [stokes_from_counts(c).tolist() for c in flat] == want


def test_stokes_from_counts_names_the_first_bad_basis_of_a_stack():
    counts = np.full((2, 4, 3, 2), 5)
    counts[1, 2, 2] = (0, 0)
    counts[1, 3, 1] = (7, -1)
    with pytest.raises(ValueError, match="zero total counts in basis RL"):
        stokes_from_counts(counts)
    counts[0, 1, 1, 0] = -3
    with pytest.raises(ValueError, match="negative counts in basis DA"):
        stokes_from_counts(counts)
    with pytest.raises(ValueError, match="negative counts in basis DA"):
        reconstruct_from_records(counts[1, [0, 1, 3, 2]])


def _reference_chi(inputs, outputs):
    # Hermitized least-squares solve of the 16x16 system of four
    # (input, output) density-matrix pairs, built one (k, m, n) block at
    # a time.
    a = np.zeros((16, 16), dtype=complex)
    b = np.zeros(16, dtype=complex)
    for k, (rho_in, rho_out) in enumerate(zip(inputs, outputs)):
        b[4 * k : 4 * k + 4] = rho_out.reshape(4)
        for m, sm in enumerate(PAULI_BASIS):
            for n, sn in enumerate(PAULI_BASIS):
                a[4 * k : 4 * k + 4, 4 * m + n] = (sm @ rho_in @ sn.conj().T).reshape(4)
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    assert rank == 16
    chi = solution.reshape(4, 4)
    return (chi + chi.conj().T) / 2.0


@pytest.mark.parametrize("labels", [DEFAULT_INPUT_LABELS, ("V", "A", "L", "H")])
def test_cached_chi_map_matches_the_linear_solve(rng, labels):
    # The map takes the rows (1, S_k) to the same Hermitized chi as the
    # design-matrix solve on the density matrices (I + S_k . sigma)/2.
    # The cached map serves the fixed quartet; process_matrix builds the
    # map of any other informationally complete set.
    inputs = [density_of(ket_from_named(l)) for l in labels]
    if labels == DEFAULT_INPUT_LABELS:
        _, chi_map = _input_set()
    else:
        chi_map = _chi_map(np.array(inputs))
    for _ in range(200):
        directions = rng.normal(size=(4, 3))
        stokes = directions / np.linalg.norm(directions, axis=1, keepdims=True)
        stokes *= rng.uniform(0.0, 1.0, size=(4, 1))
        rows = np.concatenate((np.ones((4, 1)), stokes), axis=1)
        want = _reference_chi(inputs, [density_from_stokes(s) for s in stokes])
        got = (chi_map @ rows.reshape(16)).view(complex).reshape(4, 4)
        assert np.max(np.abs(got - want)) < 1e-15
        assert np.array_equal(got, got.conj().T)


def test_state_estimate_interior_point_untouched():
    stokes = np.array([0.3, -0.2, 0.1])
    est = state_estimate(stokes)
    assert not est.physical_projection_applied
    assert np.array_equal(est.rho, density_from_stokes(stokes))
    assert np.allclose(np.trace(est.rho).real, 1.0, atol=1e-15)


def test_state_estimate_projects_exterior_point():
    # Shot noise can push |S| above 1; the estimate must still be a state.
    stokes = np.array([0.9, 0.6, 0.4])
    est = state_estimate(stokes)
    assert est.physical_projection_applied
    assert np.max(np.abs(est.rho - _eigen_clamp(density_from_stokes(stokes))[0])) < 1e-14
    vals = np.linalg.eigvalsh(est.rho)
    assert vals[0] >= -1e-15
    assert abs(np.trace(est.rho).real - 1.0) < 1e-12


def test_state_estimate_projection_never_negative(rng):
    for _ in range(200):
        stokes = rng.uniform(-1.0, 1.0, size=3) * rng.uniform(0.0, 1.6)
        est = state_estimate(stokes)
        assert np.linalg.eigvalsh(est.rho)[0] >= -1e-12


def _eigen_clamp(mat):
    # Reference projection: clamp negative eigenvalues, renormalize the trace.
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] >= -_PROJECT_EIG_TOL:
        return mat, False
    clamped = np.clip(vals, 0.0, None)
    return (vecs * (clamped / clamped.sum())) @ vecs.conj().T, True


def test_state_estimate_closed_form_matches_eigen_clamp(rng):
    threshold = 1.0 + 2.0 * _PROJECT_EIG_TOL
    directions = rng.normal(size=(500, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    unit = directions[0]
    # |S| = 1 exactly, just inside and just outside the projection threshold.
    edges = [np.array([1.0, 0.0, 0.0]), unit * (threshold - 1e-13), unit * (threshold + 1e-13)]
    cases = [d * rng.uniform(0.0, 1.6) for d in directions] + edges
    for stokes in cases:
        est = state_estimate(stokes)
        rho, applied = _eigen_clamp(density_from_stokes(stokes))
        assert est.physical_projection_applied == applied
        assert np.max(np.abs(est.rho - rho)) < 1e-14
        # An unprojected estimate is the linear one, bit for bit.
        assert applied or np.array_equal(est.rho, rho)
    assert [state_estimate(s).physical_projection_applied for s in edges] == [False, False, True]


def test_state_estimate_rejects_non_finite():
    with pytest.raises(ValueError):
        state_estimate(np.array([np.nan, 0.0, 0.0]))


def _pairs_for(channel_map):
    return [(rho, channel_map(rho)) for rho in INPUT_STATES.values()]


def test_process_matrix_identity_channel():
    chi = process_matrix(_pairs_for(lambda rho: rho))
    assert np.max(np.abs(chi - identity_chi())) < 1e-12


def test_process_matrix_dephasing_channel(rng):
    for _ in range(10):
        gamma = rng.uniform(0, 1)
        chi = process_matrix(_pairs_for(lambda rho: _dephase_state(rho, gamma)))
        want = np.diag([(1 + gamma) / 2, 0.0, 0.0, (1 - gamma) / 2]).astype(complex)
        assert np.max(np.abs(chi - want)) < 1e-12


def test_process_matrix_depolarizing_channel():
    half = np.eye(2, dtype=complex) / 2
    chi = process_matrix(_pairs_for(lambda rho: half))
    assert np.max(np.abs(chi - np.eye(4) / 4)) < 1e-12


def test_process_matrix_rejects_degenerate_inputs():
    # H, V, D, A span only two Stokes axes: not informationally complete.
    labels = ("H", "V", "D", "A")
    pairs = [(density_of(ket_from_named(l)),) * 2 for l in labels]
    with pytest.raises(ValueError, match="informationally complete"):
        process_matrix(pairs)


def test_cached_constants_are_read_only():
    stokes, inverse = _input_set()
    for arr in (stokes, inverse):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0


def test_process_matrix_wrong_pair_count():
    with pytest.raises(ValueError, match="need exactly 4 input/output pairs, got 3"):
        process_matrix(_pairs_for(lambda rho: rho)[:3])


def test_random_cptp_reconstruction(rng):
    for _ in range(10):
        kraus = random_cptp_kraus(rng)
        chi_true = chi_from_kraus(kraus)
        chi_rec = process_matrix(_pairs_for(lambda rho: apply_kraus(kraus, rho)))
        assert np.max(np.abs(chi_rec - chi_true)) < 1e-8
        for _ in range(10):
            rho = random_density(rng)
            assert np.max(
                np.abs(apply_process(chi_rec, rho) - apply_kraus(kraus, rho))
            ) < 1e-8


def test_process_matrix_on_another_input_set_recovers_random_channels(rng):
    # The map is built from whatever inputs the pairs carry, not only the
    # default quartet.
    inputs = [density_of(ket_from_named(l)) for l in ("V", "A", "L", "H")]
    for _ in range(10):
        kraus = random_cptp_kraus(rng)
        chi = process_matrix([(rho, apply_kraus(kraus, rho)) for rho in inputs])
        assert np.max(np.abs(chi - chi_from_kraus(kraus))) < 1e-8


def test_project_process_matrix_clamps():
    chi = np.diag([1.02, 0.0, 0.0, -0.02]).astype(complex)
    projected, applied = _project_chi(chi)
    assert applied
    assert np.max(np.abs(projected - identity_chi())) < 1e-15
    assert np.linalg.eigvalsh(projected)[0] >= -1e-15
    assert abs(np.trace(projected).real - 1.0) < 1e-12


def test_process_fidelity_rank_one_ideal_is_chi00(rng):
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = g @ g.conj().T
        chi /= np.trace(chi).real
        assert abs(process_fidelity(chi, identity_chi()) - chi[0, 0].real) < 1e-10


def test_process_fidelity_requires_unit_trace():
    with pytest.raises(ValueError, match="trace"):
        process_fidelity(np.eye(4, dtype=complex), identity_chi())
    with pytest.raises(ValueError, match="chi_ideal is not trace-normalized"):
        process_fidelity(identity_chi(), 2 * identity_chi())


def test_process_fidelity_to_a_pauli_target(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    chi = g @ g.conj().T
    chi /= np.trace(chi).real
    ideals = [chi_from_kraus([pauli]) for pauli in PAULI_BASIS]
    for k, ideal in enumerate(ideals):
        assert abs(process_fidelity(ideal, ideal) - 1.0) < 1e-12
        assert process_fidelity(ideals[(k + 1) % 4], ideal) < 1e-12
        assert abs(process_fidelity(chi, ideal) - chi[k, k].real) < 1e-12


def test_process_fidelity_rejects_an_ideal_that_is_not_rank_one():
    with pytest.raises(ValueError, match="not rank one"):
        process_fidelity(identity_chi(), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))


def test_composite_map_chi00_closed_form(rng):
    # Key identity: the process matrix of rho -> postselect(dephase(rho))
    # has chi_00 = ((1+gamma) s + N) / (2 (s + 2N)), s = n_bar eta R.
    det = DetectionConfig()
    for _ in range(100):
        gamma = rng.uniform(0, 1)
        eff = rng.uniform(0.005, 0.2)
        chi = process_matrix(
            _pairs_for(lambda rho: postselected_state(_dephase_state(rho, gamma), eff, det))
        )
        s = det.n_bar * 0.23 * eff
        want = ((1 + gamma) * s + det.background_n) / (2 * (s + 2 * det.background_n))
        assert abs(chi[0, 0].real - want) < 1e-9


def test_run_process_tomography_expected_matches_model():
    cfg = MemoryConfig()
    det = DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    from qmemsim.fitting import channel_model, closed_form_fidelity

    model = channel_model(s2, cfg, det)
    for t in (0.0, 0.5, 3.0, 6.0):
        counts, res = _run_process_tomography(s2, t, cfg, det, 10**5, rng=None)
        assert abs(res.process_fidelity - closed_form_fidelity(t, **model)) < 1e-9
        assert not res.projection_applied
        assert abs(res.raw_chi00 - res.process_fidelity) < 1e-12
        assert counts.shape == (len(DEFAULT_INPUT_LABELS), 3, 2)


def test_run_process_tomography_composes_decay_and_dephasing():
    # A static factor of 0.6 makes the dephasing visible in the HV and DA
    # rows; expected-counts mode gives the means of the matrix reference.
    s2 = DEFAULT_CHANNELS[2]
    cfg = MemoryConfig(static_gamma={"S2": 0.6})
    det = DetectionConfig()
    t, pulses = 1.7, 10**5
    counts, _ = _run_process_tomography(s2, t, cfg, det, pulses, rng=None)
    gamma = dephasing_factor(t, s2, cfg)
    efficiency = retrieval_efficiency(s2.theta, t, cfg)
    want = pulses * np.array(
        [
            reference_rates(reference_dephase(rho, gamma), efficiency, det)
            for rho in INPUT_STATES.values()
        ]
    )
    assert np.max(np.abs(counts - want)) < 1e-15 * pulses


def test_run_process_tomography_sampled_deterministic():
    cfg = MemoryConfig()
    det = DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    counts_a, a = _run_process_tomography(s2, 1.0, cfg, det, 10**4, np.random.default_rng(5))
    counts_b, b = _run_process_tomography(s2, 1.0, cfg, det, 10**4, np.random.default_rng(5))
    assert a.process_fidelity == b.process_fidelity
    assert counts_a.dtype.kind == "i"
    assert np.array_equal(counts_a, counts_b)


def _scalar_draw_counts(channel, t, pulses, rng):
    # Reference: one scalar Poisson draw per count, input x basis x (+, -).
    cfg, det = MemoryConfig(), DetectionConfig()
    gamma = dephasing_factor(t, channel, cfg)
    efficiency = retrieval_efficiency(channel.theta, t, cfg)
    counts = []
    for lbl in DEFAULT_INPUT_LABELS:
        stokes = stokes_of(INPUT_STATES[lbl])
        rates = expected_rates(dephase(stokes, gamma), efficiency, det).tolist()
        counts.append([[int(rng.poisson(pulses * mu)) for mu in row] for row in rates])
    return np.array(counts)


def test_run_process_tomography_single_draw_matches_scalar_draws():
    # At M=200 every mean is below 10, at M=1e5 every mean is above 10:
    # numpy draws the two ranges with different Poisson algorithms.
    cfg, det = MemoryConfig(), DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    for pulses in (200, 10**5):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            counts, _ = _run_process_tomography(s2, 0.5, cfg, det, pulses, rng)
            want = _scalar_draw_counts(s2, 0.5, pulses, np.random.default_rng(seed))
            assert np.array_equal(counts, want)


def test_reconstruct_from_records_round_trip():
    cfg = MemoryConfig()
    det = DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    expected = _run_process_tomography(s2, 2.0, cfg, det, 10**5, rng=None)
    sampled = _run_process_tomography(s2, 2.0, cfg, det, 10**4, np.random.default_rng(3))
    for counts, res in (expected, sampled):
        assert reconstruct_from_records(counts) == res.process_fidelity


def _assert_rows_equal_single_unit_calls(stack):
    res = _reconstruct(stack)
    assert res.process_fidelity.shape == stack.shape[:-3]
    for k, counts in enumerate(stack):
        one = _reconstruct(counts)
        assert res.process_fidelity[k] == one.process_fidelity
        assert res.raw_chi00[k] == one.raw_chi00
        assert res.projection_applied[k] == one.projection_applied
        # A unit the chi projection leaves alone keeps its raw chi, bit for bit,
        # even when other units of the stack are projected.
        if not res.projection_applied[k]:
            assert res.process_fidelity[k] == min(max(res.raw_chi00[k], 0.0), 1.0)
    return res


def test_reconstruct_stack_rows_equal_single_unit_calls(rng):
    # Sampled units at M = 3000 (the chi projection fires) next to
    # expected-counts and high-count units (it does not).
    cfg, det = MemoryConfig(), DetectionConfig()
    s2, s6 = DEFAULT_CHANNELS[2], DEFAULT_CHANNELS[6]
    units = [
        (s2, 0.005, 3000, np.random.default_rng(1)),
        (s2, 0.005, 10**5, None),
        (s2, 3.0, 3000, np.random.default_rng(2)),
        (s6, 6.0, 10**5, None),
        (s6, 1.0, 10**5, np.random.default_rng(3)),
        (s2, 1.0, 3000, np.random.default_rng(4)),
        (s6, 0.0, 10**5, None),
    ]
    stack = np.array([_run_process_tomography(*u[:2], cfg, det, *u[2:])[0] for u in units])
    res = _assert_rows_equal_single_unit_calls(stack)
    assert set(res.projection_applied.tolist()) == {True, False}
    # A larger stack of low counts, where most units project.
    res = _assert_rows_equal_single_unit_calls(rng.integers(1, 60, size=(300, 4, 3, 2)))
    assert 0 < res.projection_applied.sum() < 300


def test_reconstruct_stack_names_the_zero_total_basis_of_its_bad_unit():
    stack = np.full((7, 4, 3, 2), 50)
    stack[4, 2, 1] = (0, 0)
    with pytest.raises(ValueError, match="zero total counts in basis DA"):
        _reconstruct(stack)
    with pytest.raises(ValueError, match="need counts for 4 inputs, got 3"):
        _reconstruct(stack[:, :3])
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 4, 3, 2\), got \(7, 4, 2, 2\)"):
        _reconstruct(stack[:, :, :2])


def _keys(*keys):
    return np.array(keys, dtype=np.uint64)


def test_monte_carlo_error_deterministic_and_positive(monkeypatch):
    cfg = MemoryConfig()
    det = DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    counts = np.array(
        [
            _run_process_tomography(s2, t, cfg, det, 10**4, np.random.default_rng(9))[0]
            for t in (1.0, 4.0)
        ]
    )
    keys = _keys((123, 0), (123, 1))
    a = monte_carlo_error(counts, 50, keys)
    monkeypatch.setattr(tomography, "_SEED_BLOCK", 14)  # 7 resamples of 2 units a block
    b = monte_carlo_error(counts, 50, keys)
    assert a.shape == (2,)
    assert np.array_equal(a, b)
    assert (a > 0).all()


def _scalar_draw_monte_carlo_error(counts, resamples, stream_for):
    # Reference for one unit: one scalar Poisson draw per count,
    # input x basis x (+, -), from numpy's stream stream_for(j) for resample j.
    fidelities = []
    for j in range(resamples):
        rng = stream_for(j)
        resampled = [
            [[int(rng.poisson(n)) for n in row] for row in per_input]
            for per_input in counts.tolist()
        ]
        fidelities.append(reconstruct_from_records(np.array(resampled)))
    return float(np.std(fidelities, ddof=1))


# Rows HV, DA, RL of inputs H, V, D, R, with counts below 10: numpy
# draws them with its other Poisson algorithm.
LOW_COUNTS = np.array(
    [
        [(40, 3), (25, 20), (22, 24)],
        [(2, 38), (20, 23), (26, 19)],
        [(21, 22), (41, 1), (18, 25)],
        [(19, 24), (23, 20), (39, 9)],
    ]
)


def test_monte_carlo_error_matches_scalar_draws(monkeypatch):
    # The batched draw must give the same integers as numpy's scalar draws,
    # for low and high counts alike, whatever the block of resamples.
    cfg = MemoryConfig()
    det = DetectionConfig()
    s2 = DEFAULT_CHANNELS[2]
    high_counts, _ = _run_process_tomography(s2, 1.0, cfg, det, 10**4, np.random.default_rng(9))
    stack = np.array([LOW_COUNTS, high_counts])
    want = [
        _scalar_draw_monte_carlo_error(counts, 40, functools.partial(numpy_stream, 77, k))
        for k, counts in enumerate(stack)
    ]
    for block in (40, 9, 1):
        monkeypatch.setattr(tomography, "_SEED_BLOCK", 2 * block)  # block resamples of 2 units
        sigma = monte_carlo_error(stack, 40, _keys((77, 0), (77, 1)))
        assert sigma.tolist() == want, block


def test_monte_carlo_error_of_a_mixed_stack_equals_each_unit_alone(monkeypatch):
    # One stack mixes low counts, M = 3000 units (the chi projection
    # fires in most resamples) and M = 1e5 units (it fires in few), so
    # resamples take the kernel's mixed-projection path.  Each unit's
    # sigma equals the scalar-draw reference of that unit alone, and
    # stays the same when the unit moves in the stack: its streams
    # follow its key.
    cfg, det = MemoryConfig(), DetectionConfig()
    s2, s6 = DEFAULT_CHANNELS[2], DEFAULT_CHANNELS[6]
    stack = np.array(
        [
            LOW_COUNTS,
            _run_process_tomography(s2, 3.0, cfg, det, 3000, np.random.default_rng(1))[0],
            _run_process_tomography(s2, 6.0, cfg, det, 10**5, np.random.default_rng(2))[0],
            LOW_COUNTS[:, :, ::-1],
            _run_process_tomography(s6, 1.0, cfg, det, 3000, np.random.default_rng(3))[0],
            _run_process_tomography(s6, 6.0, cfg, det, 10**5, np.random.default_rng(4))[0],
        ]
    )
    keys = [(11,), (12,), (13,), (14,), (15,), (16,)]
    resamples = 30
    applied = []
    real_reconstruct = tomography.reconstruct_from_records

    def recording(draws):
        applied.append(_reconstruct(draws).projection_applied)
        return real_reconstruct(draws)

    monkeypatch.setattr(tomography, "reconstruct_from_records", recording)
    monkeypatch.setattr(tomography, "_SEED_BLOCK", 48)  # 8 resamples of 6 units a block
    sigma = monte_carlo_error(stack, resamples, _keys(*keys))
    assert len(applied) == resamples
    fired = np.array(applied)
    assert fired[:, 1].sum() > resamples / 2 and fired[:, 4].sum() > resamples / 2
    assert fired[:, 2].sum() < resamples / 2 and fired[:, 5].sum() < resamples / 2
    for k, counts in enumerate(stack):
        streams = functools.partial(numpy_stream, *keys[k])
        assert sigma[k] == _scalar_draw_monte_carlo_error(counts, resamples, streams)
    order = [4, 0, 5, 2, 1, 3]
    moved_keys = [keys[k] for k in order]
    monkeypatch.setattr(tomography, "_SEED_BLOCK", 180)  # all 30 resamples in one block
    moved = monte_carlo_error(stack[order], resamples, _keys(*moved_keys))
    assert np.array_equal(moved, sigma[order])


def test_monte_carlo_error_needs_two_resamples():
    counts = np.tile([(700, 300), (500, 500), (400, 600)], (2, 4, 1, 1))
    with pytest.raises(ValueError, match="need at least 2 resamples, got 1"):
        monte_carlo_error(counts, 1, _keys((0,), (1,)))


def test_monte_carlo_error_of_no_units_is_empty():
    sigma = monte_carlo_error(np.zeros((0, 4, 3, 2)), 10, np.zeros((0, 3), dtype=np.uint64))
    assert sigma.shape == (0,)


def test_monte_carlo_error_rejects_a_single_unit_without_its_stack_axis():
    counts = np.tile([(700, 300), (500, 500), (400, 600)], (4, 1, 1))
    with pytest.raises(ValueError, match=r"a \(units, 4, 3, 2\) stack, got \(4, 3, 2\)"):
        monte_carlo_error(counts, 10, _keys((0,)))


def _reference_reconstruct(counts):
    # The chain before the closed forms: per-basis Stokes ratios,
    # eigen-clamp state projection, the reference chi solve, eigen-clamp
    # chi projection and the fidelity to the identity process.
    outputs = []
    for k in range(len(DEFAULT_INPUT_LABELS)):
        stokes = np.array([(p - m) / (p + m) for p, m in counts[k].tolist()])
        outputs.append(_eigen_clamp(density_from_stokes(stokes))[0])
    chi_raw = _reference_chi(list(INPUT_STATES.values()), outputs)
    chi, applied = _eigen_clamp(chi_raw)
    return process_fidelity(chi, identity_chi()), float(chi_raw[0, 0].real), applied


@st.composite
def _count_arrays(draw):
    # Counts around those of a depolarized identity channel, with a zero
    # allowed in one column of a basis: at a scale of 5 the state
    # projection fires on most inputs, at 50 both the state and the chi
    # projection fire on most draws.
    scale = draw(st.sampled_from([5, 50, 2000, 10**5]))
    purity = draw(st.floats(0.0, 1.0))
    counts = np.empty((len(DEFAULT_INPUT_LABELS), 3, 2), dtype=int)
    for k, lbl in enumerate(DEFAULT_INPUT_LABELS):
        stokes = purity * stokes_of(INPUT_STATES[lbl])
        for axis in range(3):
            means = [scale * (1.0 + sign * stokes[axis]) / 2.0 for sign in (1.0, -1.0)]
            highs = [max(1, round(1.3 * mean)) for mean in means]
            n_plus = draw(st.integers(0, highs[0]))
            counts[k, axis] = n_plus, draw(st.integers(0 if n_plus else 1, highs[1]))
    return counts


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_count_arrays())
def test_reconstruct_matches_reference_chain(counts):
    fidelity, raw_chi00, applied = _reference_reconstruct(counts)
    res = _reconstruct(counts)
    assert res.projection_applied == applied
    assert abs(res.process_fidelity - fidelity) < 1e-12
    assert abs(res.raw_chi00 - raw_chi00) < 1e-12
    assert applied or res.process_fidelity == min(max(res.raw_chi00, 0.0), 1.0)
    # Expected-counts mode carries the same counts as floats.
    as_float = _reconstruct(counts.astype(float))
    assert as_float.process_fidelity == res.process_fidelity
    assert as_float.raw_chi00 == res.raw_chi00
    assert as_float.projection_applied == res.projection_applied
