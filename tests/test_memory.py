import math

import numpy as np
import pytest

from qmemsim.memory import (
    DEFAULT_CHANNELS,
    ChannelSpec,
    MemoryConfig,
    WALK_OFF_WIDTH_DEG,
    PhaseMatchConfig,
    dephase,
    dephasing_factor,
    retrieval_efficiency,
    theta_prime,
    walk_off_r0,
)
from qmemsim.polarization import density_from_stokes, stokes_of
from reference_impl import random_density

MEM = MemoryConfig()


def test_default_channel_layout():
    assert [ch.id for ch in DEFAULT_CHANNELS] == [f"S{i}" for i in range(7)]
    assert [ch.theta for ch in DEFAULT_CHANNELS] == [0.0, 0.4, 0.8, 2.0, 3.0, 4.0, 5.0]


def test_channel_angle_range_enforced():
    with pytest.raises(ValueError):
        ChannelSpec("bad", -0.1)
    with pytest.raises(ValueError):
        ChannelSpec("bad", 5.1)


def test_walk_off_endpoints():
    # The width is calibrated so the profile passes through both measured
    # endpoints; 0.5% relative slack covers the two-point calibration.
    assert walk_off_r0(0.0, MEM) == 0.14
    assert abs(walk_off_r0(5.0, MEM) / 0.08 - 1.0) < 0.005


def test_walk_off_is_monotone_decreasing():
    thetas = np.linspace(0.0, 5.0, 51)
    values = [walk_off_r0(th, MEM) for th in thetas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_walk_off_matches_gaussian_law():
    for th in (0.0, 0.4, 0.8, 2.0, 3.0, 4.0, 5.0):
        expected = 0.14 * math.exp(-(th**2) / WALK_OFF_WIDTH_DEG**2)
        assert abs(walk_off_r0(th, MEM) - expected) < 1e-15


def test_measured_override_takes_precedence():
    # The 0.8 deg channel uses its separately measured efficiency, not
    # the profile value (0.1380).
    assert retrieval_efficiency(0.8, 0.0, MEM) == 0.127
    assert abs(walk_off_r0(0.8, MEM) - 0.1380087393239414) < 1e-15


def test_retrieval_decay_one_lifetime():
    got = retrieval_efficiency(0.8, MEM.tau, MEM)
    assert abs(got - 0.127 / math.e) < 1e-15


def test_retrieval_efficiency_domain_checks():
    with pytest.raises(ValueError):
        retrieval_efficiency(0.8, -0.1, MEM)
    with pytest.raises(ValueError):
        retrieval_efficiency(7.0, 0.0, MEM)


def test_theta_range_message_is_shared():
    for check in (
        lambda th: walk_off_r0(th, MEM),
        lambda th: retrieval_efficiency(th, 0.0, MEM),
        lambda th: theta_prime(th, PhaseMatchConfig()),
    ):
        with pytest.raises(ValueError, match=r"^theta must be in \[0, 5.0\] deg, got 7.0$"):
            check(7.0)
    with pytest.raises(ValueError, match=r"got -1.0 \(channel X\)$"):
        ChannelSpec("X", -1.0)


def _time_laws():
    s2 = DEFAULT_CHANNELS[2]
    mem = MemoryConfig(static_gamma={"S2": 0.9})
    return (
        lambda t: retrieval_efficiency(0.8, t, mem),
        lambda t: retrieval_efficiency(3.0, t, mem),
        lambda t: dephasing_factor(t, s2, mem),
    )


def test_time_arrays_equal_per_element_scalar_calls(rng):
    # Long enough for numpy's vector loops, with a short tail after them.
    times = np.concatenate(([0.0, 0.005, 0.85, MEM.tau, 6.0], rng.uniform(0.0, 50.0, 1003)))
    for law in _time_laws():
        scalars = [law(t) for t in times.tolist()]
        assert all(isinstance(value, float) for value in scalars)
        assert np.array_equal(law(times), scalars)
        assert np.array_equal(law(times.reshape(2, -1)), np.reshape(scalars, (2, -1)))


def test_negative_time_in_an_array_is_named():
    times = np.array([0.5, 1.0, -0.25, 2.0, -3.0])
    for law in _time_laws():
        with pytest.raises(ValueError, match=r"storage time must be >= 0, got -0.25$"):
            law(times)


def test_dephasing_factor_values():
    s2 = DEFAULT_CHANNELS[2]
    assert dephasing_factor(0.0, s2, MEM) == 1.0
    assert abs(dephasing_factor(6.0, s2, MEM) - 0.9966771306239185) < 1e-15


def test_dephasing_factor_static_scale():
    s2 = DEFAULT_CHANNELS[2]
    mem = MemoryConfig(static_gamma={"S2": 0.5})
    assert abs(dephasing_factor(6.0, s2, mem) - 0.5 * 0.9966771306239185) < 1e-15
    # other channels keep the default factor of 1
    assert dephasing_factor(0.0, DEFAULT_CHANNELS[0], mem) == 1.0


def test_dephase_scales_off_diagonals(rng):
    for _ in range(20):
        rho = random_density(rng)
        gamma = rng.uniform(0, 1)
        stokes = stokes_of(rho)
        s_out = dephase(stokes, gamma)
        assert np.array_equal(s_out, [gamma * stokes[0], gamma * stokes[1], stokes[2]])
        assert np.array_equal(dephase(np.array([stokes, -stokes]), gamma), [s_out, -s_out])
        out = density_from_stokes(s_out)
        assert abs(out[0, 0] - rho[0, 0]) < 1e-15
        assert abs(out[1, 1] - rho[1, 1]) < 1e-15
        assert abs(out[0, 1] - gamma * rho[0, 1]) < 1e-15


def test_dephase_gamma_range():
    mixed = np.zeros(3)
    with pytest.raises(ValueError, match="gamma"):
        dephase(mixed, 1.5)
    with pytest.raises(ValueError, match="gamma"):
        dephase(mixed, -0.1)


def test_dephase_broadcasts_an_array_of_gammas(rng):
    stokes = np.array([stokes_of(random_density(rng)) for _ in range(4)])
    gammas = np.append(rng.uniform(0, 1, size=5), [0.0, 1.0])
    batched = dephase(stokes, gammas[:, None])
    assert batched.shape == (7, 4, 3)
    for gamma, rows in zip(gammas.tolist(), batched):
        assert np.array_equal(rows, dephase(stokes, gamma))
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match=rf"gamma must be in \[0, 1\], got {bad}"):
            dephase(stokes, np.array([[0.5], [bad], [0.2]]))


def test_theta_prime_identity_at_zero_offset():
    pm = PhaseMatchConfig(delta=0.0)
    for th in np.linspace(0.0, 5.0, 21):
        assert theta_prime(float(th), pm) == float(th)


def test_theta_prime_small_deviation_at_default_offset():
    pm = PhaseMatchConfig()
    devs = [theta_prime(float(th), pm) - th for th in np.linspace(0.0, 5.0, 201)]
    assert max(abs(d) for d in devs) < 1e-4
    # offset pulls the output angle inward, never outward
    assert all(d <= 0 for d in devs)


def test_dephase_rejects_invalid_state():
    for bad, match in (
        (np.array([0.0, 0.6, 0.9]), "unit ball"),
        (np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]]), "non-finite"),
        (np.zeros(2), "shape"),
        (np.eye(2, dtype=complex) / 2, "shape"),
        (np.zeros(3, dtype=complex), "real"),
    ):
        with pytest.raises(ValueError, match=match):
            dephase(bad, 0.5)


def test_memory_config_validation_messages():
    with pytest.raises(ValueError, match="tau must be > 0"):
        MemoryConfig(tau=-1.0)
    with pytest.raises(ValueError, match="sigma_gamma must be > 0"):
        MemoryConfig(sigma_gamma=0.0)
    with pytest.raises(ValueError, match="static_gamma"):
        MemoryConfig(static_gamma={"S0": 1.5})
