import math

import numpy as np
import pytest

from qmemsim.memory import (
    DEFAULT_CHANNELS,
    ChannelSpec,
    MemoryConfig,
    PhaseMatchConfig,
    dephase,
    dephasing_factor,
    release,
    retrieval_efficiency,
    theta_prime,
    walk_off_r0,
)
from qmemsim.polarization import density_of, ket_from_named
from conftest import random_density

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
        expected = 0.14 * math.exp(-(th**2) / MEM.theta_w**2)
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
        out = dephase(rho, gamma)
        assert out[0, 0] == rho[0, 0]
        assert out[1, 1] == rho[1, 1]
        assert abs(out[0, 1] - gamma * rho[0, 1]) < 1e-15


def test_dephase_gamma_range():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        dephase(rho, 1.5)
    with pytest.raises(ValueError):
        dephase(rho, -0.1)


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


def test_release_composes_decay_and_dephasing(rng):
    s2 = DEFAULT_CHANNELS[2]
    pm = PhaseMatchConfig()
    t = 1.7
    rho = density_of(ket_from_named("D"))
    out = release(rho, s2, t, MEM, pm)
    assert abs(out.efficiency - retrieval_efficiency(0.8, t, MEM)) < 1e-15
    assert abs(out.gamma - dephasing_factor(t, s2, MEM)) < 1e-15
    assert np.max(np.abs(out.state - dephase(rho, out.gamma))) < 1e-14
    assert abs(out.theta_out - theta_prime(0.8, pm)) < 1e-15


def test_release_rejects_invalid_state():
    s2 = DEFAULT_CHANNELS[2]
    pm = PhaseMatchConfig()
    for bad, match in (
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (np.eye(2), "trace"),
        (np.eye(3) / 3, "2x2"),
    ):
        with pytest.raises(ValueError, match=match):
            release(bad, s2, 1.0, MEM, pm)


def test_memory_config_validation_messages():
    with pytest.raises(ValueError, match="tau must be > 0"):
        MemoryConfig(tau=-1.0)
    with pytest.raises(ValueError, match="sigma_gamma must be > 0"):
        MemoryConfig(sigma_gamma=0.0)
    with pytest.raises(ValueError, match="static_gamma"):
        MemoryConfig(static_gamma={"S0": 1.5})
