import csv
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmemsim import scenarios
from qmemsim.config import (
    MAX_RESAMPLES,
    ScenarioConfig,
    _time_key,
    config_from_dict,
    effective_config,
)
from qmemsim.errors import ConfigError
from qmemsim.scenarios import (
    DEFAULT_CALIBRATION_TARGETS,
    TABLE_TIME_MS,
    RunArtifact,
    calibrate_table,
    derive_rng,
    efficiency_points,
    emit,
    run_fig3,
    run_fig4,
    run_fig5,
    run_simulate,
    run_table1,
    tomography_point,
    tomography_points,
    _DOMAIN_EFFICIENCY,
    _DOMAIN_RESAMPLE,
)
from qmemsim import tomography
from qmemsim.streams import _seed_words, poisson
from qmemsim.tomography import reconstruct_from_records
from reference_impl import numpy_stream

# Frozen reference values for the default scenario, computed from the
# closed-form fidelity and efficiency expressions outside this package.
EXPECTED_TABLE_FIDELITY = {
    "S0": 0.9686983237310021,
    "S1": 0.9685907235662103,
    "S2": 0.9656410018596912,
    "S3": 0.9658997759637872,
    "S4": 0.9620658616590337,
    "S5": 0.9560086628496092,
    "S6": 0.9468861182417135,
}
FIG3_FIRST = 0.13975882865572967
FIG3_LAST = 0.07986453737168513
FIDELITY_6MS = 0.7924966388150465


#: The largest storage time whose key, rounded picoseconds, is below 2**64.
LARGEST_TIME_MS = 18446744073.70955


def small_cfg(**overrides):
    base = {"pulses_per_setting": 2000, "mc_resamples": 10}
    base.update(overrides)
    return dataclasses.replace(ScenarioConfig(), **base)


class TestDeriveRng:
    LAM = np.array([[0.5, 3.0], [40.0, 2.0e4]])

    def test_same_key_same_stream(self):
        a = poisson(derive_rng(7, 1, 2, [3]), self.LAM[None])
        b = poisson(derive_rng(7, 1, 2, [3]), self.LAM[None])
        assert np.array_equal(a, b)

    def test_disjoint_keys_disjoint_streams(self):
        a, b, c = poisson(derive_rng([7, 7, 8], 1, 2, [3, 4, 3]), np.tile(self.LAM, (3, 4, 1, 1)))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("key", [(12345, 1, 2, 5000), (777, 2, 0, 0, 499), (0,), (2**63, 7)])
    def test_stream_is_default_rng_of_the_seed_sequence(self, key):
        # Means below and above 10 take numpy's two Poisson algorithms.
        want = numpy_stream(*key).poisson(self.LAM, size=(3, 2, 2))
        lam = np.broadcast_to(self.LAM, (3, 2, 2))[None]
        assert np.array_equal(poisson(derive_rng(*key[:-1], [key[-1]]), lam)[0], want)

    @pytest.mark.parametrize(
        "key",
        [(-1, [1]), (7, 2**64), (7, [3, -2]), (7, 1.0), (7, [0.5]), (7, [1.5]), (7, [-1]),
         (7, [2**64]), (7, [0, 2**64]), (7, [0.5, 2**63]), (7, [True, 5]), (7, [np.True_, 3])],
    )  # fmt: skip
    def test_key_parts_outside_uint64_are_refused(self, key):
        # numpy's SeedSequence refuses a negative part; none may wrap or grow past 64 bits.
        with pytest.raises(ValueError, match=r"key parts must be integers in \[0, 2\*\*64\)"):
            derive_rng(*key)

    def test_a_list_mixing_parts_below_and_from_2_to_the_63_is_read_exactly(self):
        # numpy reads the list [0, 2**63] as float64; its parts are still integers in range.
        parts, lam = [0, 2**63, 2**64 - 1], np.full((3, 2), 30.0)
        got = poisson(derive_rng(7, parts), lam)
        assert np.array_equal(got, poisson(derive_rng(7, np.array(parts, dtype=np.uint64)), lam))
        for part, row in zip(parts, got):
            assert np.array_equal(row, numpy_stream(7, part).poisson([30.0, 30.0]))

    def test_key_parts_broadcast_to_the_stack(self):
        keys = derive_rng(9, _DOMAIN_RESAMPLE, [[0], [6]], [[0], [2**32]], [0, 5, 999_999])
        assert keys.shape == (2, 3, 5) and keys.dtype == np.uint64
        lam = np.array([[30.0, 2.5], [7.0, 0.0]])
        draws = poisson(keys, lam)
        for k, (channel, t_ps) in enumerate([(0, 0), (6, 2**32)]):
            for i, j in enumerate([0, 5, 999_999]):
                want = numpy_stream(9, _DOMAIN_RESAMPLE, channel, t_ps, j).poisson(lam[k])
                assert np.array_equal(draws[k, i], want)


# Bootstrap stream keys (seed, domain, channel, time in ps, resample) at
# the edges of SeedSequence's 32-bit word split.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
EDGE_TIME_KEYS = (0, 2**32 - 1, 2**32, 6 * 10**9)
EDGE_KEYS = [
    (seed, _DOMAIN_RESAMPLE, channel, t_ps, j)
    for seed in EDGE_SEEDS
    for channel in (0, 6)
    for t_ps in EDGE_TIME_KEYS
    for j in (0, MAX_RESAMPLES - 1)
]


def seed_sequence_words(key):
    return np.random.SeedSequence(entropy=key).generate_state(4, np.uint64)


class TestBootstrapSeedWords:
    def test_edge_keys_equal_seed_sequence_one_call_per_length(self):
        by_length = {}
        for key in EDGE_KEYS:
            by_length.setdefault(sum(1 + (part > 2**32 - 1) for part in key), []).append(key)
        assert sorted(by_length) == [5, 6, 7]
        for keys in [*by_length.values(), EDGE_KEYS]:  # each length, then all in one call
            got = _seed_words(np.array(keys, dtype=np.uint64))
            assert got.dtype == np.uint64
            assert np.array_equal(got, [seed_sequence_words(key) for key in keys])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_any_key_equals_seed_sequence(self, key):
        got = _seed_words(np.array([key], dtype=np.uint64))
        assert np.array_equal(got[0], seed_sequence_words(tuple(key)))

    @pytest.mark.parametrize("block", [4096, 7, 1])
    def test_streams_equal_derive_rng_in_any_call_order(self, block):
        # Unit keys at the word edges, resamples out of order, split in blocks.
        seed, lam = 2**64 - 1, np.full((4, 4), 30.0)
        channels, t_ps = np.array([0, 6, 3, 6]), np.array([0, 2**32 - 1, 2**32, 6 * 10**9])
        js = np.array([0, 5, 1, 12, 2, 999_999, 3])
        for start in range(0, len(js), block):
            part = js[start : start + block]
            stack = derive_rng(seed, _DOMAIN_RESAMPLE, channels[:, None], t_ps[:, None], part)
            draws = poisson(stack, lam)
            for k in range(4):
                for i, j in enumerate(part):
                    rng = numpy_stream(seed, _DOMAIN_RESAMPLE, channels[k], t_ps[k], j)
                    assert np.array_equal(draws[k, i], rng.poisson(lam[k]))


@pytest.mark.parametrize("block", [4096, 35, 1])
def test_bootstrap_sigma_equals_derive_rng_streams(monkeypatch, block):
    # 4096 and 35 take the 5 units in one tile, and 4096 in one chunk; 35 // 20
    # resamples takes one unit a chunk, and 1 takes one unit a tile and draws
    # one resample a call.
    monkeypatch.setattr(tomography, "_SEED_BLOCK", block)
    times = (0.0, 4.294967295, 4.294967296, 6.0)
    cfg = small_cfg(seed=2**40 + 7, storage_times=times, mc_resamples=20)
    units = [("S2", t) for t in times] + [("S5", 1.0)]
    got = tomography_points(cfg, units)["sigma"]

    channels = [cfg.channel_index(c) for c, _ in units]
    handed = []

    def numpy_bootstrap(counts, resamples, keys):
        # The pass hands the units over in order, a tile a call.  Every (unit,
        # resample) comes from numpy's own stream of the unit's key, not of
        # ``keys``, and one rescoring per resample.
        tile = range(len(handed), len(handed) + len(counts))
        handed.extend(tile)
        fidelities = np.empty((len(counts), resamples))
        for j in range(resamples):
            draws = [
                numpy_stream(cfg.seed, _DOMAIN_RESAMPLE, channels[k], _time_key(units[k][1]), j)
                .poisson(unit)
                for k, unit in zip(tile, counts)
            ]
            fidelities[:, j] = reconstruct_from_records(np.array(draws))
        return np.std(fidelities, axis=1, ddof=1)

    monkeypatch.setattr(scenarios, "monte_carlo_error", numpy_bootstrap)
    want = tomography_points(cfg, units)["sigma"]
    assert got == want
    assert handed == list(range(len(units)))
    assert all(s > 0.0 for s in got)


@pytest.mark.parametrize("expected", [False, True], ids=["sampled", "expected"])
@pytest.mark.parametrize("tile", [1, 5, 7])
def test_pass_takes_whole_units_in_tiles(monkeypatch, tile, expected):
    # 12 units: tiles of 1, 5 + 5 + 2 and 7 + 5 whole units, in order, each
    # drawn and scored on its own; no row may move.
    cfg = small_cfg(pulses_per_setting=10**5, mc_resamples=3)
    units = [(c, t) for c in ("S0", "S4") for t in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0)]
    want = tomography_points(cfg, units, expected)

    seen = []

    def wrap(fn):
        return lambda arr, *rest: seen.append(len(arr)) or fn(arr, *rest)

    monkeypatch.setattr(tomography, "_SEED_BLOCK", tile)
    monkeypatch.setattr(scenarios, "poisson", wrap(scenarios.poisson))
    monkeypatch.setattr(scenarios, "_reconstruct", wrap(scenarios._reconstruct))
    assert tomography_points(cfg, units, expected) == want
    assert seen and max(seen) <= tile


@pytest.mark.parametrize("tile", [1, 5, 7])
def test_fig4_pass_takes_whole_units_in_tiles(monkeypatch, tile):
    # fig4's 12 units walk the same tiles as tomography_points: no count draw
    # takes more than a tile, every unit is drawn once, and no value moves.
    cfg = small_cfg(pulses_per_setting=10**5)
    units = [(c, t) for c in ("S0", "S4") for t in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0)]
    want = efficiency_points(cfg, units)

    seen = []
    monkeypatch.setattr(tomography, "_SEED_BLOCK", tile)
    monkeypatch.setattr(
        scenarios, "poisson", lambda keys, means: seen.append(len(keys)) or poisson(keys, means)
    )
    assert efficiency_points(cfg, units) == want
    assert sum(seen) == len(units) and max(seen) <= tile


@pytest.mark.parametrize("times", [(0.5, 1e10), (0.5, LARGEST_TIME_MS)])
def test_unit_counts_are_numpys_draws_past_64_bit_time_keys(times):
    # 1e10 ms is 1e19 ps, between 2**63 and 2**64; the largest accepted time
    # keys the largest float below 2**64 ps.
    cfg = small_cfg(storage_times=times, pulses_per_setting=10**5)
    units = [("S2", t) for t in cfg.storage_times]
    means = efficiency_points(cfg, units, expected=True)["counts"]
    channel = cfg.channel_index("S2")
    for t, got, mean in zip(cfg.storage_times, efficiency_points(cfg, units)["counts"], means):
        rng = numpy_stream(cfg.seed, _DOMAIN_EFFICIENCY, channel, _time_key(t))
        assert got == rng.poisson(mean)


@pytest.mark.parametrize("points", [efficiency_points, tomography_points])
@pytest.mark.parametrize("t", [np.inf, np.nextafter(LARGEST_TIME_MS, np.inf), np.nan])
def test_sampled_unit_past_the_key_range_names_its_time(points, t):
    # NaN is named too: tomography_points keys its units before dephasing them.
    with pytest.raises(ValueError, match=rf"picoseconds, got {t} ms$"):
        points(small_cfg(), [("S2", 0.5), ("S2", t)])


@pytest.mark.parametrize("points", [efficiency_points, tomography_points])
@pytest.mark.parametrize("t", [np.inf, np.nextafter(LARGEST_TIME_MS, np.inf), np.nan, -1.0])
def test_expected_unit_past_the_key_range_names_its_time(points, t):
    # Expected counts draw nothing, but a unit's time is checked as in sampled mode.
    with pytest.raises(ValueError, match=rf"picoseconds, got {t} ms$"):
        points(small_cfg(), [("S2", 0.5), ("S2", t)], expected=True)


class TestTomographyPoint:
    def test_expected_mode_matches_closed_form(self):
        cfg = ScenarioConfig()
        point = tomography_point(cfg, "S2", 0.005, expected=True)
        assert point["sigma"] == 0.0
        assert point["fidelity"] == pytest.approx(EXPECTED_TABLE_FIDELITY["S2"], abs=1e-9)
        assert point["model"] == pytest.approx(EXPECTED_TABLE_FIDELITY["S2"], abs=1e-12)

    def test_sampled_mode_deterministic(self):
        cfg = small_cfg()
        a = tomography_point(cfg, "S2", 0.005)
        b = tomography_point(cfg, "S2", 0.005)
        assert a["fidelity"] == b["fidelity"]
        assert a["sigma"] == b["sigma"]
        assert a["sigma"] > 0.0

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError, match="unknown channel"):
            tomography_point(ScenarioConfig(), "S9", 0.005)

    @pytest.mark.parametrize("points", [tomography_points, efficiency_points])
    def test_unknown_channel_in_a_multi_unit_call_rejected(self, points):
        units = [("S0", 0.005), ("S6", 1.0), ("S9", 0.5), ("S2", 2.0)]
        known = r"\(configured: S0, S1, S2, S3, S4, S5, S6\)"
        with pytest.raises(ConfigError, match=rf"^unknown channel 'S9' {known}$"):
            points(ScenarioConfig(), units, expected=True)


class TestEfficiencyPoint:
    def test_expected_mode_inverts_exactly(self):
        cfg = ScenarioConfig()
        point = {k: v[0] for k, v in efficiency_points(cfg, [("S2", 1.0)], expected=True).items()}
        assert point["efficiency_est"] == pytest.approx(point["efficiency_true"], abs=1e-12)
        det = cfg.detection
        mu = 0.23 * point["efficiency_true"] + 2 * det.background_n
        assert point["counts"] == pytest.approx(cfg.pulses_per_setting * mu, rel=1e-12)

    def test_sampled_mode_deterministic(self):
        cfg = small_cfg()
        a = efficiency_points(cfg, [("S2", 1.0)])
        b = efficiency_points(cfg, [("S2", 1.0)])
        assert a["counts"] == b["counts"]
        assert a["counts"][0] == int(a["counts"][0])


class TestFig3:
    def test_columns_and_shape(self):
        art = run_fig3(ScenarioConfig())
        assert art.columns == (
            "channel",
            "theta_deg",
            "efficiency_sigma_plus",
            "efficiency_sigma_minus",
        )
        assert len(art.rows) == 7
        assert [r[0] for r in art.rows] == [f"S{i}" for i in range(7)]

    def test_profile_endpoints_and_monotonicity(self):
        art = run_fig3(ScenarioConfig())
        effs = [r[2] for r in art.rows]
        assert effs[0] == pytest.approx(FIG3_FIRST, rel=1e-12)
        assert effs[-1] == pytest.approx(FIG3_LAST, rel=1e-12)
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_both_polarizations_equal(self):
        art = run_fig3(ScenarioConfig())
        for row in art.rows:
            assert row[2] == row[3]


class TestFig4:
    def test_expected_mode_fit_recovers_model(self):
        art = run_fig4(ScenarioConfig(), expected_counts=True)
        assert art.columns[0] == "t_ms"
        assert len(art.rows) == len(ScenarioConfig().storage_times)
        fit = art.meta["fit"]
        assert fit["converged"]
        assert fit["params"]["r0"] == pytest.approx(0.127, abs=1e-6)
        assert fit["params"]["tau"] == pytest.approx(2.9, abs=1e-6)

    def test_single_point_keeps_rows_and_records_fit_error(self):
        cfg = dataclasses.replace(ScenarioConfig(), storage_times=(0.005,))
        art = run_fig4(cfg, expected_counts=True)
        assert len(art.rows) == 1
        assert "error" in art.meta["fit"]

    def test_sampled_estimates_near_model(self):
        art = run_fig4(small_cfg(pulses_per_setting=200_000))
        for t, model, counts, est, sigma in art.rows:
            assert abs(est - model) < 6 * sigma


class TestFig5:
    def test_expected_mode_residuals_vanish(self):
        cfg = dataclasses.replace(ScenarioConfig(), storage_times=(0.005, 1.0, 3.0, 6.0))
        art = run_fig5(cfg, expected_counts=True)
        assert art.columns == ("t_ms", "fidelity", "fidelity_sigma", "model_fidelity", "residual")
        for row in art.rows:
            assert abs(row[4]) < 1e-9
            assert row[2] == 0.0
        assert art.rows[-1][3] == pytest.approx(FIDELITY_6MS, abs=1e-12)

    def test_expected_mode_fit_recovers_sigma_gamma(self):
        art = run_fig5(ScenarioConfig(), expected_counts=True)
        fit = art.meta["fit"]
        assert fit["converged"]
        assert not fit["at_bound"]
        assert fit["params"]["sigma_gamma"] == pytest.approx(104.0, rel=1e-2)

    def test_restriction_to_table_time_matches_table_row(self):
        # Unit-level streams: the S2 point of the per-channel table and a
        # one-point fidelity curve at the same time are the same draw.
        cfg = small_cfg()
        table = run_table1(cfg)
        curve = run_fig5(dataclasses.replace(cfg, storage_times=(TABLE_TIME_MS,)))
        s2 = next(r for r in table.rows if r[0] == "S2")
        assert curve.rows[0][1] == s2[2]
        assert curve.rows[0][2] == s2[3]


class TestTable1:
    def test_expected_mode_reference_values(self):
        art = run_table1(ScenarioConfig(), expected_counts=True)
        assert art.columns == ("channel", "theta_deg", "fidelity", "fidelity_sigma", "model_fidelity")
        for channel, theta, fidelity, sigma, model in art.rows:
            assert fidelity == pytest.approx(EXPECTED_TABLE_FIDELITY[channel], abs=1e-9)
            assert model == pytest.approx(EXPECTED_TABLE_FIDELITY[channel], abs=1e-12)
            assert sigma == 0.0

    def test_meta_records_acquisition_scale(self):
        cfg = ScenarioConfig()
        art = run_table1(cfg, expected_counts=True)
        assert art.meta["time_ms"] == TABLE_TIME_MS
        # 4 inputs x 3 bases at 20 Hz
        assert art.meta["acquisition_s_per_channel"] == pytest.approx(
            12 * cfg.pulses_per_setting / 20.0
        )


class TestSimulate:
    def test_grid_shape(self):
        cfg = dataclasses.replace(small_cfg(), storage_times=(0.005, 1.0))
        art = run_simulate(cfg, expected_counts=True)
        assert len(art.rows) == len(cfg.channels) * 2
        assert art.columns[:3] == ("channel", "theta_deg", "t_ms")


@pytest.mark.parametrize("expected", [False, True], ids=["sampled", "expected"])
def test_batched_rows_equal_single_unit_points(expected):
    # A scenario scores this whole grid in one tile; each row must equal
    # its unit scored on its own, bit for bit.
    cfg = small_cfg(mc_resamples=3, storage_times=(0.005, 0.8, 2.5, 6.0))
    simulate = run_simulate(cfg, expected_counts=expected)
    for channel, _, t, fidelity, sigma, model in simulate.rows:
        point = tomography_point(cfg, channel, t, expected)
        assert (fidelity, sigma, model) == (point["fidelity"], point["sigma"], point["model"])
    fig5 = run_fig5(cfg, expected_counts=expected, channel_id="S4")
    for t, fidelity, sigma, model, _ in fig5.rows:
        point = tomography_point(cfg, "S4", t, expected)
        assert (fidelity, sigma, model) == (point["fidelity"], point["sigma"], point["model"])
    # The efficiency family shares the unit layer: its rows, over one
    # channel (fig4) or many, equal each unit's own call.
    for t, *row in run_fig4(cfg, expected_counts=expected, channel_id="S4").rows:
        assert row == [v[0] for v in efficiency_points(cfg, [("S4", t)], expected).values()]
    grid = [(channel, t) for channel, _, t, *_ in simulate.rows]
    batch = efficiency_points(cfg, grid, expected)
    for k, unit in enumerate(grid):
        single = efficiency_points(cfg, [unit], expected)
        assert [v[k] for v in batch.values()] == [v[0] for v in single.values()]


@pytest.mark.parametrize("expected", [False, True], ids=["sampled", "expected"])
def test_no_units_give_empty_lists(expected):
    # The batch-independence contract at its edge: a pass over no units
    # draws nothing and returns an empty list of each value.
    cfg = small_cfg()
    assert tomography_points(cfg, [], expected) == {"fidelity": [], "sigma": [], "model": []}
    names = ("efficiency_true", "counts", "efficiency_est", "sigma")
    assert efficiency_points(cfg, [], expected) == dict.fromkeys(names, [])


class TestCalibration:
    def test_fragment_shape_and_round_trip(self):
        cfg = ScenarioConfig()
        fragment = calibrate_table(cfg)
        gammas = fragment["memory"]["static_gamma"]
        assert set(gammas) == set(DEFAULT_CALIBRATION_TARGETS)
        assert all(0 < g <= 1 for g in gammas.values())
        calibrated = config_from_dict(
            {"memory": {"static_gamma": {k: float(v) for k, v in gammas.items()}}}
        )
        art = run_table1(calibrated, expected_counts=True)
        for channel, theta, fidelity, sigma, model in art.rows:
            assert fidelity == pytest.approx(DEFAULT_CALIBRATION_TARGETS[channel], abs=1e-9)

    def test_explicit_targets_subset(self):
        fragment = calibrate_table(ScenarioConfig(), targets={"S2": 0.914})
        assert set(fragment["memory"]["static_gamma"]) == {"S2"}
        assert fragment["memory"]["static_gamma"]["S2"] == pytest.approx(
            0.8917592722497402, abs=1e-12
        )

    def test_unknown_target_channel_rejected(self):
        with pytest.raises(ConfigError, match="unknown channel"):
            calibrate_table(ScenarioConfig(), targets={"S9": 0.9})


# Cells of the generated artifacts: strings that an encoder could confuse
# with the layout (quotes, newlines, a row boundary, csv's delimiter),
# non-ASCII text and floats at the edges of the double range.
_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e308, -1e308, 0.1]
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ['"', "\\", "\n", "\r", ",", " ", "", "\u2028", "Φ≈0.94 µs", "],\n      [", "[\n      \n    ]"]
)
_cells = st.one_of(
    _texts,
    _floats,
    # np.float64 subclasses float, but its repr is not the float's.
    _floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
)


@st.composite
def _tables(draw):
    """Rows of one width whose columns each hold one kind of cell, as the runners' do."""
    n, width = draw(st.integers(0, 8)), draw(st.integers(0, 6))
    kinds = [_floats, _texts, _floats.map(np.float64), _cells]
    columns = [
        draw(st.lists(draw(st.sampled_from(kinds)), min_size=n, max_size=n)) for _ in range(width)
    ]
    return list(zip(*columns)) if width else [()] * n


#: Rows of one width of any cells, or a table of uniform columns.
_rows = (
    st.integers(0, 6).flatmap(lambda n: st.lists(st.tuples(*[_cells] * n), max_size=8))
    | _tables()
)
#: Rows of any widths, of any cells.
_ragged_rows = st.lists(st.lists(_cells, max_size=6).map(tuple), max_size=8)

#: A column of floats, two of text with csv's specials and empty cells
#: (csv.writer writes nothing for an empty cell among others), one of np.float64.
_EDGE_ROWS = [
    (x, a, b, np.float64(1.0))
    for x, a, b in zip(_EDGE_FLOATS, ["", '"', "\n", "a", "", "a b"], [",", "\r", " ", "", "", "x"])
]
#: csv.writer writes a lone empty cell as "", so that its row is not blank.
_LONE_EMPTY_ROWS = [("",), ("a",), ("",)]


def _reference_json(artifact: RunArtifact) -> str:
    """The JSON artifact as ``json.dumps`` with indent=2 writes it."""
    payload = {
        "format_version": 1,
        "name": artifact.name,
        "columns": list(artifact.columns),
        "rows": [list(row) for row in artifact.rows],
        "meta": artifact.meta,
        "config": artifact.config,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _reference_csv(artifact: RunArtifact) -> str:
    """The CSV artifact as ``csv.writer`` writes it, floats at 9 significant digits."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(artifact.columns)
    for row in artifact.rows:
        writer.writerow([format(v, ".9g") if isinstance(v, float) else str(v) for v in row])
    return fh.getvalue()


class TestEmit:
    def test_reruns_are_byte_identical(self, tmp_path):
        art1 = run_fig3(ScenarioConfig())
        art2 = run_fig3(ScenarioConfig())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit(art1, str(d1))
        emit(art2, str(d2))
        for name in ("fig3.csv", "fig3.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_format_contract(self, tmp_path):
        emit(run_fig3(ScenarioConfig()), str(tmp_path), formats=("csv",))
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines[0] == "channel,theta_deg,efficiency_sigma_plus,efficiency_sigma_minus"
        first = lines[1].split(",")
        assert first[0] == "S0"
        # 9 significant digits
        assert first[2] == "0.139758829"

    def test_csv_only_run_writes_config_echo(self, tmp_path):
        emit(run_fig3(ScenarioConfig()), str(tmp_path), formats=("csv",))
        echo = json.loads((tmp_path / "fig3.config.json").read_text())
        assert echo == effective_config(ScenarioConfig())
        assert not (tmp_path / "fig3.json").exists()

    def test_json_payload_contract(self, tmp_path):
        emit(run_fig4(ScenarioConfig(), expected_counts=True), str(tmp_path))
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert set(payload) == {"format_version", "name", "columns", "rows", "meta", "config"}
        assert payload["format_version"] == 1
        assert "created_at" not in json.dumps(payload)

    def test_failed_write_leaves_no_partial_set(self, tmp_path, monkeypatch):
        fresh, existing = tmp_path / "fresh", tmp_path / "existing"
        emit(run_fig3(ScenarioConfig()), str(existing))
        before = {p.name: p.read_bytes() for p in existing.iterdir()}

        def failing_dumps(*args, **kwargs):
            raise ValueError("dump failed")

        monkeypatch.setattr(json, "dumps", failing_dumps)
        stale = run_fig3(config_from_dict({"memory": {"tau": 1.0}}))
        for out in (fresh, existing):
            with pytest.raises(ValueError, match="dump failed"):
                emit(stale, str(out))
        assert not fresh.exists()
        assert {p.name: p.read_bytes() for p in existing.iterdir()} == before

    def test_target_that_is_no_regular_file_fails_the_whole_set(self, tmp_path):
        emit(run_fig3(ScenarioConfig()), str(tmp_path))
        before = (tmp_path / "fig3.csv").read_bytes()
        (tmp_path / "fig3.json").unlink()
        (tmp_path / "fig3.json").mkdir()
        stale = run_fig3(config_from_dict({"memory": {"tau": 3.0}}))
        emit(stale, str(tmp_path / "elsewhere"))
        assert (tmp_path / "elsewhere" / "fig3.csv").read_bytes() != before
        with pytest.raises(IOError, match="fig3.json is not a regular file"):
            emit(stale, str(tmp_path))
        assert (tmp_path / "fig3.csv").read_bytes() == before
        assert (tmp_path / "fig3.json").is_dir()
        assert sorted(os.listdir(tmp_path)) == ["elsewhere", "fig3.csv", "fig3.json"]

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cell_raises_and_leaves_no_file(self, tmp_path, cell):
        # In a column of mixed cells, and in a column of floats only.
        for rows in ([(1.0, 2.0), ("x", cell)], [(1.0, 2.0), (3.0, cell)]):
            artifact = RunArtifact("bad", ("a", "b"), rows, {}, {})
            with pytest.raises(ValueError, match="JSON compliant"):
                emit(artifact, str(tmp_path))
            assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cell_creates_no_output_directory(self, tmp_path, cell):
        # Every text is built before the directory is made.
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="JSON compliant"):
            emit(RunArtifact("bad", ("a", "b"), [(1.0, 2.0), (3.0, cell)], {}, {}), str(out))
        assert not out.exists()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        name=st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
        rows=_ragged_rows,
        width=st.integers(0, 6),
        formats=st.sampled_from([("csv",), ("json",), ("csv", "json")]),
    )
    @example(name="x", rows=[(1.0, 2.0, 3.0), (4.0,)], width=2, formats=("csv", "json"))
    @example(name="one", rows=[(1.0, 2.0)] * 3, width=3, formats=("csv", "json"))
    def test_rows_that_do_not_fit_the_columns_raise_and_write_nothing(
        self, name, rows, width, formats
    ):
        assume(any(len(row) != width for row in rows))
        artifact = RunArtifact(name, tuple(f"c{i}" for i in range(width)), rows, {}, {})
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            with pytest.raises(ValueError, match=f"artifact '{name}': rows of "):
                emit(artifact, out, formats)
            assert not os.path.exists(out)

    @pytest.mark.parametrize("runner", [run_fig3, run_fig4, run_fig5, run_table1, run_simulate])
    def test_every_runner_json_equals_indent2_reference(self, tmp_path, runner):
        cfg = config_from_dict({"mc_resamples": 5, "storage_times": [0.005, 1.0, 6.0]})
        artifact = runner(cfg)
        emit(artifact, str(tmp_path), formats=("json",))
        text = (tmp_path / f"{artifact.name}.json").read_text(encoding="utf-8")
        assert text == _reference_json(artifact)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        name=st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
        rows=_rows,
        meta=st.dictionaries(st.text(max_size=5), _cells, max_size=4),
        config=st.dictionaries(st.text(max_size=5), _cells, max_size=4),
    )
    @example(name="edges", rows=_EDGE_ROWS, meta={}, config={})
    @example(name="lone", rows=_LONE_EMPTY_ROWS, meta={}, config={})
    def test_json_equals_indent2_reference_on_generated_payloads(self, name, rows, meta, config):
        columns = tuple(f"c{i}" for i in range(max(map(len, rows), default=0)))
        artifact = RunArtifact(name, columns, rows, config, meta)
        with tempfile.TemporaryDirectory() as tmp:
            emit(artifact, tmp, formats=("json",))
            with open(os.path.join(tmp, f"{name}.json"), "rb") as fh:
                assert fh.read() == _reference_json(artifact).encode("utf-8")

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(rows=_rows)
    @example(rows=_EDGE_ROWS)
    @example(rows=_LONE_EMPTY_ROWS)
    def test_csv_equals_csv_writer_reference_on_generated_rows(self, rows):
        columns = tuple(f"c{i}" for i in range(max(map(len, rows), default=0)))
        artifact = RunArtifact("table", columns, rows, {}, {})
        with tempfile.TemporaryDirectory() as tmp:
            emit(artifact, tmp, formats=("csv",))
            with open(os.path.join(tmp, "table.csv"), "rb") as fh:
                assert fh.read() == _reference_csv(artifact).encode("utf-8")

    def test_rerun_replaces_existing_set_byte_identically(self, tmp_path):
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        emit(run_fig3(ScenarioConfig()), str(first))
        emit(run_fig3(config_from_dict({"memory": {"tau": 1.0}})), str(rerun))
        emit(run_fig3(ScenarioConfig()), str(rerun))
        assert sorted(os.listdir(rerun)) == ["fig3.csv", "fig3.json"]
        for name in ("fig3.csv", "fig3.json"):
            assert (rerun / name).read_bytes() == (first / name).read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            emit(run_fig3(ScenarioConfig()), str(tmp_path), formats=("xml",))

    def test_unwritable_target_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(IOError, match="cannot create"):
            emit(run_fig3(ScenarioConfig()), str(blocker / "sub"))
