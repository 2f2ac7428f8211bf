"""streams.poisson against numpy.random itself: every draw equal, bit for bit."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemsim import scenarios, streams
from qmemsim.config import ScenarioConfig
from qmemsim.streams import _LAM_MAX, _log, _loggam, poisson
from reference_impl import numpy_stream

# Key parts at the edges of SeedSequence's 32-bit word split.
EDGE_PARTS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)

# Means of each of numpy's cases: 0 (no draw), the multiplication method,
# the last float below 10, and PTRS from 10 up.
MEANS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    st.just(math.nextafter(10.0, 0.0)),
    st.just(10.0),
    st.floats(10.0, 1e7),
)


def numpy_draws(keys, lam):
    return np.array([numpy_stream(*key).poisson(row) for key, row in zip(keys, lam)])


# One to four streams of three key parts, each drawing a row of six means.
CASES = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.sampled_from(EDGE_PARTS), min_size=3, max_size=3), min_size=n),
        st.lists(st.lists(MEANS, min_size=6, max_size=6), min_size=n, max_size=n),
    )
)


def assert_poisson_equals_numpy(case):
    keys, lam = case
    keys, lam = keys[: len(lam)], np.array(lam)
    got = poisson(np.array(keys, dtype=np.uint64), lam)
    assert got.dtype == np.int64
    assert np.array_equal(got, numpy_draws(keys, lam))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(CASES)
def test_poisson_equals_numpy_for_every_kind_of_mean(case):
    assert_poisson_equals_numpy(case)


def ulp_off(log, direction):
    """``log`` moved one ULP towards ``direction``, but for log 0 = -inf."""

    def moved(x):
        y = log(x)
        return np.where(np.isinf(y), y, np.nextafter(y, direction))

    return moved


@pytest.mark.parametrize(
    "fast_log, slack",
    [(ulp_off(np.log, math.inf), streams._SLACK), (ulp_off(np.log, -math.inf), streams._SLACK),
     (np.log, math.inf)],
    ids=["log-ulp-up", "log-ulp-down", "slack-inf"],
)  # fmt: skip
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=CASES)
def test_poisson_equals_numpy_with_the_fast_log_off_or_never_deciding(fast_log, slack, case):
    # Every attempt's decision is libm's whether np.log is a ULP off (the filter's
    # slack covers it) or the slack is inf (every attempt takes libm's logs).
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_fast_log", fast_log)
        patch.setattr(streams, "_SLACK", slack)
        assert_poisson_equals_numpy(case)


def libm_accepts(v, w, log_invalpha, lam, log_lam, k):
    """PTRS's log-acceptance test as numpy's C code makes it, every log libm's."""
    rhs = -lam + k * log_lam - _loggam((k + 1).astype(float))
    return _log(v) + log_invalpha - _log(w) <= rhs


@pytest.mark.parametrize("direction", [None, math.inf, -math.inf])
def test_near_ties_and_log_of_zero_are_decided_with_libms_logs(monkeypatch, direction):
    # Ties of log V: at w = 1, log(invalpha) = 0 and k = 0 the test is log V <= -lam.
    # Ties of loggam's log: at V = w = 1 it is log(invalpha) <= -lam + k log(lam) - loggam(k + 1).
    # Each comes as a tie and with lhs one ULP above and below rhs.  A fast log one ULP up
    # decides the ties wrongly, one ULP down the ULP-above cases, so only libm's logs decide
    # them all.  V = 0 has log -inf; the last attempt is far from a tie.
    real_log, seen = streams._log, []
    if direction is not None:
        monkeypatch.setattr(streams, "_fast_log", ulp_off(real_log, direction))
    monkeypatch.setattr(streams, "_log", lambda x: seen.append(x.copy()) or real_log(x))
    v_ties, k_ties = np.array([0.3, 0.7, 1e-5, 0.9999]), np.array([20, 150, 10**6])
    log_v, lam_k = real_log(v_ties), k_ties.astype(float)
    rhs_k = -lam_k + k_ties * real_log(lam_k) - _loggam(lam_k + 1.0)

    def ulp(y, way):  # y, or its neighbour up (way 1) or down (way -1)
        return np.nextafter(y, way * math.inf) if way else y

    v, log_invalpha, lam, k = [], [], [], []
    for sign in (0, 1, -1):  # lhs at rhs, one ULP above it, one below
        v += [*v_ties, 1.0, 1.0, 1.0]
        log_invalpha += [0.0] * 4 + ulp(rhs_k, sign).tolist()  # lhs = log(invalpha) moves
        lam += (-ulp(log_v, -sign)).tolist() + lam_k.tolist()  # rhs = -lam moves
        k += [0] * 4 + k_ties.tolist()
    v, log_invalpha = np.array(v + [0.0, 0.5]), np.array(log_invalpha + [0.0, 0.0])
    lam, k = np.array(lam + [30.0, 30.0]), np.array(k + [0, 0])
    w, log_lam = np.ones(v.size), real_log(lam)
    with np.errstate(divide="ignore"):  # np.log(0), as inside poisson
        got = streams._accepts(v, w, log_invalpha, lam, log_lam, k)
    want = libm_accepts(v, w, log_invalpha, lam, log_lam, k)
    assert want.tolist() == [True] * 7 + [False] * 7 + [True] * 7 + [True, False]
    assert got.tolist() == want.tolist()
    assert seen[0].tolist() == v[:-1].tolist()  # every attempt but the last took libm's logs


def test_slow_path_and_the_small_loggam_loop_run_and_match_numpy(monkeypatch):
    # At a mean of 10, attempts with U near -0.45 give k <= 5 on PTRS's
    # log-acceptance test, which takes random_loggam's x < 7 loop.
    seen = []
    real = streams._loggam

    def recording(x, *log):
        seen.append(x.copy())
        return real(x, *log)

    monkeypatch.setattr(streams, "_loggam", recording)
    keys = [(2024, j) for j in range(2000)]
    lam = np.full((2000, 3), 10.0)
    got = poisson(np.array(keys, dtype=np.uint64), lam)
    x = np.concatenate(seen)
    assert (x < 7.0).any() and (x >= 7.0).any() and (x <= 2.0).any()
    assert np.array_equal(got, numpy_draws(keys, lam))


def test_loggam_is_log_gamma():
    x = np.arange(1.0, 40.0)
    want = [math.lgamma(v) for v in x]
    assert np.allclose(_loggam(x), want, rtol=1e-14, atol=1e-14)
    assert _loggam(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
    assert np.allclose(_loggam(x, np.log), want, rtol=1e-14, atol=1e-14)


def test_log_of_zero_is_minus_infinity_as_in_c():
    # next_double returns 0 with probability 2**-53; PTRS then takes log(0).
    assert _log(np.array([0.0, 0.5, math.inf])).tolist() == [-math.inf, math.log(0.5), math.inf]


def test_draws_are_a_pure_function_of_the_keys():
    # Each key row draws from a fresh stream: the same keys twice, and any
    # subset of the rows alone, give numpy's draws of that row's fresh stream.
    keys = np.array([(7, 1), (7, 2), (8, 2**40), (2**64 - 1, 0)], dtype=np.uint64)
    lam = np.array([[3.5, 0.0, 250.0], [12.0, 9.0, 0.0], [0.0, 0.0, 0.0], [1e6, 0.5, 10.0]])
    want = numpy_draws(keys.tolist(), lam)
    assert np.array_equal(poisson(keys, lam), want)
    assert np.array_equal(poisson(keys, lam), want)
    for rows in ([0], [3], [2, 1], [3, 0, 2], []):
        assert np.array_equal(poisson(keys[rows], lam[rows]), want[rows])


def test_zero_keys_draw_nothing():
    for shape in [(0,), (0, 5)]:
        draws = poisson(np.zeros((*shape, 3), dtype=np.uint64), np.zeros((0, 4, 3, 2)))
        assert draws.shape == (*shape, 4, 3, 2) and draws.dtype == np.int64


def test_largest_mean_draws_as_numpy_and_any_larger_one_is_refused():
    assert _LAM_MAX == np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
    keys = [(5, j) for j in range(200)]
    lam = np.full((200, 2), _LAM_MAX)
    got = poisson(np.array(keys, dtype=np.uint64), lam)
    assert np.array_equal(got, numpy_draws(keys, lam))
    for bad in (math.nextafter(_LAM_MAX, math.inf), 1e30, math.inf, math.nan, -1.0):
        with pytest.raises(ValueError) as want:
            numpy_stream(5).poisson(np.array([bad]))
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            poisson(np.array([[5]], dtype=np.uint64), np.array([[bad]]))


def test_a_row_of_means_for_every_row_of_streams():
    assert poisson(np.zeros((3, 2, 1), dtype=np.uint64), np.zeros((3, 4))).shape == (3, 2, 4)
    # A 0-d stack has no rows, and 0-d means make no row.
    for shape, lam in [((3, 2), (2, 4)), ((), (1,)), ((), ()), ((3,), ())]:
        message = f"means {lam} need one row per row of streams {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            poisson(np.zeros((*shape, 1), dtype=np.uint64), np.full(lam, 30.0))


@pytest.mark.parametrize("keys", [[[7, -1]], [[7, 1]], [[7.0, 1.0]]])
def test_keys_must_be_uint64(keys):
    # numpy's SeedSequence refuses a negative key part; keys of any other dtype than
    # uint64, a negative one or not, are refused before they are read as words.
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        numpy_stream(7, -1)
    keys = np.array(keys)
    with pytest.raises(ValueError, match=f"^stream keys must be uint64, got {keys.dtype}$"):
        poisson(keys, np.array([[30.0]]))


def ptrs_attempts(seed, n):
    """PTRS attempts (v, w, log(invalpha), lam, log(lam), k) as poisson makes them, from n at
    means from 10 to 300, those with k >= 0; k runs up to a few hundred."""
    rng = numpy_stream(seed)
    lam = np.concatenate([[10.0], rng.uniform(10.0, 300.0, n - 1)])
    two_a, _, _, lam, b, a, log_invalpha, log_lam = streams._poisson_constants(lam).T
    u, v = rng.uniform(-0.5, 0.5, n), rng.uniform(0.0, 1.0, n)
    us = 0.5 - np.abs(u)
    k = np.floor((two_a / us + b) * u + lam + 0.43).astype(np.int64)
    keep = k >= 0
    return v[keep], (a / (us * us) + b)[keep], log_invalpha[keep], lam[keep], log_lam[keep], k[keep]


@pytest.mark.parametrize("end", [-1, 0, 1], ids=["ends-below", "ends-at", "ends-above"])
@pytest.mark.parametrize("direction", [None, math.inf, -math.inf])
def test_accepts_reading_a_table_decides_as_libm(monkeypatch, end, direction):
    # Ties of loggam at V = w = 1: log(invalpha) at rhs, one ULP above and one below, for
    # k + 1 at 1, 6 and 7 (the values below the series), 8, 21 and 151.  The table holds
    # x = 1, ..., k + 1 + end of the tie at k = 20, so the ties past it evaluate loggam
    # directly; 400 attempts as poisson makes them ride along.
    if direction is not None:
        monkeypatch.setattr(streams, "_fast_log", ulp_off(np.log, direction))
    k_ties = np.tile([0, 5, 6, 7, 20, 150], 3)
    lam = np.full(18, 30.0)
    rhs = -lam + k_ties * _log(lam) - _loggam((k_ties + 1).astype(float))
    ulps = np.repeat([0.0, math.inf, -math.inf], 6)  # at rhs, one ULP above, one below
    log_invalpha = np.where(ulps == 0.0, rhs, np.nextafter(rhs, ulps))
    ties = [np.ones(18), np.ones(18), log_invalpha, lam, _log(lam), k_ties]
    attempts = [np.concatenate(pair) for pair in zip(ties, ptrs_attempts(11, 400))]
    table = streams._loggam_table(30.0)[:, : 21 + end]
    direct = []
    real = streams._loggam_bound
    monkeypatch.setattr(streams, "_loggam_bound", lambda x: direct.append(x) or real(x))
    with np.errstate(divide="ignore"):
        got = streams._accepts(*attempts, table)
    assert got.tolist() == libm_accepts(*attempts).tolist()
    assert got[:18].tolist() == [True] * 6 + [False] * 6 + [True] * 6
    k = attempts[-1]
    assert np.concatenate(direct).tolist() == (k[k > 20 + end] + 1.0).tolist()


@pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle", "last"])
def test_one_small_mean_among_ptrs_means_draws_as_numpy(where):
    # Each round, the streams at their small mean take the multiplication method on their
    # own while the rest make PTRS attempts.
    rng = numpy_stream(where)
    lam = rng.uniform(10.0, 1e4, (500, 7))
    lam[:, where] = rng.uniform(0.0, 10.0, 500)
    keys = [(where, j) for j in range(500)]
    got = poisson(np.array(keys, dtype=np.uint64), lam)
    assert np.array_equal(got, numpy_draws(keys, lam))


def test_largest_mean_draws_as_numpy_with_a_table_of_at_most_2_16_entries(monkeypatch):
    tables, direct = [], []
    real_table, real_bound = streams._loggam_table, streams._loggam_bound

    def table(lam_max):
        tables.append(real_table(lam_max))
        return tables[-1]

    monkeypatch.setattr(streams, "_loggam_table", table)
    monkeypatch.setattr(streams, "_loggam_bound", lambda x: direct.append(x) or real_bound(x))
    keys = [(6, j) for j in range(50)]
    lam = np.full((50, 2), _LAM_MAX)
    got = poisson(np.array(keys, dtype=np.uint64), lam)
    assert np.array_equal(got, numpy_draws(keys, lam))
    # Every attempt's k is near 2**63, past any table: none is built, and each attempt
    # evaluates its terms directly.
    assert len(tables) == 1 and tables[0].shape == (2, 0)
    assert direct and min(x.min() for x in direct) > 2**62


def test_high_count_grid_draws_as_numpy_with_no_table(monkeypatch):
    # The high-count grid of tests/test_bootstrap_grids.py (S2 at M = 10**9 pulses over four
    # storage times) has means of 7e5 to 3e7, none below 2**16, so no log-gamma table is
    # built: every loggam is an attempt's own, at x near its mean.  A mean of 100 among
    # them sizes the table alone, to x below 100 + 10 sqrt(100) + 16.
    cfg = dataclasses.replace(
        ScenarioConfig(),
        pulses_per_setting=10**9,
        mc_resamples=2,
        storage_times=(0.005, 1.0, 3.0, 6.0),
    )
    seen = []
    monkeypatch.setattr(
        scenarios, "monte_carlo_error", lambda counts, *_: seen.append(counts) or counts[:, 0, 0, 0]
    )
    scenarios.tomography_points(cfg, [("S2", t) for t in cfg.storage_times])
    grid = seen[0].reshape(len(seen[0]), -1)
    assert 5e5 < grid.min() and 2e7 < grid.max() < 4e7
    real_table, real_bound = streams._loggam_table, streams._loggam_bound
    for lam, table_size in ((grid, 0), (np.where(grid == grid.max(), 100.0, grid), 215)):
        tables, direct = [], []

        def table(lam_max):
            tables.append(real_table(lam_max))
            return tables[-1]

        monkeypatch.setattr(streams, "_loggam_table", table)
        monkeypatch.setattr(streams, "_loggam_bound", lambda x: direct.append(x) or real_bound(x))
        keys = [(9, k, j) for k in range(len(lam)) for j in range(5)]
        got = poisson(np.array(keys, dtype=np.uint64).reshape(len(lam), 5, 3), lam)
        assert np.array_equal(got.reshape(len(keys), -1), numpy_draws(keys, lam.repeat(5, axis=0)))
        assert [built.shape for built in tables] == [(2, table_size)]
        attempts = direct[1:] if table_size else direct  # the table is one call of its own
        assert attempts and min(x.min() for x in attempts) > 2**16
