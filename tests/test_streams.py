"""Streams against numpy.random itself: every draw equal, bit for bit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemsim import streams
from qmemsim.streams import Streams, _LAM_MAX, _log, _loggam
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.sampled_from(EDGE_PARTS), min_size=3, max_size=3), min_size=n),
            st.lists(st.lists(MEANS, min_size=6, max_size=6), min_size=n, max_size=n),
        )
    )
)
def test_poisson_equals_numpy_for_every_kind_of_mean(case):
    keys, lam = case
    keys, lam = keys[: len(lam)], np.array(lam)
    got = Streams(np.array(keys, dtype=np.uint64)).poisson(lam)
    assert got.dtype == np.int64
    assert np.array_equal(got, numpy_draws(keys, lam))


def test_slow_path_and_the_small_loggam_loop_run_and_match_numpy(monkeypatch):
    # At a mean of 10, attempts with U near -0.45 give k <= 5 on PTRS's
    # log-acceptance test, which takes random_loggam's x < 7 loop.
    seen = []
    real = streams._loggam

    def recording(x):
        seen.append(x.copy())
        return real(x)

    monkeypatch.setattr(streams, "_loggam", recording)
    keys = [(2024, j) for j in range(2000)]
    lam = np.full((2000, 3), 10.0)
    got = Streams(np.array(keys, dtype=np.uint64)).poisson(lam)
    x = np.concatenate(seen)
    assert (x < 7.0).any() and (x >= 7.0).any() and (x <= 2.0).any()
    assert np.array_equal(got, numpy_draws(keys, lam))


def test_loggam_is_log_gamma():
    x = np.arange(1.0, 40.0)
    want = [math.lgamma(v) for v in x]
    assert np.allclose(_loggam(x), want, rtol=1e-14, atol=1e-14)
    assert _loggam(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]


def test_log_of_zero_is_minus_infinity_as_in_c():
    # next_double returns 0 with probability 2**-53; PTRS then takes log(0).
    assert _log(np.array([0.0, 0.5, math.inf])).tolist() == [-math.inf, math.log(0.5), math.inf]


def test_draws_continue_each_stream_across_calls():
    keys = [(7, 1), (7, 2), (8, 2**40)]
    lam = np.array([[3.5, 0.0, 250.0], [12.0, 9.0, 0.0], [0.0, 0.0, 0.0]])
    stack = Streams(np.array(keys, dtype=np.uint64))
    first, second = stack.poisson(lam), stack.poisson(lam[:, ::-1])
    for key, row, a, b in zip(keys, lam, first, second):
        rng = numpy_stream(*key)
        assert np.array_equal(a, rng.poisson(row))
        assert np.array_equal(b, rng.poisson(row[::-1]))


def test_largest_mean_draws_as_numpy_and_any_larger_one_is_refused():
    assert _LAM_MAX == np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
    keys = [(5, j) for j in range(200)]
    lam = np.full((200, 2), _LAM_MAX)
    got = Streams(np.array(keys, dtype=np.uint64)).poisson(lam)
    assert np.array_equal(got, numpy_draws(keys, lam))
    for bad in (math.nextafter(_LAM_MAX, math.inf), 1e30, math.inf, math.nan, -1.0):
        with pytest.raises(ValueError) as want:
            numpy_stream(5).poisson(np.array([bad]))
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            Streams(np.array([[5]], dtype=np.uint64)).poisson(np.array([[bad]]))


def test_a_row_of_means_for_every_row_of_streams():
    stack = Streams(np.zeros((3, 2, 1), dtype=np.uint64))
    assert stack.shape == (3, 2)
    assert stack.poisson(np.zeros((3, 4))).shape == (3, 2, 4)
    # A 0-d stack has no rows, and 0-d means make no row.
    for shape, lam in [((3, 2), (2, 4)), ((), (1,)), ((), ()), ((3,), ())]:
        message = f"means {lam} need one row per row of streams {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Streams(np.zeros((*shape, 1), dtype=np.uint64)).poisson(np.full(lam, 30.0))
