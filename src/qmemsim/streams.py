"""numpy.random's streams ``Generator(PCG64(SeedSequence(entropy=key)))``, many at once.

Bit for bit: SeedSequence's hash, PCG64 (O'Neill, HMC-CS-2014-0905: the 128-bit LCG in
uint64 halves, XSL-RR output, next_double) and Generator.poisson (Hörmann's PTRS for means
>= 10, Insurance: Math. Econ. 12, 39 (1993); the multiplication method below).  Float
operations are the C code's, in its order, and every value and decision is libm's: each exp
and each per-mean log is math.exp or math.log, the libm calls of the C code (numpy's SIMD
np.log and np.exp differ from libm in the last bit).  PTRS's log-acceptance test is decided
with np.log wherever a forward-error bound of 2**-40 times the summed magnitudes of its terms
proves the sign (``_accepts``), and with libm's logs on the rest; its log-gamma terms come
from a table that each call makes once (``_loggam_table``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence constants (O'Neill's seed_seq_fe, pool of 4 words).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
# PCG64's LCG multiplier M; two steps multiply by M**2 and add (M + 1) inc.
_MUL = 0x2360ED051FC65DA44385DF649FCCF645
#: The largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX).
_LAM_MAX = float(2**63 - 1) - math.sqrt(2**63 - 1) * 10
# random_loggam's series coefficients a[9], ..., a[0] (Horner order), and log(2 pi) / 2.
_LOGGAM_A = (-1.39243221690590e00, 1.796443723688307e-01, -2.955065359477124e-02,
             6.410256410256410e-03, -1.917526917526918e-03, 8.417508417508418e-04,
             -5.952380952380952e-04, 7.936507936507937e-04, -2.777777777777778e-03,
             8.333333333333333e-02)  # fmt: skip
_HALF_LG2PI = 0.5 * 1.8378770664093453
#: The log the acceptance filter evaluates with, and its slack relative to the terms (``_accepts``).
_fast_log, _SLACK = np.log, 2.0**-40
#: The log-gamma table of a call ends below x = 2**16 (2 x 2**16 floats at most); PTRS attempts
#: past its end evaluate their terms directly.
_TABLE_END = 2.0**16


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words at ``const``, and the constant after it."""
    following = const * mult & _MASK32
    value = (value ^ const) * following
    return value ^ value >> _XSHIFT, following


def _mix(x: np.ndarray, y: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's mix(x, hashmix(y)) at ``const``, and the constant after it."""
    y, const = _hashmix(y, const, _MULT_A)
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT, const


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=row).generate_state(4, np.uint64)`` of each row of uint64 keys (N, L).

    Each key splits into SeedSequence's uint32 words, its high word kept only if not 0; rows
    of one word count hash at once, words wrapping as arrays, constants as ints.
    """
    high, width = entropy >> 32, 2 * entropy.shape[1]
    words = np.stack([entropy & _MASK32, high], -1).astype(np.uint32).reshape(-1, width)
    kept = np.stack([np.ones(high.shape, bool), high > 0], -1).reshape(words.shape)
    lengths = kept.sum(axis=1)
    seeded = np.empty((len(entropy), 4), dtype=np.uint64)
    for length in set(lengths.tolist()):
        rows = lengths == length
        columns = list(words[rows][kept[rows]].reshape(-1, length).T)
        columns += [np.zeros_like(columns[0])] * (4 - length)
        pool, const = columns[:4], _INIT_A
        for i in range(4):
            pool[i], const = _hashmix(pool[i], const, _MULT_A)
        for src, dst in itertools.permutations(range(4), 2):
            pool[dst], const = _mix(pool[dst], pool[src], const)
        for word in columns[4:]:
            for dst in range(4):
                pool[dst], const = _mix(pool[dst], word, const)
        # generate_state(4, np.uint64) reads its 8 words as little-endian pairs.
        out, const = np.empty((len(pool[0]), 8), dtype="<u4"), _INIT_B
        for i in range(8):
            out[:, i], const = _hashmix(pool[i % 4], const, _MULT_B)
        seeded[rows] = out.view("<u8")
    return seeded


def _multiplier(mul: int) -> tuple:
    """``mul`` mod 2**128 as ``_step`` takes it: 64-bit halves hi and lo, and lo's 32-bit halves."""
    hi, lo = divmod(mul % 2**128, 2**64)
    return hi, lo, lo & _MASK32, lo >> 32


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi, inc_lo, mul) -> tuple:
    """128-bit (hi, lo) * mul + (inc_hi, inc_lo) mod 2**128 in uint64 halves (``_multiplier``)."""
    mul_hi, mul_lo, m0, m1 = mul
    a0, a1 = lo & _MASK32, lo >> 32
    mid = a1 * m0 + (a0 * m0 >> 32)
    carry = a1 * m1 + (mid >> 32) + ((mid & _MASK32) + a0 * m1 >> 32)
    new_lo = lo * mul_lo + inc_lo
    return hi * mul_lo + lo * mul_hi + carry + inc_hi + (new_lo < inc_lo), new_lo


def _log(x: np.ndarray) -> np.ndarray:
    """libm's log of each element of x >= 0, through ``math.log``; log 0 is -inf, as in C."""
    return np.array([math.log(v) if v else -math.inf for v in x.tolist()])


def _series(x0, log_x0):
    """Stirling's series of ``random_loggam`` at x0 >= 7, given log x0."""
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[0]
    for coef in _LOGGAM_A[1:]:
        gl0 = gl0 * x2 + coef
    return gl0 / x0 + _HALF_LG2PI + (x0 - 0.5) * log_x0 - x0


def _small_loggam() -> tuple:
    """``random_loggam(x)`` of x = 1, ..., 7 as the C code evaluates it: the series at 7, then
    log(6), log(5), ... down to log(x) come off in turn; 1 and 2 give 0."""
    gl = [_series(7.0, math.log(7.0))]
    for x in range(6, 2, -1):
        gl.insert(0, gl[0] - math.log(x))
    return (0.0, 0.0, *gl)


_LOGGAM_SMALL = np.array(_small_loggam())


def _loggam(x: np.ndarray, log=_log) -> np.ndarray:
    """numpy's ``random_loggam`` of integer-valued x >= 1: Stirling's series with ``log`` (libm's
    by default) of x from 8 up, and the values the C code yields at x <= 7."""
    x0 = np.maximum(x, 7.0)
    gl = _series(x0, log(x0))
    small = np.flatnonzero(x <= 7.0)
    if small.size:
        gl[small] = _LOGGAM_SMALL[x[small].astype(np.intp) - 1]
    return gl


def _loggam_bound(x: np.ndarray) -> tuple:
    """``_loggam(x, _fast_log)``, and (x0 - 0.5) log x0 + x0 + |loggam| with x0 = max(x, 7):
    the part of ``_accepts``' term sum that loggam(x) brings."""
    x0, gl = np.maximum(x, 7.0), _loggam(x, _fast_log)
    return gl, (x0 - 0.5) * _fast_log(x0) + x0 + np.abs(gl)


def _accepts(v, w, log_invalpha, lam, log_lam, k, table=None) -> np.ndarray:
    """libm's decision of PTRS's log-acceptance test, log(V) + log(invalpha) - log(w) <= -lam +
    k log(lam) - loggam(k + 1), of each attempt, with w = a / us**2 + b.  ``table`` (2, n), from
    ``_loggam_table``, holds ``_loggam_bound`` of x = 1, ..., n; attempts past it evaluate theirs.

    A filtered predicate (Shewchuk, Discrete Comput. Geom. 18, 305 (1997)): both sides are
    evaluated with ``_fast_log``, and the sign of lhs - rhs decides wherever |lhs - rhs| exceeds
    slack = 2**-40 S, S the sum of the terms' magnitudes below; the rest (near-ties, and V = 0,
    whose log -inf makes S inf) are evaluated again with libm's logs.  Why the slack suffices:
    both evaluations make the same float operations in the same order, and differ only in the
    logs of V, w and x0 = max(k + 1, 7).  With u = 2**-53 and each log within 4 ULP of the
    true one (numpy 2.4's AVX-512 np.log is within 1 ULP of libm on 4 M arguments), two logs
    of one argument differ by <= 10 u |log|, which makes <= 10 u S in all; each of the <= 11
    roundings after them adds <= 2 u of a partial sum, which is <= 2 S (the constants of
    loggam, below 8, are smaller than lam >= 10).  So the two values of lhs - rhs differ by
    < 54 u S < 2**-47 S, and 2**-40 leaves a factor 128.  A table entry is the same value
    from the same operations, so reading it changes none of this.
    """
    log_v, log_w, k_log_lam = _fast_log(v), _fast_log(w), k * log_lam
    size = 0 if table is None else table.shape[1]
    past = (k >= size).nonzero()[0]
    if past.size == k.size:
        gl, bound = _loggam_bound((k + 1).astype(float))
    else:  # k >= 0, so clipping reads the last entry for the attempts past the table
        gl, bound = table.take(k, axis=1, mode="clip")
        if past.size:
            gl[past], bound[past] = _loggam_bound((k[past] + 1).astype(float))
    lhs, rhs = log_v + log_invalpha - log_w, -lam + k_log_lam - gl
    terms = np.abs(log_v) + np.abs(log_w) + np.abs(log_invalpha) + lam + np.abs(k_log_lam)
    terms += bound
    accept, near = lhs <= rhs, (~(np.abs(lhs - rhs) > _SLACK * terms)).nonzero()[0]
    if near.size:
        v, w, log_i, lam, k_log_lam, k = (a[near] for a in (v, w, log_invalpha, lam, k_log_lam, k))
        gl = _loggam((k + 1).astype(float))
        accept[near] = _log(v) + log_i - _log(w) <= -lam + k_log_lam - gl
    return accept


def _loggam_table(lam_max: float) -> np.ndarray:
    """``_loggam_bound`` of x = 1, 2, ... below min(lam_max + 10 sqrt(lam_max) + 16, 2**16),
    (2, n), for PTRS at means up to lam_max; empty below 10, where no mean takes PTRS."""
    if lam_max < 10.0:
        return np.empty((2, 0))
    end = min(lam_max + 10.0 * math.sqrt(lam_max) + 16.0, _TABLE_END)
    return np.stack(_loggam_bound(np.arange(1.0, math.ceil(end))))


def _poisson_constants(lam: np.ndarray) -> np.ndarray:
    """Columns 2a, vr, exp(-lam), lam, b, a, log(invalpha), log(lam) of flat means: PTRS's
    for means >= 10, exp(-lam) and lam below."""
    table, ptrs = np.zeros((lam.size, 8)), lam >= 10.0
    table[~ptrs, 2:4] = np.array([(math.exp(-v), v) for v in lam[~ptrs].tolist()]).reshape(-1, 2)
    lam = lam[ptrs]
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    zero = np.zeros(lam.size)
    table[ptrs] = np.column_stack((2 * a, vr, zero, lam, b, a, _log(invalpha), _log(lam)))
    return table


def poisson(keys: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """int64 ``Generator.poisson(lam[u])`` of the fresh stream of each uint64 key [u, ...] of
    ``keys`` (..., L): numpy.random's ``Generator(PCG64(SeedSequence(entropy=key)))``, bit for
    bit (``_seed_words``); the draws have shape ``keys.shape[:-1] + lam.shape[1:]``.

    Each stream draws its row of means in C order, all streams in lockstep.  Each round, every
    stream not done steps its state twice (U and V) and acts at its current mean:

    - at 10 and up, one PTRS attempt.  Most end at once (us >= 0.07 and V <= vr); those left
      for the log-acceptance test (``_accepts``) read loggam(k + 1) and its error-bound term
      from a table made once per call for k + 1 below min(lam_max + 10 sqrt(lam_max) + 16,
      2**16), lam_max the largest mean below 2**16 (``_loggam_table``; none if that mean is
      below 10), and evaluate both directly past its end;
    - below 10, the multiplication method, on the subset of streams at such a mean: up to two
      factors, keeping the one-step state when the first factor ends the draw.  A round with
      no such stream skips it;
    - a mean of 0 takes no round.

    Every draw is numpy's: a table entry is the value the direct evaluation makes, from the
    same float operations, and every test the filter in ``_accepts`` cannot prove is decided
    with libm's logs.
    """
    if keys.dtype != np.uint64:
        raise ValueError(f"stream keys must be uint64, got {keys.dtype}")
    lam, shape = np.asarray(lam, dtype=float), keys.shape[:-1]
    if not np.all(lam <= _LAM_MAX):
        raise ValueError("lam value too large")
    if not np.all(lam >= 0.0):
        raise ValueError("lam < 0 or lam contains NaNs")
    if not lam.shape or lam.shape[:1] != shape[:1]:
        raise ValueError(f"means {lam.shape} need one row per row of streams {shape}")
    size, per_row = math.prod(lam.shape[1:]), math.prod(shape[1:])
    means = lam.reshape(len(lam), size)
    table = _poisson_constants(means.ravel())
    # later[u, i]: the flat index of row u's first mean at or after i that is not 0, or -1.
    later = np.full((len(means), size + 1), -1)
    for i in range(size - 1, -1, -1):
        later[:, i] = np.where(means[:, i] != 0, np.arange(i, lam.size, size), later[:, i + 1])
    after = later[:, 1:].ravel()
    out = np.zeros(math.prod(shape) * size, dtype=np.int64)
    sid = np.flatnonzero(later[:, 0].repeat(per_row) >= 0)
    w0, w1, w2, w3 = _seed_words(keys.reshape(-1, keys.shape[-1])[sid]).T
    # pcg64_set_seed: inc = (w2:w3) << 1 | 1, state = step(step(0) + (w0:w1)), step(0) = inc.
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
    hi, lo = _step(*_step(w0, w1, *inc, _multiplier(1)), *inc, _multiplier(_MUL))
    # Rows 0 and 1 step once and twice: multipliers M and M**2, increments inc and (M + 1) inc.
    inc_hi, inc_lo = map(np.stack, zip(inc, _step(*inc, 0, 0, _multiplier(_MUL + 1))))
    mul = np.array([_multiplier(_MUL), _multiplier(_MUL**2)], dtype=np.uint64).T[..., None]
    # A stream's draw of flat mean m goes to out[base + m], base = (stream - its row) * size.
    row = sid // per_row
    mean, base = later[row, 0], (sid - row) * size
    count, prod = np.zeros(sid.size, dtype=np.int64), np.ones(sid.size)
    # Sized by the largest mean below the table's end: attempts at means from there up
    # nearly all land past it, and evaluate their terms directly wherever they land.
    loggam = _loggam_table(means[means < _TABLE_END].max(initial=0.0))
    # As in C: us = 0 divides to inf; (int64_t) of x beyond int64 is INT64_MIN (rejected).
    with np.errstate(all="ignore"):
        while mean.size:
            two_a, vr, exp_lam, lam_, b = table.take(mean, axis=0)[:, :5].T
            ptrs = lam_ >= 10.0
            steps = _step(hi, lo, inc_hi, inc_lo, mul)
            xored, rot = steps[0] ^ steps[1], steps[0] >> 58  # next_double of XSL-RR output
            first, v = ((xored >> rot | xored << (64 - rot & 63)) >> 11) * (1.0 / 2**53)
            u = first - 0.5
            us = 0.5 - np.abs(u)
            k = np.floor((two_a / us + b) * u + lam_ + 0.43).astype(np.int64)
            done = (us >= 0.07) & (v <= vr)
            slow = (ptrs & ~done & (k >= 0) & ((us >= 0.013) | (v <= us))).nonzero()[0]
            if slow.size:
                lam_s, b_s, a, log_invalpha, log_lam = table.take(mean[slow], axis=0)[:, 3:].T
                us_s = us[slow]
                w = a / (us_s * us_s) + b_s
                done[slow] = _accepts(v[slow], w, log_invalpha, lam_s, log_lam, k[slow], loggam)
            hi, lo = steps[0][1], steps[1][1]  # a PTRS attempt takes both steps, U and V
            mult = (~ptrs).nonzero()[0]
            if mult.size:  # the multiplication method's streams; k becomes their count
                prod_m, exp_m = prod[mult] * first[mult], exp_lam[mult]
                second = prod_m * v[mult]
                # A second factor is taken if the first leaves the product above exp(-lam).
                two, more = prod_m > exp_m, second > exp_m
                one = mult[~two]
                hi[one], lo[one] = steps[0][0, one], steps[1][0, one]
                count_m = count[mult]
                done[mult], k[mult] = ~more, count_m + two
                count[mult] = np.where(more, count_m + 2, 0)
                prod[mult] = np.where(more, second, 1.0)
            fin = done.nonzero()[0]
            now = mean[fin]
            out[base[fin] + now] = k[fin]
            mean[fin] = after[now]
            if mean.min() < 0:
                keep = (mean >= 0).nonzero()[0]
                live = (base, mean, hi, lo, inc_hi, inc_lo, count, prod)
                base, mean, hi, lo, inc_hi, inc_lo, count, prod = (x.take(keep, -1) for x in live)
    return out.reshape(shape + lam.shape[1:])
