"""Reproducible random-variate generation.

Every stream of a given master seed is a window of one PCG64DXSM sequence
seeded by ``master_seed`` (O'Neill, "PCG: a family of simple fast
space-efficient statistically good algorithms for random number
generation", HMC-CS-2014-0905).  Stream ``i`` owns draws
``[i * 2^64, (i + 1) * 2^64)`` of it, one double a draw, so distinct stream
indices draw from disjoint windows of the sequence's 2^128 period.  The
generator jumps ahead by any number of draws in O(1), so a window starts
where it is needed without drawing what comes before it.

A simulation run owns the window of its ``base_stream_index`` and lays its
sessions out back to back in it: session ``s`` of rows of ``width``
uniforms starts ``s * width`` draws into the window.  A batch of sessions
is then one contiguous range of draws, filled by a single generator call,
and any session can still be replayed in O(1) with :func:`session_stream`.

All exponential-family draws go through the inverse CDF so that a draw is
a fixed, deterministic function of one uniform.  That keeps replay exact,
lets order statistics of arbitrarily many variables be drawn in O(1), and
makes draws at different rates exact scalings of each other.
Gamma quantiles of large integer shape come from a per-shape cubic table
in the two-sided log score ``sign(u - 1/2) sqrt(-2 log(2 min(u, 1 - u)))``
of the uniform (:func:`gamma_from_uniform`), which numpy computes with one
``log`` and one ``sqrt``.  The table's scipy.special calls are made when it
is built, not on import, so code that draws no gamma quantile never loads
scipy.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .params import integer_at_least

_MAX_UINT64 = 2**64 - 1

# Draws each stream owns; stream i's window starts at draw i * _WINDOW_DRAWS.
_WINDOW_DRAWS = 2**64

# Smallest positive uniform the generator grid emits; smaller ones (its
# zero) are clamped to it so inverse-CDF draws stay strictly positive.
_TINY_UNIFORM = 2.0**-53

# Gamma quantile tables: cubic Hermite pieces between knots spaced evenly in
# the two-sided log score v = sign(u - 1/2) sqrt(-2 log(2 min(u, 1 - u))).
# The quantile is smooth in v on each side of v = 0 but not across it, so a
# knot sits at v = 0.  The end knots are the generator grid's ends, 2^-53
# and 1 - 2^-53, where |v| = sqrt(104 log 2) = 8.49.  4032 intervals a side
# are the fewest, in steps of 64, that keep the shape-32 error (3.9e-14)
# a tenth inside the 4.3e-14 the tests hold it to; 3968 reach 4.2e-14.
_GAMMA_TABLE_HALF = 4032
_GAMMA_TABLE_SCALE = _GAMMA_TABLE_HALF / math.sqrt(104 * math.log(2))  # intervals per unit of v
# The table's relative error is 3.1e-14 at shape 48, 5.9e-14 at 16, 9e-14
# at 8, 1.4e-11 at 4 and 3e-5 at 1.  Gamma quantiles below shape 16 come
# from scipy instead; lowering this floor would move round-robin sessions
# at n < 16, and phase two at fewer cells, onto the table and change their
# bits.
_GAMMA_TABLE_MIN_SHAPE = 16


@dataclass(frozen=True)
class StreamSpec:
    """Identity of one reproducible stream: (master_seed, stream_index), each in [0, 2^64)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = integer_at_least(name, getattr(self, name), 0)
            if value > _MAX_UINT64:
                raise ValueError(f"{name} must fit in 64 bits, got {value!r}")
            object.__setattr__(self, name, value)


def make_stream(spec: StreamSpec) -> np.random.Generator:
    """Deterministic generator for ``spec``, at the first draw of its window.

    Equal specs emit identical sequences; recreating a handle replays the
    stream from its start.
    """
    return session_stream(spec.master_seed, spec.stream_index, 0, 0)


def stream_window(base_stream_index: int, sessions: int, width: int) -> tuple[int, int]:
    """Draws ``[start, stop)`` that ``sessions`` rows of ``width`` uniforms
    occupy in the window of ``base_stream_index``.

    Raises ``ValueError`` when the rows do not fit in one window, where they
    would run into the window of ``base_stream_index + 1``.
    """
    draws = sessions * width
    if draws > _WINDOW_DRAWS:
        raise ValueError(
            f"{sessions} sessions of {width} uniforms need {draws} draws, more than "
            f"the {_WINDOW_DRAWS} of one stream window; at most "
            f"{_WINDOW_DRAWS // width} sessions fit in one run"
        )
    start = base_stream_index * _WINDOW_DRAWS
    return start, start + draws


def session_stream(
    master_seed: int, base_stream_index: int, session: int, width: int
) -> np.random.Generator:
    """Generator positioned at the row of ``session`` in a run of rows of
    ``width`` uniforms: its first ``width`` draws are that session's row.
    One ``advance`` of the 128-bit state gets there, in O(1).

    Raises ``ValueError`` for a row that ends past the window of
    ``base_stream_index``, in the next stream's draws.
    """
    spec = StreamSpec(master_seed, base_stream_index)
    session = integer_at_least("session", session, 0)
    width = integer_at_least("width", width, 0)
    if (session + 1) * width > _WINDOW_DRAWS:
        raise ValueError(
            f"session {session}'s row of {width} uniforms ends past its stream window, "
            f"which holds sessions 0 to {_WINDOW_DRAWS // width - 1}"
        )
    bit_gen = np.random.PCG64DXSM(spec.master_seed)
    bit_gen.advance(spec.stream_index * _WINDOW_DRAWS + session * width)
    return np.random.Generator(bit_gen)


def fill_stream_rows(
    master_seed: int, base_stream_index: int, first_session: int, rows: int, width: int
) -> np.ndarray:
    """Uniform rows of sessions ``first_session .. first_session + rows - 1``.

    Returns a ``(rows, width)`` array whose row ``i`` equals the first
    ``width`` draws of ``session_stream(master_seed, base_stream_index,
    first_session + i, width)``: the rows are one contiguous range of
    draws, drawn by one generator call.  Rows that end past the window of
    ``base_stream_index`` are refused as in :func:`stream_window`.
    """
    stream_window(base_stream_index, first_session + rows, width)
    gen = session_stream(master_seed, base_stream_index, first_session, width)
    return gen.random((rows, width))


def _clean_uniform(u) -> np.ndarray:
    """Fresh float64 array of ``u`` with uniforms below 2^-53, the smallest
    positive uniform of the generator grid, clamped to it (avoids -log(0));
    the transforms below then compute in it.  :func:`gamma_from_uniform`
    clamps with the same rule."""
    return np.maximum(u, _TINY_UNIFORM, out=np.empty(np.shape(u)))


def _result(out: np.ndarray, u):
    return out if np.ndim(u) else out[()]


def exp_from_uniform(u, rate: float):
    """Inverse-CDF exponential transform: -log(1 - u) / rate.  Uniforms
    below 2^-53 are clamped to it."""
    out = _clean_uniform(u)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.divide(out, -rate, out=out)
    return _result(out, u)


def max_exp_from_uniform(u, count: int, rate: float):
    """Max of ``count`` i.i.d. exponentials from a single uniform.

    Inverts the CDF (1 - e^(-rate x))**count.  Computed via
    -log(-expm1(log(u)/count)) for accuracy at large ``count``.
    ``count == 0`` yields 0 (empty max), ``count == 1`` reduces exactly to
    :func:`exp_from_uniform`.  Uniforms below 2^-53 are clamped to it.
    """
    if count == 0:
        return np.zeros_like(u) if np.ndim(u) else 0.0
    if count == 1:
        return exp_from_uniform(u, rate)
    out = _clean_uniform(u)
    np.log(out, out=out)
    np.divide(out, count, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    np.divide(out, -rate, out=out)
    return _result(out, u)


# A table is 252 KiB (4 x 8064 doubles); the cache holds at most 2 MiB of them.
# A process meets one shape per simulated (n, m) point, and a sweep-quarter
# repetition five.
@functools.lru_cache(maxsize=2**21 // (4 * 2 * _GAMMA_TABLE_HALF * 8))
def _gamma_quantile_table(shape: int) -> np.ndarray:
    """Read-only ``(4, knots - 1)`` Horner coefficients ``c0..c3`` of the
    Gamma(``shape``, 1) quantile as a cubic in the offset ``t`` in [0, 1)
    of the log score ``v`` within each knot interval.

    A knot at ``v`` stands for the uniform ``q = exp(-v^2 / 2) / 2`` when
    v <= 0 and ``1 - q`` when v > 0.  Its value is the lower quantile of
    ``q`` on the left and the upper quantile of ``q`` on the right, so
    neither tail loses digits to 1 - u.  Knot slopes are dx/dv = |v| q / f(x), over the gamma density f.
    ``log f`` is summed from terms of order 1, not from ``shape log x`` and
    ``gammaln(shape)``, which cancel to noise at shapes near 2^53.
    """
    from scipy.special import gammainccinv, gammaincinv

    a = float(shape)  # scipy refuses ints above 2^64 - 1
    v = np.arange(-_GAMMA_TABLE_HALF, _GAMMA_TABLE_HALF + 1) / _GAMMA_TABLE_SCALE
    log_q = -0.5 * v * v - math.log(2)
    lower = v <= 0
    x = np.empty_like(v)
    x[lower] = gammaincinv(a, np.exp(log_q[lower]))
    x[~lower] = gammainccinv(a, np.exp(log_q[~lower]))
    # log f(x) = (a - 1) log x - x - gammaln(a), with x = a (1 + e) and
    # Stirling's series for gammaln(a) - (a - 1/2) log a + a - log(2 pi) / 2.
    e = (x - a) / a
    stirling = 1 / (12 * a) - a**-3 / 360 + a**-5 / 1260  # underflows, never overflows
    log_f = a * (np.log1p(e) - e) - np.log(x) + 0.5 * math.log(a / (2 * math.pi)) - stirling
    slope = np.abs(v) * np.exp(log_q - log_f) / _GAMMA_TABLE_SCALE
    x0, x1, s0, s1 = x[:-1], x[1:], slope[:-1], slope[1:]
    coef = np.stack([x0, s0, 3 * (x1 - x0) - 2 * s0 - s1, 2 * (x0 - x1) + s0 + s1])
    coef.flags.writeable = False
    return coef


def gamma_from_uniform(u, shape: int):
    """Gamma(``shape``, 1) quantile of ``u`` from a cubic table.

    ``shape`` is an integer >= 16.  On the whole generator grid (u == 0
    maps to 2^-53, as in the transforms above) the result agrees with
    ``scipy.special.gammaincinv(shape, u)`` to 5.9e-14 relative at shape
    16, 4.6e-14 at 24, 3.9e-14 at 32, 3.1e-14 at 48, 1e-14 at 384, 3.1e-15
    at 4096 and 8.9e-16 at 65536, at about 1/100 of its cost; the error is
    largest next to the median.  Uniforms below 2^-53 or above 1 - 2^-53
    are clamped to the end knots.  The table is indexed with one ``log``
    and one ``sqrt`` per uniform; one table per shape is built on first use
    (about 10 ms) and kept.
    """
    shape = operator.index(shape)
    if shape < _GAMMA_TABLE_MIN_SHAPE:
        raise ValueError(
            f"gamma_from_uniform needs shape >= {_GAMMA_TABLE_MIN_SHAPE}, got {shape}"
        )
    c0, c1, c2, c3 = _gamma_quantile_table(shape)
    # t = v * scale + half, the position of v in knot intervals; min(u, 1 - u)
    # is exact.
    t = np.empty(np.shape(u))
    np.subtract(1.0, u, out=t)
    np.minimum(t, u, out=t)
    np.maximum(t, _TINY_UNIFORM, out=t)
    t *= 2.0
    np.log(t, out=t)
    t *= -2.0 * _GAMMA_TABLE_SCALE**2
    np.sqrt(t, out=t)
    np.copysign(t, np.subtract(u, 0.5), out=t)
    t += _GAMMA_TABLE_HALF
    i = t.astype(np.intp)
    np.minimum(i, 2 * _GAMMA_TABLE_HALF - 1, out=i)
    t -= i
    out = c3[i]
    for c in (c2, c1, c0):
        out *= t
        out += c[i]
    return _result(out, u)
