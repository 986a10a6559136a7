"""Reproducible random-variate generation.

Streams are counter-based: stream ``i`` of a given master seed is a Philox
generator whose 256-bit counter starts at block ``i * BLOCK_TICKS``.
Distinct stream indices therefore draw from disjoint counter ranges of the
same keyed cipher, which is the standard way to get statistically
independent, order-independent parallel streams.

A simulation run owns the block of its ``base_stream_index`` and lays its
sessions out back to back in it: session ``s`` of rows of ``width``
uniforms starts ``s * ceil(width / 4)`` ticks into the block (one tick
holds four uniforms).  A batch of sessions is then one contiguous counter
range, filled by a single generator call, and any session can still be
replayed in O(1) with :func:`session_stream`.

All exponential-family draws go through the inverse CDF so that a draw is
a fixed, deterministic function of one uniform.  That keeps replay exact,
lets order statistics of arbitrarily many variables be drawn in O(1), and
makes draws at different rates exact scalings of each other.
Gamma quantiles of large integer shape come from a per-shape cubic table
in the normal score of the uniform (:func:`gamma_from_uniform`).  The
table's scipy.special calls are made on first use, not on import, so code
that draws no gamma quantile never loads scipy.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

_MAX_UINT64 = 2**64 - 1

# Counter ticks reserved per stream (one tick = 4 uniform doubles).  A
# stream would have to draw ~2.7e11 uniforms before touching its neighbor.
BLOCK_TICKS = 2**36

# Smallest uniform the generator grid can emit; zeros are remapped to it so
# inverse-CDF draws stay strictly positive.
_TINY_UNIFORM = 2.0**-53

# Gamma quantile tables: cubic Hermite pieces between knots spaced evenly in
# the normal score z = ndtri(u).  Every generator uniform in
# [2^-53, 1 - 2^-53] has |z| < 8.2, inside the knot range.
_GAMMA_TABLE_KNOTS = 1025
_GAMMA_TABLE_Z = 8.5
_GAMMA_TABLE_STEP = 2 * _GAMMA_TABLE_Z / (_GAMMA_TABLE_KNOTS - 1)
# Below this shape the quantile bends too far from a cubic in z: the
# table's relative error is 1.9e-14 at shape 48, 2.4e-12 at 16, 9e-11 at 8
# and 9e-7 at 1.
_GAMMA_TABLE_MIN_SHAPE = 16


@dataclass(frozen=True)
class StreamSpec:
    """Identity of one reproducible stream: (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MAX_UINT64:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed!r}")
        if not 0 <= self.stream_index <= _MAX_UINT64:
            raise ValueError(f"stream_index must fit in 64 bits, got {self.stream_index!r}")


def make_stream(spec: StreamSpec) -> np.random.Generator:
    """Deterministic generator for ``spec``.

    Equal specs emit identical sequences; recreating a handle replays the
    stream from its start.
    """
    bit_gen = np.random.Philox(key=spec.master_seed)
    bit_gen.advance(spec.stream_index * BLOCK_TICKS)
    return np.random.Generator(bit_gen)


def row_ticks(width: int) -> int:
    """Counter ticks one session row of ``width`` uniforms occupies."""
    return -(-width // 4)


def stream_window(base_stream_index: int, sessions: int, width: int) -> tuple[int, int]:
    """Counter ticks ``[start, stop)`` that ``sessions`` rows of ``width``
    uniforms occupy in the block of ``base_stream_index``.

    Raises ``ValueError`` when the rows do not fit in one block, where they
    would run into the window of ``base_stream_index + 1``.
    """
    ticks = sessions * row_ticks(width)
    if ticks > BLOCK_TICKS:
        raise ValueError(
            f"{sessions} sessions of {width} uniforms need {ticks} counter ticks, "
            f"more than the {BLOCK_TICKS} of one stream block; at most "
            f"{BLOCK_TICKS // row_ticks(width)} sessions fit in one run"
        )
    start = base_stream_index * BLOCK_TICKS
    return start, start + ticks


def session_stream(
    master_seed: int, base_stream_index: int, session: int, width: int
) -> np.random.Generator:
    """Generator positioned at the row of ``session`` in a run of rows of
    ``width`` uniforms: its first ``width`` draws are that session's row."""
    gen = make_stream(StreamSpec(master_seed, base_stream_index))
    gen.bit_generator.advance(session * row_ticks(width))
    return gen


def fill_stream_rows(
    master_seed: int, base_stream_index: int, first_session: int, rows: int, width: int
) -> np.ndarray:
    """Uniform rows of sessions ``first_session .. first_session + rows - 1``.

    Returns a ``(rows, width)`` view whose row ``i`` equals the first
    ``width`` draws of ``session_stream(master_seed, base_stream_index,
    first_session + i, width)``.  Rows are padded to whole ticks, so the
    batch is one contiguous counter range drawn by one generator call.
    """
    gen = session_stream(master_seed, base_stream_index, first_session, width)
    buf = np.empty((rows, 4 * row_ticks(width)))
    gen.random(out=buf)
    return buf[:, :width]


def _clean_uniform(u) -> np.ndarray:
    """Fresh array of ``u`` with u == 0 remapped to the smallest positive
    uniform (avoids -log(0)); the transforms below then compute in it."""
    return np.where(u == 0.0, _TINY_UNIFORM, u)


def _result(out: np.ndarray, u):
    return out if np.ndim(u) else out[()]


def exp_from_uniform(u, rate: float):
    """Inverse-CDF exponential transform: -log(1 - u) / rate."""
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
    :func:`exp_from_uniform`.
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


# A table is 32 KB; a process meets one shape per simulated (n, m) point.
@functools.lru_cache(maxsize=64)
def _gamma_quantile_table(shape: int) -> np.ndarray:
    """Read-only ``(4, knots - 1)`` Horner coefficients ``c0..c3`` of the
    Gamma(``shape``, 1) quantile as a cubic in the offset ``t`` in [0, 1)
    of ``z`` within each knot interval.

    Knot values come from the lower quantile for z <= 0 and the upper one
    for z > 0, so neither tail loses digits to 1 - u.  Knot slopes are
    dx/dz = phi(z) / f(x), the normal density over the gamma density.
    """
    from scipy.special import gammainccinv, gammaincinv, gammaln, ndtr, xlogy

    z = np.linspace(-_GAMMA_TABLE_Z, _GAMMA_TABLE_Z, _GAMMA_TABLE_KNOTS)
    lower = z <= 0
    x = np.empty_like(z)
    x[lower] = gammaincinv(shape, ndtr(z[lower]))
    x[~lower] = gammainccinv(shape, ndtr(-z[~lower]))
    log_phi = -0.5 * z * z - 0.5 * math.log(2 * math.pi)
    log_f = xlogy(shape - 1, x) - x - gammaln(shape)
    slope = _GAMMA_TABLE_STEP * np.exp(log_phi - log_f)
    x0, x1, s0, s1 = x[:-1], x[1:], slope[:-1], slope[1:]
    coef = np.stack([x0, s0, 3 * (x1 - x0) - 2 * s0 - s1, 2 * (x0 - x1) + s0 + s1])
    coef.flags.writeable = False
    return coef


def gamma_from_uniform(u, shape: int):
    """Gamma(``shape``, 1) quantile of ``u`` from a cubic table.

    ``shape`` is an integer >= 16.  On the whole generator grid (u == 0
    maps to 2^-53, as in the transforms above) the result agrees with
    ``scipy.special.gammaincinv(shape, u)`` to 2.4e-12 relative at shape
    16, 2e-13 at 24, 4.3e-14 at 32, 2e-14 at 48 and 3e-15 from 384 to
    65536, at about 1/20 of its cost.  Uniforms within about 1e-17 of
    either end lie beyond the table and are clamped to its end knots.
    One table per shape is built on first use (a few ms) and kept.
    """
    shape = operator.index(shape)
    if shape < _GAMMA_TABLE_MIN_SHAPE:
        raise ValueError(
            f"gamma_from_uniform needs shape >= {_GAMMA_TABLE_MIN_SHAPE}, got {shape}"
        )
    from scipy.special import ndtri

    c0, c1, c2, c3 = _gamma_quantile_table(shape)
    t = _clean_uniform(u)
    ndtri(t, out=t)
    np.clip(t, -_GAMMA_TABLE_Z, _GAMMA_TABLE_Z, out=t)
    t += _GAMMA_TABLE_Z
    t /= _GAMMA_TABLE_STEP
    i = t.astype(np.intp)
    np.minimum(i, _GAMMA_TABLE_KNOTS - 2, out=i)
    t -= i
    out = c3[i]
    for c in (c2, c1, c0):
        out *= t
        out += c[i]
    return _result(out, u)

