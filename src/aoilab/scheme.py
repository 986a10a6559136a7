"""Stochastic simulation of the three-phase cooperative update scheme.

Two variants are sampled:

* ``worsened`` - phases one and three are round-synchronized across cells
  (every cell waits for the slowest cell each round), which is the variant
  the closed forms in :mod:`aoilab.analytics` describe exactly.
* ``exact`` - cells run phases one and three independently and only the
  slowest cell's total matters; stochastically faster than ``worsened``.

The tagged pair's update is delivered inside phase three, by a relay in a
uniform round.  Two models differ only in the tagged round's value: under
``independent`` the relay is drawn apart from it, so delivery may fall
after the session ends; under ``coupled`` the round is the max of the relay
and the other cells', so it never does.  Both give ``D`` and ``Y`` the
marginals of the closed form.

:func:`sample_coupled_sessions` draws (exact, worsened) pairs from one
row each: an exact row followed by one uniform per phase-one round, so the
worsened variant's bound on the exact one is checked session by session
on the rows the exact kernel draws.

Sessions are i.i.d.; session ``s`` of a run draws the ``s``-th row of
the run's window of draws (see :mod:`aoilab.sampling`), so results are
independent of worker count and any session replays through
:func:`aoilab.sampling.session_stream`.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .params import SchemeParams, finite_positive, integer_at_least, node_count_float
from .sampling import (
    _GAMMA_TABLE_MIN_SHAPE,
    _TINY_UNIFORM,
    StreamSpec,
    exp_from_uniform,
    fill_stream_rows,
    gamma_from_uniform,
    max_exp_from_uniform,
    stream_window,
)


class Variant(str, Enum):
    EXACT = "exact"
    WORSENED = "worsened"


class DeliveryMode(str, Enum):
    INDEPENDENT = "independent"
    COUPLED = "coupled"


class MomentSummary(NamedTuple):
    """One batch's sums, all that both age estimators read: Y, Y^2, D and
    ``sum_prev_y_d``, the sum of ``y_{j-1} d_j``, over its sessions ``j``.
    The run's first session follows its last, whose ``y`` pairs with the
    run's first ``d`` in batch 0 (the wrap).  When every session delivers
    within itself (d <= y), ``y_{j-1} d_j + y_j^2 / 2`` is exactly the
    sawtooth age's area over session ``j``."""

    count: int = 0
    sum_y: float = 0.0
    sum_y_sq: float = 0.0
    sum_d: float = 0.0
    sum_prev_y_d: float = 0.0


@dataclass(frozen=True)
class AgeEstimate:
    delta_hat: float
    std_err: float
    sessions: int


@dataclass
class SimulationRun:
    """Per-batch sums of a run's simulated sessions; no per-session column.

    ``batch_summaries[i]`` covers sessions ``[b[i], b[i+1])`` with
    ``b = _batch_bounds(sessions)``: at most 32 consecutive batches whose
    sizes differ by at most 1, each of at least 32 sessions unless the run
    is a single batch.  ``late_deliveries`` counts the sessions with
    ``d > y``.
    """

    master_seed: int
    base_stream_index: int
    sessions: int
    batch_summaries: list[MomentSummary] = field(repr=False)
    late_deliveries: int

    @property
    def batch_size(self) -> int:
        """Sessions in the largest batch."""
        return max(s.count for s in self.batch_summaries)


# ---------------------------------------------------------------------------
# Draw layouts and vectorized kernels.  Each session consumes a fixed-width
# row of uniforms, so a kernel given the first ``width`` draws of a
# session's stream as a one-row input reproduces its batch row exactly.
# ---------------------------------------------------------------------------


# Phase two draws m gamma quantiles instead of one uniform per cell once the
# cells number at least this many times m, and at least the table's shape
# floor.  Whole worsened sessions, us each, per-cell / gamma path (16384
# sessions, best of 15 alternating runs, 1 worker, 2-vCPU x86-64 VM):
#
#     m     cells = 2m     cells = 4m
#     1     below 16       below 16   (16 cells: 0.47 / 0.23)
#     4     below 16       0.64 / 0.54
#     8     0.88 / 0.87    1.12 / 0.96
#     16    2.02 / 2.26    1.81 / 1.51
#     32    3.10 / 3.29    3.45 / 2.78
#
# The gamma path wins from 4m cells on; at 2m it loses for m >= 16.
_GAMMA_PHASE_TWO_RATIO = 4


def _phase_two_width(params: SchemeParams) -> int:
    """Uniforms phase two draws: ``m`` when ``cells >= max(4 m, 16)``, else
    ``cells``."""
    m, cells = params.m, params.cells
    return m if cells >= max(_GAMMA_PHASE_TWO_RATIO * m, _GAMMA_TABLE_MIN_SHAPE) else cells


def _phase_two(u2: np.ndarray, params: SchemeParams) -> np.ndarray:
    """Phase-two duration from the last axis of ``u2``.

    Phase two sums, over the cells, the max of m exponentials at rate
    r = m^2 lambda_inter.  A ``cells``-wide input draws each cell's max
    from one uniform.  An ``m``-wide input uses Renyi's representation
    max_i E_i = sum_k E'_k / k: summed over the cells it gives
    (1/r) sum_k G_k / k with G_k i.i.d. Gamma(cells), each G_k the gamma
    quantile of one uniform (:func:`aoilab.sampling.gamma_from_uniform`).
    Both inputs give the same law.
    """
    m, cells = params.m, params.cells
    rate = m * m * params.lambda_inter
    if u2.shape[-1] == cells:
        return max_exp_from_uniform(u2, m, rate).sum(axis=-1)
    g = gamma_from_uniform(u2, cells)
    g /= np.arange(1, m + 1)
    return g.sum(axis=-1) / rate


def _columns(y1, y2, y3, z) -> dict:
    """A session's phases with its delivery delay ``d = y1 + y2 + z`` and
    length ``y = y1 + y2 + y3``."""
    return {"y1": y1, "y2": y2, "y3": y3, "z": z, "d": y1 + y2 + z, "y": y1 + y2 + y3}


def _worsened_width(params: SchemeParams) -> int:
    return 2 * params.m + _phase_two_width(params) + 3


def _phase_three(rounds: np.ndarray, j: np.ndarray, own: np.ndarray) -> tuple:
    """Phase three's length ``y3`` and delivery wait ``z`` from one running
    sum over its ``(sessions, m)`` round values: ``y3`` is the whole sum and
    ``z`` the sum before round ``j`` plus the tagged relay ``own``.  When
    ``own`` is at most round ``j``'s value, ``z`` is the running sum through
    round ``j`` with ``own`` in its place; rounding is monotone and every
    round is non-negative, so ``z <= y3`` holds exactly in floating point."""
    csum = np.cumsum(rounds, axis=1)
    prev = np.take_along_axis(csum, np.maximum(j - 1, 0)[:, None], axis=1)[:, 0]
    return csum[:, -1], np.where(j > 0, prev, 0.0) + own


def _worsened_kernel(u: np.ndarray, params: SchemeParams, mode: DeliveryMode) -> dict:
    n, m, cells = params.n, params.m, params.cells
    lam = params.lambda_intra
    w2 = _phase_two_width(params)

    y1 = max_exp_from_uniform(u[:, :m], n, lam).sum(axis=1)
    y2 = _phase_two(u[:, m : m + w2], params)
    rounds = max_exp_from_uniform(u[:, m + w2 : m + w2 + m], cells, lam)  # (sessions, m)
    j = np.minimum((u[:, -3] * m).astype(np.int64), m - 1)
    own = exp_from_uniform(u[:, -2], lam)
    # The two delivery models differ only here.  Coupled: the tagged relay
    # is one of round j's, which is the max of it and the other cells'
    # max.  Independent rows draw that max and never read it.
    if mode == DeliveryMode.COUPLED:
        rounds[np.arange(j.size), j] = np.maximum(own, max_exp_from_uniform(u[:, -1], cells - 1, lam))
    return _columns(y1, y2, *_phase_three(rounds, j, own))


def _exact_width(params: SchemeParams) -> int:
    p1 = 0 if params.m == 1 else params.n
    return p1 + _phase_two_width(params) + params.n + 1


def _exact_draws(u: np.ndarray, params: SchemeParams) -> tuple:
    """The transforms of an exact row: each cell's phase-one round maxima
    (``(sessions, cells, m)``, rounds last; ``None`` at m = 1, where phase
    one is empty), phase two, each cell's phase-three relays (``(sessions,
    cells, m)``, rounds last) and the tagged round ``j``.  Round ``r`` of a
    cell's phase one is the max of the ``m - 1`` draws of its broadcast to
    the cell's other nodes.  Only the row's first ``_exact_width`` uniforms
    are read."""
    n, m, cells = params.n, params.m, params.cells
    lam = params.lambda_intra
    w2 = _phase_two_width(params)
    sessions = u.shape[0]

    p1 = 0 if m == 1 else n
    rounds1 = None if m == 1 else max_exp_from_uniform(
        u[:, :n].reshape(sessions, cells, m), m - 1, lam
    )
    y2 = _phase_two(u[:, p1 : p1 + w2], params)
    relays = exp_from_uniform(
        u[:, p1 + w2 : p1 + w2 + n].reshape(sessions, cells, m), lam
    )
    j = np.minimum((u[:, p1 + w2 + n] * m).astype(np.int64), m - 1)
    return rounds1, y2, relays, j


def _exact_columns(rounds1, y2, relays, j) -> dict:
    """Columns of the exact scheme from the draws of :func:`_exact_draws`."""
    y1 = np.zeros(y2.shape) if rounds1 is None else rounds1.sum(axis=2).max(axis=1)
    # Per-cell totals come from the same running sums as z below, so
    # z <= y3 holds exactly in floating point.
    run_sums = np.cumsum(relays, axis=2)
    y3 = run_sums[:, :, -1].max(axis=1)
    # Tagged destination sits in cell 0 (cells are exchangeable); its packet
    # is relayed at a uniform position, so z sums that cell's first j+1 hops.
    z = np.take_along_axis(run_sums[:, 0, :], j[:, None], axis=1)[:, 0]
    return _columns(y1, y2, y3, z)


def _exact_kernel(u: np.ndarray, params: SchemeParams) -> dict:
    return _exact_columns(*_exact_draws(u, params))


_ROUND_ROBIN_WIDTH = 3


def gammaincinv(a, y):
    """``scipy.special.gammaincinv(a, y)``, with scipy.special imported on
    the first call rather than with this module."""
    from scipy.special import gammaincinv

    return gammaincinv(a, y)


def _round_robin_kernel(u: np.ndarray, n: int, rate: float) -> dict:
    """Turn-taking baseline: one pair served per slot, session = n slots.

    The session length is ``Y ~ Gamma(n) / rate``, one quantile at the
    run's single shape ``n`` (from the table of
    :func:`aoilab.sampling.gamma_from_uniform` at ``n >= 16``).  The tagged
    pair holds a uniform slot ``j``; its delay is ``D = Y V`` with ``V = 1``
    when ``j = n`` and ``V`` uniform otherwise.  That is exact in law:
    given ``j < n``, ``D / Y ~ Beta(j, n - j)`` independently of ``Y``, and
    those densities averaged over ``j = 1 .. n-1`` are Uniform(0, 1).  As
    ``V <= 1``, ``d <= y`` holds exactly in floating point.

    ``gammaincinv``, which the small shapes call and the table's knots come
    from, was checked against an mpmath root of the regularized incomplete
    gamma only up to shape 65536.  At shape 2^20 it is off by up to 2.6e-9
    relative (u from 1.2e-7 to 1.9e-6), and so are the knots there: far
    below the Monte Carlo noise, but no tighter accuracy is claimed above
    shape 65536.  The table itself follows ``gammaincinv`` to 1e-8 up to
    n = 2^64 and beyond: its knot slopes keep their digits at any shape.
    """
    if n >= _GAMMA_TABLE_MIN_SHAPE:
        y = gamma_from_uniform(u[:, 2], n)
    else:
        y = gammaincinv(n, np.maximum(u[:, 2], _TINY_UNIFORM))
    y /= rate
    # The tagged slot is j = 1 + min(floor(n u[:, 0]), n - 1); only j = n matters.
    last = (u[:, 0] * n).astype(np.int64) >= n - 1
    d = y * np.where(last, 1.0, u[:, 1])
    return {"y": y, "d": d}


# ---------------------------------------------------------------------------
# Pathwise-coupled pair sampler.
# ---------------------------------------------------------------------------


def sample_coupled_sessions(
    params: SchemeParams,
    sessions: int,
    *,
    master_seed: int = 0,
    base_stream_index: int = 0,
) -> tuple[dict, dict]:
    """``(exact, worsened)`` columns ``y1, y2, y3, z, d, y`` of ``sessions``
    pairs, each pair drawn from one row of the run's window of draws.

    A coupled row is an exact row followed by ``m`` uniforms, one for each
    phase-one round, so ``session_stream(master_seed, base_stream_index, s,
    _exact_width(params) + m)`` replays pair ``s``, and the exact half is
    :func:`_exact_kernel` of the row's exact part.  The worsened half reads
    the same draws.  Its phase-one round is the max of the cells' round
    maxima and of one max of the ``n / m`` draws the bound adds, from the
    round's extra uniform; at m = 1 that is the whole round, a max of ``n``
    draws.  Its phase-three round is the max of the cells' relays, and the
    tagged packet arrives with its own cell's relay in round ``j``.  Phase
    two is shared.  ``exact.y1 <= worsened.y1``, ``exact.y3 <= worsened.y3``
    and ``z <= y3`` then hold on every path, in floating point too: both
    sides of each phase are sums over rounds taken in the same order.

    Every row is held at once, with a few ``(sessions, n)`` float64 arrays
    of draws (10^4 pairs at (256, 8) peak near 160 MB), so this is for
    checks of modest size, not for long runs.
    """
    m, cells = params.m, params.cells
    width = _exact_width(params) + m
    sessions = integer_at_least("sessions", sessions, 1)
    u = fill_stream_rows(master_seed, base_stream_index, 0, sessions, width)
    rounds1, y2, relays, j = draws = _exact_draws(u, params)

    # One max over the n / m added draws a round: a max over all n draws of
    # it with the cells' round maxima.  Both halves sum rounds over a
    # contiguous last axis of length m, so numpy sums them with one tree.
    rounds = max_exp_from_uniform(u[:, -m:], cells, params.lambda_intra)
    if rounds1 is not None:
        rounds = np.maximum(rounds1.max(axis=1), rounds)
    own = np.take_along_axis(relays[:, 0, :], j[:, None], axis=1)[:, 0]
    worsened = _columns(rounds.sum(axis=1), y2, *_phase_three(relays.max(axis=1), j, own))
    return _exact_columns(*draws), worsened


# ---------------------------------------------------------------------------
# Batch engine.
# ---------------------------------------------------------------------------

# Batch means: at most 32 batches, each of at least 32 items unless the run
# is a single batch; each batch's ratio estimate feeds the standard error.
_MAX_BATCHES = 32
_MIN_BATCH = 32

# Uniforms one compute chunk's rows may hold: 256 KiB of float64.
# Each thread holds one chunk, so a larger budget raises peak memory.
_CHUNK_UNIFORMS = 1 << 15

# Fewest rows a chunk holds: 1-row chunks of the widest rows cost more time
# per session than 4-row ones.
_MIN_CHUNK_ROWS = 4


def _batch_bounds(count: int) -> list[int]:
    """Boundaries ``0 = b[0] < ... < b[k] = count`` of the batch-means
    batches of ``count`` consecutive items, ``b[i] = i * count // k``:
    sizes differ by at most 1.  They depend only on ``count``, so every
    floating-point grouping built on them is the same for any worker count.
    """
    k = max(1, min(_MAX_BATCHES, count // _MIN_BATCH))
    return [i * count // k for i in range(k + 1)]


def _chunk_sums(y: np.ndarray, d: np.ndarray, cuts: Sequence[int]) -> np.ndarray:
    """Sums of ``Y``, ``Y^2``, ``D`` and ``y_{j-1} d_j`` over the pieces of
    one chunk's rows that start at ``cuts``, one row a piece: the last four
    fields of :class:`MomentSummary`.  The chunk's first row pairs with the
    previous chunk's last ``y``, so its entry here is 0.
    """
    terms = np.empty((4, y.size))
    terms[0] = y
    np.multiply(y, y, out=terms[1])
    terms[2] = d
    terms[3, 0] = 0.0
    np.multiply(y[:-1], d[1:], out=terms[3, 1:])
    return np.add.reduceat(terms, cuts, axis=1).T


def _run_batches(
    kernel: Callable[[np.ndarray], dict],
    width: int,
    sessions: int,
    master_seed: int,
    base_stream_index: int,
    workers: int,
    rates: str,
) -> SimulationRun:
    """Fill, run ``kernel`` (uniform rows -> columns) and reduce chunk by chunk.

    Compute chunks set the work: the most consecutive rows whose uniforms
    fit in ``_CHUNK_UNIFORMS``, and at least ``_MIN_CHUNK_ROWS``.
    Each fills its rows with one call, runs the kernel once and reduces its
    ``y`` and ``d`` columns at once into sums over the pieces it shares
    with the batches of :func:`_batch_bounds`; its columns are then
    dropped.  Chunks run on up to ``workers`` threads of this process (the
    fill and the kernels release the GIL), or inline on the caller's thread
    when only one would run.  The caller's thread adds the pieces, and the
    product of the previous chunk's last ``y`` and each chunk's first ``d``
    (it belongs to the batch of that ``d``), into the batch sums in chunk
    order.  After the last chunk it adds the wrap, the run's last ``y``
    times its first ``d``, to batch 0: the timeline's identity (see
    :func:`integrate_age_timeline`) lets the run's first session follow its
    last.  The chunk plan depends only on ``width`` and ``sessions``, so
    every sum is the same for any worker count; memory holds a few chunks
    per thread, whatever the session count.

    Sums that leave the float64 range, batch sums or their totals over the
    run, raise ``ValueError`` naming ``rates``, the run's rates as text,
    once every chunk is in; so does a batch whose sum of ``y^2`` is below
    the smallest normal float64.  Numpy warns of nothing on the way.
    """
    workers = integer_at_least("workers", workers, 1)
    sessions = integer_at_least("sessions", sessions, 1)
    spec = StreamSpec(master_seed, base_stream_index)  # the seed and index as ints
    master_seed, base_stream_index = spec.master_seed, spec.stream_index
    stream_window(base_stream_index, sessions, width)  # raises before any work
    rows = max(_MIN_CHUNK_ROWS, _CHUNK_UNIFORMS // width)
    chunks = range(0, sessions, rows)
    bounds = _batch_bounds(sessions)

    # Sums out of the float64 range are refused after the loop, not warned
    # about; np.errstate holds per thread, so each function sets it itself.
    def reduce_chunk(lo: int) -> tuple:
        hi = min(lo + rows, sessions)
        with np.errstate(over="ignore", invalid="ignore"):
            cols = kernel(fill_stream_rows(master_seed, base_stream_index, lo, hi - lo, width))
            y, d = cols["y"], cols["d"]
            # Pieces go to consecutive batches, from the batch of row lo on.
            first = bisect_right(bounds, lo) - 1
            cuts = [lo, *bounds[first + 1 : bisect_left(bounds, hi)]]
            sums = _chunk_sums(y, d, [c - lo for c in cuts])
            return first, sums, int(np.count_nonzero(d > y)), d[0], y[-1]

    totals = np.zeros((len(bounds) - 1, 4))
    late = 0
    run_first_d = prev_y = None  # prev_y: the previous chunk's last y

    def merge(reduced: tuple) -> None:
        nonlocal late, run_first_d, prev_y
        first, sums, chunk_late, first_d, last_y = reduced
        with np.errstate(over="ignore", invalid="ignore"):
            if prev_y is None:
                run_first_d = first_d
            else:
                totals[first, 3] += prev_y * first_d
            totals[first : first + len(sums)] += sums
        late += chunk_late
        prev_y = last_y

    threads = min(workers, len(chunks), os.cpu_count() or 1)
    if threads > 1:
        # At most two pending chunks per thread, merged in chunk order.
        with ThreadPoolExecutor(threads) as pool:
            pending = deque()
            for lo in chunks:
                pending.append(pool.submit(reduce_chunk, lo))
                if len(pending) > 2 * threads:
                    merge(pending.popleft().result())  # raises a chunk's error
            while pending:
                merge(pending.popleft().result())
    else:
        for lo in chunks:
            merge(reduce_chunk(lo))
    with np.errstate(over="ignore", invalid="ignore"):
        totals[0, 3] += prev_y * run_first_d
        # The run's totals are finite only when every batch sum is.
        finite = np.isfinite(totals.sum(axis=0)).all()
    # A batch whose y^2 underflow would lose the renewal half of the age.
    if not finite or (totals[:, 1] < np.finfo(float).tiny).any():
        raise ValueError(f"the simulated sums at {rates} leave the float64 range")
    return SimulationRun(
        master_seed=master_seed,
        base_stream_index=base_stream_index,
        sessions=sessions,
        batch_summaries=[
            MomentSummary(b - a, *map(float, sums))
            for a, b, sums in zip(bounds, bounds[1:], totals)
        ],
        late_deliveries=late,
    )


def simulate_sessions(
    params: SchemeParams,
    sessions: int,
    *,
    variant: Variant = Variant.WORSENED,
    delivery: DeliveryMode = DeliveryMode.INDEPENDENT,
    master_seed: int = 0,
    base_stream_index: int = 0,
    workers: int = 1,
) -> SimulationRun:
    """Simulate i.i.d. sessions; session ``s`` draws row ``s`` of the run's
    draws in the window of ``base_stream_index``, and
    ``session_stream(master_seed, base_stream_index, s, width)`` replays it.

    ``workers`` threads of this process split the run into compute chunks
    (one worker runs them on the caller's thread).  A chunk is the most
    consecutive rows whose uniforms fit in 256 KiB, and at least 4
    rows; each thread holds one chunk's uniforms at a time, and each chunk
    is reduced to batch sums as soon as its kernel returns, so memory does
    not grow with ``sessions``.  The sums cover up to 32 batches of
    near-equal size (see :class:`SimulationRun`), apart from the chunks.
    Batch boundaries, the chunk plan and the reduction order depend only on
    the layout and session count, so outputs are bit-identical for any
    ``workers``.
    """
    variant = Variant(variant)
    delivery = DeliveryMode(delivery)

    def kernel(u: np.ndarray) -> dict:
        if variant == Variant.WORSENED:
            return _worsened_kernel(u, params, delivery)
        return _exact_kernel(u, params)

    width = _worsened_width(params) if variant == Variant.WORSENED else _exact_width(params)
    rates = f"lambda_intra={params.lambda_intra}, lambda_inter={params.lambda_inter}"
    return _run_batches(kernel, width, sessions, master_seed, base_stream_index, workers, rates)


def simulate_round_robin(
    n: int,
    rate: float,
    sessions: int,
    *,
    master_seed: int = 0,
    base_stream_index: int = 0,
    workers: int = 1,
) -> SimulationRun:
    """Simulate the turn-taking baseline: ``n`` slots a session, one pair
    served per slot, each slot exponential with ``rate``; the tagged pair
    holds a uniform slot (see :func:`_round_robin_kernel`)."""
    n = integer_at_least("n", n, 1)
    rate = finite_positive("rate", rate)
    node_count_float(n)
    return _run_batches(
        lambda u: _round_robin_kernel(u, n, rate),
        _ROUND_ROBIN_WIDTH, sessions, master_seed, base_stream_index, workers, f"rate={rate}",
    )


# ---------------------------------------------------------------------------
# Age estimators.
# ---------------------------------------------------------------------------


def _batch_means(
    summaries: Sequence[MomentSummary], mean_d: Callable[[MomentSummary], float]
) -> AgeEstimate:
    """Renewal-reward age ``E[D] + E[Y^2] / (2 E[Y])`` of the summed fields
    of ``summaries``, with ``E[D]`` read by ``mean_d``, and the batch-means
    standard error of its per-batch values (NaN for a single batch).

    ``mean_d`` takes a :class:`MomentSummary` whose fields are floats or
    arrays over the batches.  Batch means weigh every batch alike, so they
    need batches of near-equal size, as a run's ``batch_summaries`` are.
    """
    sums = np.array(summaries, dtype=float).reshape(-1, len(MomentSummary._fields))

    def age(s: MomentSummary):
        return mean_d(s) + (s.sum_y_sq / s.count) / (2.0 * (s.sum_y / s.count))

    total = MomentSummary(*sums.sum(axis=0))
    if total.count < 2:
        raise ValueError(f"need at least 2 sessions, got {int(total.count)}")
    std_err = float("nan")
    if len(sums) >= 2:
        std_err = float(age(MomentSummary(*sums.T)).std(ddof=1) / np.sqrt(len(sums)))
    return AgeEstimate(float(age(total)), std_err, int(total.count))


def estimate_age_moment_formula(summaries: Sequence[MomentSummary]) -> AgeEstimate:
    """Renewal-reward age estimate: mean(D) + mean(Y^2) / (2 mean(Y)).

    ``summaries`` are per-batch summaries; with two or more batches the
    standard error comes from the spread of per-batch estimates (batch
    means), otherwise it is NaN.
    """
    return _batch_means(summaries, lambda s: s.sum_d / s.count)


def integrate_age_timeline(run: SimulationRun) -> AgeEstimate:
    """Time average of the sawtooth age process of ``run``'s sessions laid
    end to end, read from the sums of its batch summaries.

    Update j is generated when session j starts and delivered d_j later,
    dropping the age to d_j.  When every session delivers within itself
    (d <= y, i.e. coupled-style input), session j holds update j - 1's age
    until d_j and then update j's, so the age's area over it is exactly
    ``y_{j-1} d_j + y_j^2 / 2``.  With the run's first session following
    its last, the time average is ``(sum y_{j-1} d_j + sum y_j^2 / 2) /
    sum y_j``: the moment formula with ``E[D]`` read as ``sum_prev_y_d /
    sum_y`` in place of ``sum_d / count``.  A late delivery (d > y) would
    break the identity, so runs with any are refused.  The standard error
    is the batch means over the session batches (NaN for fewer than 64
    sessions, which make one batch).
    """
    if run.late_deliveries:
        raise ValueError(
            f"{run.late_deliveries} sessions deliver after the session ends (d > y); "
            f"timeline integration needs coupled delivery"
        )
    return _batch_means(run.batch_summaries, lambda s: s.sum_prev_y_d / s.sum_y)
