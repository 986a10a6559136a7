"""Closed-form quantities of the cooperative update scheme.

Everything here is a pure function of its inputs: harmonic-type sums,
moments of exponential order statistics, per-phase moments of the
(worsened) three-phase scheme, and the resulting average-age expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import (
    SchemeParams, cell_exponent, finite_positive, integer_at_least, node_count_float,
)

EULER_GAMMA = 0.5772156649015329
PI_SQ_OVER_6 = math.pi * math.pi / 6.0

# Sums of up to this many terms are taken with ``math.fsum``; longer ones are
# split at or above it, where the expansions' first omitted terms,
# 1/(252 x^6) and 1/(42 x^7), are below 2e-17.
_FSUM_CAP = 256


def _harmonic_sums(lo: int, hi: int) -> tuple[float, float]:
    """``(H_hi - H_lo, G_hi - G_lo)`` for integers 0 <= lo <= hi, where
    H_x = sum_{j<=x} 1/j and G_x = sum_{j<=x} 1/j^2: the one path by which
    every harmonic-type sum in this module is formed.

    Up to 256 terms: ``math.fsum`` of them.  Beyond that: fsum of the terms
    up to ``s = max(lo, 256)``, plus the expansions
    H_x ~ log x + gamma + 1/(2x) - 1/(12 x^2) + 1/(120 x^4) and
    G_x ~ pi^2/6 - 1/x + 1/(2x^2) - 1/(6x^3) + 1/(30x^5) differenced term by
    term from s to hi.  With ``a = 1/hi`` and ``b = 1/s``, every ``b^p - a^p``
    is ``d`` times a sum of positive terms, where ``d = b - a = r a`` with
    ``r = (hi - s)/s`` is computed without subtracting, and the log terms
    differ by ``log1p(r)``, accurate at any ratio.  Nothing cancels: both
    differences were measured within 6e-16 relative of fsum of all their
    terms (every hi - lo > 128 at hi = 130..699, and lo <= 300 or
    hi - lo < 400 at hi = 10^4, 10^5, 10^6).
    """
    split = hi if hi - lo <= _FSUM_CAP else max(lo, _FSUM_CAP)
    terms = range(lo + 1, split + 1)
    h, g = math.fsum(1 / j for j in terms), math.fsum(1 / (j * j) for j in terms)
    if split < hi:
        r = (hi - split) / split  # correctly rounded, whatever the size of the integers
        a, b = 1 / hi, 1 / split
        d = r * a
        s1, s2 = a + b, a * a + b * b
        h += math.log1p(r) - d / 2 + d * s1 / 12 - d * s1 * s2 / 120
        g += d * (1 - s1 / 2 + (s2 + a * b) / 6 - (s2 * s2 + a * b * (s2 - a * b)) / 30)
    return h, g


def harmonic(n: int) -> float:
    """H_n = sum_{j=1}^{n} 1/j, with harmonic(0) = 0.

    :func:`_harmonic_sums` ``(0, n)``: ``math.fsum`` of the terms up to
    n = 256, and H_256 plus the differenced expansion above it.  Within
    2.5e-16 relative of the exact rational sum at every n up to 4000.
    """
    n = integer_at_least("n", n, 0)
    node_count_float(n)
    return _harmonic_sums(0, n)[0]


def gen_harmonic(n: int) -> float:
    """G_n = sum_{j=1}^{n} 1/j^2, with gen_harmonic(0) = 0.

    :func:`_harmonic_sums` ``(0, n)``: ``math.fsum`` of the terms up to
    n = 256, and G_256 plus the differenced expansion above it.  Within
    1e-16 relative of the exact rational sum at every n up to 4000.
    """
    n = integer_at_least("n", n, 0)
    node_count_float(n)
    return _harmonic_sums(0, n)[1]


@dataclass(frozen=True)
class OrderStatMoments:
    """First two moments of one exponential order statistic."""

    mean: float
    variance: float
    second_moment: float


def order_stat_moments(k: int, n: int, rate: float) -> OrderStatMoments:
    """Moments of the k-th smallest of n i.i.d. exponentials with ``rate``.

    mean = (H_n - H_{n-k}) / rate, variance = (G_n - G_{n-k}) / rate^2.
    Both differences come from :func:`_harmonic_sums` ``(n - k, n)``:
    ``math.fsum`` of their k terms up to k = 256, and above it fsum up to
    ``max(n - k, 256)`` plus the expansions differenced term by term, so
    nothing cancels; within 6e-16 relative of the exact sums as measured.
    At k = n they are :func:`harmonic` and :func:`gen_harmonic` exactly.
    """
    k = integer_at_least("k", k, 1)
    n = integer_at_least("n", n, k, " (= k)")
    rate = finite_positive("rate", rate)
    node_count_float(n)
    h, g = _harmonic_sums(n - k, n)
    mean = h / rate
    variance = g / (rate * rate)
    return OrderStatMoments(mean=mean, variance=variance, second_moment=variance + mean * mean)


@dataclass(frozen=True)
class PhaseMoments:
    """Per-phase moments of the worsened scheme.

    ``e_y1 .. e_y3`` are the mean phase durations, ``e_y*_sq`` their second
    moments, ``e_z`` the mean residual delivery wait inside phase three.
    ``e_y`` and ``e_y_sq`` aggregate the full session (phases independent).
    """

    e_y1: float
    e_y2: float
    e_y3: float
    e_y1_sq: float
    e_y2_sq: float
    e_y3_sq: float
    e_z: float
    e_y: float
    e_y_sq: float


def phase_moments(params: SchemeParams) -> PhaseMoments:
    """Exact moments of the three (worsened) phases and the delivery wait.

    Phase one: m rounds, each the max of n rate-``lambda_intra`` draws.
    Phase two: n/m cells in sequence, each the max of m draws that are
    themselves exponential with rate m^2 * ``lambda_inter``.
    Phase three: m rounds, each the max of n/m rate-``lambda_intra`` draws.
    The delivery wait z is a uniform number of full phase-three rounds plus
    one fresh in-cell delay.
    """
    (h_n, g_n), (h_m, g_m), (h_c, g_c) = (
        _harmonic_sums(0, x) for x in (params.n, params.m, params.cells)
    )
    return _phase_moments(
        params.n, params.m, params.lambda_intra, params.lambda_inter,
        h_n, h_m, h_c, g_n, g_m, g_c,
    )


def _phase_moments(n, m, lam, lam_t, h_n, h_m, h_c, g_n, g_m, g_c) -> PhaseMoments:
    """The algebra of :func:`phase_moments` in ``n``, ``m`` (not necessarily
    an integer), the rates and the sums H_n, H_m, H_{n/m}, G_n, G_m, G_{n/m}.

    Raises ValueError naming both rates when a moment leaves the float64 range.
    """
    try:
        q = n / m**3  # phase two's scale, formed once: no m^5 or m^6 to overflow
        e_y1 = m / lam * h_n
        e_y2 = q / lam_t * h_m
        e_y3 = m / lam * h_c

        e_y1_sq = m**2 / lam**2 * h_n**2 + m / lam**2 * g_n
        e_y2_sq = q**2 / lam_t**2 * h_m**2 + q / (m**2 * lam_t**2) * g_m
        e_y3_sq = m**2 / lam**2 * h_c**2 + m / lam**2 * g_c

        e_z = (m - 1) / (2.0 * lam) * h_c + 1.0 / lam

        e_y = e_y1 + e_y2 + e_y3
        e_y_sq = (
            e_y1_sq
            + e_y2_sq
            + e_y3_sq
            + 2.0 * (e_y1 * e_y2 + e_y1 * e_y3 + e_y2 * e_y3)
        )
        pm = PhaseMoments(e_y1, e_y2, e_y3, e_y1_sq, e_y2_sq, e_y3_sq, e_z, e_y, e_y_sq)
    except (ZeroDivisionError, OverflowError):  # a rate squared under- or overflowed
        pm = None
    if pm is None or not all(map(math.isfinite, vars(pm).values())):
        raise ValueError(
            f"the closed form at lambda_intra={lam}, lambda_inter={lam_t} "
            f"leaves the float64 range"
        )
    return pm


@dataclass(frozen=True)
class AgeBreakdown:
    """Average age split into its delay and renewal contributions.

    ``per_term`` lists the seven additive terms of the closed form in
    order: the three delay terms (phase-one mean, phase-two mean, delivery
    wait) followed by the four renewal terms (one per phase second moment
    plus the cross term).
    """

    total: float
    delay_part: float
    renewal_part: float
    per_term: tuple[tuple[str, float], ...]


def closed_form_age(params: SchemeParams) -> AgeBreakdown:
    """Exact average age of one source-destination pair.

    total = E[Y_1] + E[Y_2] + E[Z] + E[Y^2] / (2 E[Y]) with the phase
    moments of :func:`phase_moments`.
    """
    return _age_breakdown(phase_moments(params))


def _age_breakdown(pm: PhaseMoments) -> AgeBreakdown:
    half_denom = 2.0 * pm.e_y
    cross = 2.0 * (pm.e_y1 * pm.e_y2 + pm.e_y1 * pm.e_y3 + pm.e_y2 * pm.e_y3)
    terms = (
        ("mean_phase1", pm.e_y1),
        ("mean_phase2", pm.e_y2),
        ("mean_delivery_wait", pm.e_z),
        ("renewal_phase1_sq", pm.e_y1_sq / half_denom),
        ("renewal_phase2_sq", pm.e_y2_sq / half_denom),
        ("renewal_phase3_sq", pm.e_y3_sq / half_denom),
        ("renewal_cross", cross / half_denom),
    )
    delay = pm.e_y1 + pm.e_y2 + pm.e_z
    renewal = pm.e_y_sq / half_denom
    return AgeBreakdown(
        total=delay + renewal,
        delay_part=delay,
        renewal_part=renewal,
        per_term=terms,
    )


def round_robin_age(n: int, rate: float) -> float:
    """Exact average age of one pair under turn-taking: ``(n + 1) / rate``.

    A session is n slots, one pair served per slot, each slot exponential
    with ``rate`` = lambda, so the session length Y is Gamma(n, lambda):
    E[Y] = n/lambda and E[Y^2] = Var Y + E[Y]^2 = n(n+1)/lambda^2.  The
    tagged pair holds a uniform slot j in 1..n and is delivered at its end,
    so D is the sum of j slot lengths and E[D] = E[j]/lambda = (n+1)/(2 lambda).
    The age E[D] + E[Y^2] / (2 E[Y]) is then (n+1)/(2 lambda) twice over.

    Raises ValueError when the age leaves the float64 range.
    """
    n = integer_at_least("n", n, 1)
    rate = finite_positive("rate", rate)
    node_count_float(n)
    age = (n + 1) / rate  # n + 1 rounded once, on the Python int
    if not math.isfinite(age):
        raise ValueError(f"the closed form at rate={rate} leaves the float64 range")
    return age


def asymptotic_age(
    n: int, b: float, lambda_intra: float = 1.0, lambda_inter: float = 1.0
) -> float:
    """Large-n approximation of the average age with m = n**b kept symbolic.

    Substitutions: H_n -> log n, H_m -> b log n, H_{n/m} -> (1-b) log n,
    and every G -> pi^2/6.  ``m`` is not rounded to an integer, so this is
    an asymptotic report rather than an oracle for finite-n simulation.
    """
    n = integer_at_least("n", n, 2)
    b = cell_exponent(b)
    lambda_intra = finite_positive("lambda_intra", lambda_intra)
    lambda_inter = finite_positive("lambda_inter", lambda_inter)
    log_n = math.log(n)
    z = PI_SQ_OVER_6
    pm = _phase_moments(
        n, node_count_float(n) ** b, lambda_intra, lambda_inter,
        log_n, b * log_n, (1.0 - b) * log_n, z, z, z,
    )
    return _age_breakdown(pm).total


def scaling_exponent(b: float) -> float:
    """Predicted polynomial growth exponent of the age in n for cell
    exponent ``b``: the dominant of the competing terms, max(b, 1 - 3b).

    Minimized at b = 1/4 with value 1/4.
    """
    b = cell_exponent(b)
    return max(b, 1.0 - 3.0 * b)
