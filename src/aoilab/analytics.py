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

# Up to this many terms the sums are taken with ``math.fsum``; above it the
# expansions' first omitted terms, 1/(252 n^6) and 1/(42 n^7), are below
# 2e-16 relative.
_FSUM_CAP = 128


def harmonic(n: int) -> float:
    """H_n = sum_{j=1}^{n} 1/j, with harmonic(0) = 0.

    ``math.fsum`` of the terms up to ``n = 128``; the asymptotic expansion
    log n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4) above it.  Within
    1e-15 relative of the exact sum either way.
    """
    n = integer_at_least("n", n, 0)
    if n == 0:
        return 0.0
    if n <= _FSUM_CAP:
        return math.fsum(1.0 / j for j in range(1, n + 1))
    inv = 1.0 / node_count_float(n)
    inv2 = inv * inv
    return math.log(n) + EULER_GAMMA + 0.5 * inv - inv2 / 12.0 + inv2 * inv2 / 120.0


def gen_harmonic(n: int) -> float:
    """G_n = sum_{j=1}^{n} 1/j^2, with gen_harmonic(0) = 0.

    ``math.fsum`` of the terms up to ``n = 128``.  Converges to pi^2/6;
    above 128 the tail is expanded as 1/n - 1/(2n^2) + 1/(6n^3) - 1/(30n^5).
    """
    n = integer_at_least("n", n, 0)
    if n == 0:
        return 0.0
    if n <= _FSUM_CAP:
        return math.fsum(1.0 / (j * j) for j in range(1, n + 1))
    inv = 1.0 / node_count_float(n)
    inv2 = inv * inv
    tail = inv - 0.5 * inv2 + inv2 * inv / 6.0 - inv2 * inv2 * inv / 30.0
    return PI_SQ_OVER_6 - tail


@dataclass(frozen=True)
class OrderStatMoments:
    """First two moments of one exponential order statistic."""

    mean: float
    variance: float
    second_moment: float


def order_stat_moments(k: int, n: int, rate: float) -> OrderStatMoments:
    """Moments of the k-th smallest of n i.i.d. exponentials with ``rate``.

    mean = (H_n - H_{n-k}) / rate, variance = (G_n - G_{n-k}) / rate^2.
    Both differences are taken without cancellation: ``math.fsum`` of their
    k terms up to k = 128, and above it the expansions of :func:`harmonic`
    and :func:`gen_harmonic` differenced term by term (see
    :func:`_sum_differences`), within 1.1e-14 relative of the exact sums.
    Where n - k <= 128 < k the sums are subtracted as they are; n >= 2 (n - k)
    there bounds the loss, measured at 6e-14 relative.
    """
    k = integer_at_least("k", k, 1)
    n = integer_at_least("n", n, k, " (= k)")
    rate = finite_positive("rate", rate)
    node_count_float(n)
    if k <= _FSUM_CAP:
        terms = range(n - k + 1, n + 1)
        h, g = math.fsum(1 / j for j in terms), math.fsum(1 / (j * j) for j in terms)
    elif n - k <= _FSUM_CAP:
        h, g = harmonic(n) - harmonic(n - k), gen_harmonic(n) - gen_harmonic(n - k)
    else:
        h, g = _sum_differences(k, n)
    mean = h / rate
    variance = g / (rate * rate)
    return OrderStatMoments(mean=mean, variance=variance, second_moment=variance + mean * mean)


def _sum_differences(k: int, n: int) -> tuple[float, float]:
    """``(H_n - H_{n-k}, G_n - G_{n-k})`` for n - k > 128 from the
    expansions of :func:`harmonic` and :func:`gen_harmonic`.

    With ``a = 1/n`` and ``b = 1/(n - k)``, every difference of powers
    ``b^p - a^p`` is ``d`` times a sum of positive terms, where
    ``d = b - a = (k/n) b`` is computed without subtracting; the log terms
    differ by ``-log1p(-k/n)``.
    """
    r = k / n  # correctly rounded, whatever the size of the integers
    a, b = 1 / n, 1 / (n - k)
    d = r * b
    s1, s2 = a + b, a * a + b * b
    h = -math.log1p(-r) - d / 2 + d * s1 / 12 - d * s1 * s2 / 120
    g = d * (1 - s1 / 2 + (s2 + a * b) / 6 - (s2 * s2 + a * b * (s2 - a * b)) / 30)
    return h, g


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
    n, m, cells = params.n, params.m, params.cells
    return _phase_moments(
        n, m, params.lambda_intra, params.lambda_inter,
        harmonic(n), harmonic(m), harmonic(cells),
        gen_harmonic(n), gen_harmonic(m), gen_harmonic(cells),
    )


def _phase_moments(n, m, lam, lam_t, h_n, h_m, h_c, g_n, g_m, g_c) -> PhaseMoments:
    """The algebra of :func:`phase_moments` in ``n``, ``m`` (not necessarily
    an integer), the rates and the sums H_n, H_m, H_{n/m}, G_n, G_m, G_{n/m}.

    Raises ValueError naming both rates when a moment leaves the float64 range.
    """
    try:
        e_y1 = m / lam * h_n
        e_y2 = n / (m**3 * lam_t) * h_m
        e_y3 = m / lam * h_c

        e_y1_sq = m**2 / lam**2 * h_n**2 + m / lam**2 * g_n
        e_y2_sq = n**2 / (m**6 * lam_t**2) * h_m**2 + n / (m**5 * lam_t**2) * g_m
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
