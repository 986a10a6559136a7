"""Closed-form layer: harmonic sums, order statistics, phase moments, age."""

import csv
import itertools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aoilab import (
    SchemeParams,
    asymptotic_age,
    closed_form_age,
    gen_harmonic,
    harmonic,
    order_stat_moments,
    phase_moments,
    round_robin_age,
    scaling_exponent,
)
from aoilab.analytics import EULER_GAMMA, PI_SQ_OVER_6

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_moments.csv"

# 4-standard-error tolerances printed by tests/data/generate_golden.py at
# freeze time (seed 20250810, 1e6 sessions).
GOLDEN_TOLERANCES = {
    "e_y1": 0.0102044,
    "e_y2": 0.0011951,
    "e_y3": 0.0100757,
    "e_y1_sq": 0.404175,
    "e_y2_sq": 0.00513101,
    "e_y3_sq": 0.290245,
    "e_z": 0.0168129,
    "delta_star": 0.02438,
}


# Both sides of the fsum/expansion switch at 256, the fsum range below it,
# and far beyond it.
EXACT_SUM_NS = (1, 2, 4, 127, 128, 129, 255, 256, 257, 4000, 10**4)


def exact_sums(power):
    """{n: float(sum_{j<=n} 1/j**power)} for n in EXACT_SUM_NS, in rationals."""
    total, out = Fraction(0), {}
    for j in range(1, max(EXACT_SUM_NS) + 1):
        total += Fraction(1, j**power)
        if j in EXACT_SUM_NS:
            out[j] = float(total)
    return out


def load_golden():
    rows = {}
    with open(GOLDEN_PATH, newline="") as fh:
        for record in csv.DictReader(fh):
            key = (
                int(record["n"]),
                int(record["M"]),
                float(record["lambda_intra"]),
                float(record["lambda_inter"]),
                record["quantity_name"],
            )
            rows[key] = float(record["value"])
    return rows


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_euler_mascheroni_window(self):
        gap = harmonic(10**6) - math.log(10**6)
        assert 0.5772 < gap < 0.5773

    def test_matches_exact_fraction_sums(self):
        for n, exact in exact_sums(1).items():
            assert abs(harmonic(n) - exact) <= 1e-15 * exact, n

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic(2.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=200_000))
    def test_gap_window_and_decrease(self, n):
        gap = harmonic(n) - math.log(n)
        assert EULER_GAMMA < gap <= 1.0
        assert harmonic(n + 1) - math.log(n + 1) < gap


class TestGenHarmonic:
    def test_small_values(self):
        assert gen_harmonic(0) == 0.0
        assert gen_harmonic(1) == 1.0
        assert gen_harmonic(2) == 1.25

    def test_tail_bound(self):
        n = 10**4
        tail = PI_SQ_OVER_6 - gen_harmonic(n)
        assert 1.0 / (n + 1) < tail < 1.0 / n

    def test_matches_exact_fraction_sums(self):
        for n, exact in exact_sums(2).items():
            assert abs(gen_harmonic(n) - exact) <= 1e-15 * exact, n


class TestOrderStatMoments:
    def test_min_of_five_rate_two(self):
        # min of 5 exponentials of rate 2 is exponential of rate 10
        m = order_stat_moments(1, 5, 2.0)
        assert m.mean == pytest.approx(0.1, rel=1e-14)
        assert m.variance == pytest.approx(0.01, rel=1e-14)

    def test_max_of_three_closed_form(self):
        m = order_stat_moments(3, 3, 1.0)
        assert m.mean == pytest.approx(11.0 / 6.0, rel=1e-14)
        assert m.variance == pytest.approx(49.0 / 36.0, rel=1e-14)

    @pytest.mark.parametrize("k,n", [(3, 3), (2, 2)])
    def test_against_monte_carlo(self, k, n):
        rng = np.random.default_rng(1234 + k)
        draws = np.sort(rng.standard_exponential((10**6, n)), axis=1)[:, k - 1]
        m = order_stat_moments(k, n, 1.0)
        se_mean = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - m.mean) < 4 * se_mean
        sq = draws**2
        se_sq = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - m.second_moment) < 4 * se_sq

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            order_stat_moments(0, 3, 1.0)
        with pytest.raises(ValueError):
            order_stat_moments(4, 3, 1.0)
        with pytest.raises(ValueError):
            order_stat_moments(1, 3, 0.0)
        for rate in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^rate must be finite and > 0, got {rate}$"):
                order_stat_moments(1, 3, rate)

    def test_max_mean_is_harmonic_exactly(self):
        for n in (1, 2, 7, 100, 128, 129, 255, 256, 257, 300, 10**6, 2**53):
            m = order_stat_moments(n, n, 2.0)
            assert (m.mean, m.variance) == (harmonic(n) / 2.0, gen_harmonic(n) / 4.0), n

    @pytest.mark.parametrize(
        "k,n",
        [
            *itertools.product([1, 2, 128, 129, 1000], [10**6, 10**9, 10**12, 2**53]),
            # Most of many: the split at max(n - k, 256) with k near n, where
            # a log term of the form -log1p(-k/n) would cancel.
            *((n - d, n) for n in (10**4, 10**6) for d in (129, 200)),
            # Few of a few hundred, where subtracting H_n - H_{n-k} lost 5.6e-14.
            (132, 254), (130, 258), (423, 676),
        ],
    )
    def test_few_of_many_without_cancellation(self, k, n):
        # The sums of the k terms, not differences of two sums near log n
        # and pi^2/6.
        terms = range(n - k + 1, n + 1)
        m = order_stat_moments(k, n, 1.0)
        assert m.mean == pytest.approx(math.fsum(1 / j for j in terms), rel=2e-15, abs=0)
        assert m.variance == pytest.approx(math.fsum(1 / (j * j) for j in terms), rel=2e-15, abs=0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=499))
    def test_mean_monotone(self, n, k):
        k = min(k, n - 1)
        inc_k = order_stat_moments(k + 1, n, 1.0).mean - order_stat_moments(k, n, 1.0).mean
        assert inc_k > 0
        inc_n = order_stat_moments(k, n + 1, 1.0).mean - order_stat_moments(k, n, 1.0).mean
        assert inc_n < 0

    def test_second_moment_consistency(self):
        m = order_stat_moments(5, 10, 0.5)
        assert m.second_moment == pytest.approx(m.variance + m.mean**2, rel=1e-12)
        assert m.variance >= 0


class TestPhaseMoments:
    def test_single_node_cells(self):
        params = SchemeParams(8, 1, lambda_intra=2.0, lambda_inter=0.5)
        pm = phase_moments(params)
        assert pm.e_y1 == pytest.approx(harmonic(8) / 2.0, rel=1e-14)
        assert pm.e_y2 == pytest.approx(8 / 0.5, rel=1e-14)
        assert pm.e_z == pytest.approx(1 / 2.0, rel=1e-14)

    def test_single_cell(self):
        params = SchemeParams(16, 16)
        pm = phase_moments(params)
        assert pm.e_y3 == pytest.approx(16.0, rel=1e-14)  # H_1 = 1

    def test_aggregates(self):
        pm = phase_moments(SchemeParams(64, 4))
        assert pm.e_y == pytest.approx(pm.e_y1 + pm.e_y2 + pm.e_y3, rel=1e-14)
        cross = 2 * (pm.e_y1 * pm.e_y2 + pm.e_y1 * pm.e_y3 + pm.e_y2 * pm.e_y3)
        assert pm.e_y_sq == pytest.approx(
            pm.e_y1_sq + pm.e_y2_sq + pm.e_y3_sq + cross, rel=1e-14
        )
        assert pm.e_y1_sq >= pm.e_y1**2
        assert pm.e_y2_sq >= pm.e_y2**2
        assert pm.e_y3_sq >= pm.e_y3**2

    def test_against_golden_brute_force(self):
        golden = load_golden()
        pm = phase_moments(SchemeParams(64, 4))
        for name in ("e_y1", "e_y2", "e_y3", "e_y1_sq", "e_y2_sq", "e_y3_sq", "e_z"):
            value = golden[(64, 4, 1.0, 1.0, name)]
            assert abs(getattr(pm, name) - value) < GOLDEN_TOLERANCES[name], name

    def test_propagates_invalid_params(self):
        with pytest.raises(ValueError):
            phase_moments(SchemeParams(10, 3))


class TestClosedFormAge:
    def test_scale_invariance(self):
        base = closed_form_age(SchemeParams(64, 4, 1.0, 1.0)).total
        for c in (0.25, 2.0, 7.5):
            scaled = closed_form_age(SchemeParams(64, 4, c, c)).total
            assert scaled == pytest.approx(base / c, rel=1e-12)

    @pytest.mark.parametrize("rates", [(1e-300, 1.0), (1e308, 1e-308), (1.0, 1e200)])
    def test_out_of_float_range_names_both_rates(self, rates):
        # A rate squared under- or overflows: refused, not a ZeroDivisionError,
        # an OverflowError or an infinite age.
        lam, lam_t = rates
        match = re.escape(f"lambda_intra={lam}, lambda_inter={lam_t} leaves the float64 range")
        with pytest.raises(ValueError, match=match):
            closed_form_age(SchemeParams(64, 4, lam, lam_t))
        with pytest.raises(ValueError, match=match):
            asymptotic_age(64, 0.25, lam, lam_t)

    def test_huge_n_without_m_to_the_sixth(self):
        # Phase two's moments go through q = n/m^3 = 2^200, so neither m^5
        # nor m^6 (2^1200) is formed; the age is about (21/8) n^(1/4) log n.
        params = SchemeParams(2**800, 2**200)
        total = closed_form_age(params).total
        assert total == pytest.approx(2.343e63, rel=1e-3)
        pm = phase_moments(params)
        assert pm.e_y2 == pytest.approx(2.0**200 * harmonic(2**200), rel=1e-15)
        assert pm.e_y2_sq == pytest.approx(pm.e_y2**2, rel=1e-15)  # the variance is negligible
        assert asymptotic_age(2**800, 0.25) == pytest.approx(total, rel=2e-3)

    def test_assembly_identity(self):
        params = SchemeParams(256, 8, 1.3, 0.7)
        pm = phase_moments(params)
        breakdown = closed_form_age(params)
        expected = pm.e_z + pm.e_y1 + pm.e_y2 + pm.e_y_sq / (2 * pm.e_y)
        assert breakdown.total == pytest.approx(expected, rel=1e-12)
        assert breakdown.total == pytest.approx(
            breakdown.delay_part + breakdown.renewal_part, rel=1e-12
        )

    def test_per_term_sums_to_total(self):
        breakdown = closed_form_age(SchemeParams(1024, 8, 0.5, 2.0))
        assert len(breakdown.per_term) == 7
        assert sum(v for _, v in breakdown.per_term) == pytest.approx(
            breakdown.total, rel=1e-12
        )

    def test_against_golden_brute_force(self):
        golden = load_golden()
        total = closed_form_age(SchemeParams(64, 4)).total
        assert abs(total - golden[(64, 4, 1.0, 1.0, "delta_star")]) < GOLDEN_TOLERANCES[
            "delta_star"
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_positivity(self, m, cells, lam, lam_t):
        assume(m * cells >= 2)  # a single node has no destination
        params = SchemeParams(m * cells, m, lam, lam_t)
        breakdown = closed_form_age(params)
        assert all(value > 0 for _, value in breakdown.per_term)
        pm = phase_moments(params)
        assert breakdown.total > pm.e_z + pm.e_y1 + pm.e_y2  # renewal part positive


def _asymptotic_age_terms(n, b, lam, lam_t):
    """The large-n age as nine hand-expanded terms: the delay terms t1..t4
    and the renewal terms t5..t9 of the closed form, with m = n**b, H_n ->
    log n, H_m -> b log n, H_{n/m} -> (1-b) log n and every G -> pi^2/6."""
    log_n = math.log(n)
    nb = float(n) ** b
    z = PI_SQ_OVER_6
    e_y = (
        nb / lam * log_n
        + n / (nb**3 * lam_t) * b * log_n
        + nb / lam * (1.0 - b) * log_n
    )
    t1 = nb / lam * log_n
    t2 = n / (nb**3 * lam_t) * b * log_n
    t3 = (nb - 1.0) / (2.0 * lam) * (1.0 - b) * log_n
    t4 = 1.0 / lam
    t5 = (nb**2 / lam**2 * log_n**2 + nb / lam**2 * z) / (2.0 * e_y)
    t6 = (
        n**2 / (nb**6 * lam_t**2) * b * b * log_n**2
        + n / (nb**5 * lam_t**2) * z
    ) / (2.0 * e_y)
    t7 = (nb**2 / lam**2 * (1.0 - b) ** 2 * log_n**2 + nb / lam**2 * z) / (2.0 * e_y)
    t8 = (
        n / (nb**2 * lam * lam_t) * b * log_n**2
        + nb**2 / lam**2 * (1.0 - b) * log_n**2
    ) / e_y
    t9 = (n / (nb**2 * lam * lam_t) * b * (1.0 - b) * log_n**2) / e_y
    return t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8 + t9


class TestAsymptoticAge:
    def test_matches_hand_expanded_terms(self):
        # asymptotic_age evaluates the closed form's own algebra at real
        # m = n**b with the sums substituted; the nine expanded terms are
        # the same expression, so the two agree to rounding.
        for n in (2, 3, 7, 64, 1000, 4096, 2**16, 2**20, *(10**k for k in range(7, 31))):
            for b in (k / 20 for k in range(1, 21)):
                for lam in (0.5, 1.0, 3.0):
                    for lam_t in (0.5, 1.0, 3.0):
                        expected = _asymptotic_age_terms(n, b, lam, lam_t)
                        got = asymptotic_age(n, b, lam, lam_t)
                        assert got == pytest.approx(expected, rel=1e-15, abs=0.0), (n, b, lam)

    def test_scale_invariance(self):
        base = asymptotic_age(10**4, 0.5, 1.0, 1.0)
        for c in (0.5, 3.0):
            assert asymptotic_age(10**4, 0.5, c, c) == pytest.approx(base / c, rel=1e-12)

    def test_competing_exponents_cross_at_quarter(self):
        assert 1 - 3 * 0.25 == 0.25
        assert scaling_exponent(0.25) == 0.25

    def test_relative_error_vs_exact_decreases(self):
        # At b = 1/2 over even powers of ten m = n**b divides n exactly, so
        # the comparison isolates the H_m vs b log n approximation error.
        rel_errors = []
        for n in (10**2, 10**4, 10**6):
            m = round(n**0.5)
            exact = closed_form_age(SchemeParams(n, m)).total
            approx = asymptotic_age(n, 0.5)
            rel_errors.append(abs(approx - exact) / exact)
        assert rel_errors[0] > rel_errors[1] > rel_errors[2]

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_age(100, 0.0)
        with pytest.raises(ValueError):
            asymptotic_age(100, 1.5)
        with pytest.raises(ValueError):
            asymptotic_age(1, 0.5)
        with pytest.raises(ValueError, match="^lambda_intra must be finite and > 0, got inf$"):
            asymptotic_age(100, 0.5, math.inf)
        with pytest.raises(ValueError, match="^lambda_inter must be finite and > 0, got inf$"):
            asymptotic_age(100, 0.5, lambda_inter=math.inf)


class TestRoundRobinAge:
    def test_values(self):
        assert round_robin_age(1, 2.0) == 1.0
        assert round_robin_age(1024, 0.5) == 2050.0
        # n + 1 is rounded once, from the integer.
        assert round_robin_age(2**64, 1.0) == float(2**64 + 1)
        assert round_robin_age(2**54 + 2, 1.0) == float(2**54 + 4) != float(2**54 + 2) + 1.0

    def test_domain(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            round_robin_age(0, 1.0)
        with pytest.raises(ValueError, match="^n must be an integer, got 6.0$"):
            round_robin_age(6.0, 1.0)
        for rate in (0.0, math.inf, math.nan, True):
            with pytest.raises(ValueError, match=f"^rate must be finite and > 0, got {rate}$"):
                round_robin_age(8, rate)
        with pytest.raises(ValueError, match="^the closed form at rate=1e-308 leaves"):
            round_robin_age(8, 1e-308)


class TestScalingExponent:
    @pytest.mark.parametrize("b,expected", [(0.25, 0.25), (1.0, 1.0), (0.1, 0.7)])
    def test_values(self, b, expected):
        assert scaling_exponent(b) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            scaling_exponent(0.0)
        with pytest.raises(ValueError):
            scaling_exponent(1.01)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_lower_bound(self, b):
        value = scaling_exponent(b)
        assert value >= 0.25
        if abs(b - 0.25) > 1e-9:
            assert value > 0.25


class TestSchemeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeParams(10, 3)
        with pytest.raises(ValueError):
            SchemeParams(4, 8)
        with pytest.raises(ValueError):
            SchemeParams(8, 2, lambda_intra=0.0)
        with pytest.raises(ValueError):
            SchemeParams(0, 1)

    @pytest.mark.parametrize("name", ["lambda_intra", "lambda_inter"])
    @pytest.mark.parametrize("rate", [math.inf, math.nan, -1.0])
    def test_rates_must_be_finite_and_positive(self, name, rate):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {rate}$"):
            SchemeParams(8, 2, **{name: rate})

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_nodes_rejected_with_reason(self, n):
        with pytest.raises(
            ValueError, match=rf"^n must be >= 2 \(a node is never its own destination\), got {n}$"
        ):
            SchemeParams(n, 1)

    def test_n_beyond_the_largest_float64_rejected(self):
        largest = int(sys.float_info.max)
        assert SchemeParams(largest, 1).n == largest
        with pytest.raises(
            ValueError,
            match=r"^n must be at most 1\.7976931348623157e\+308, the largest float64; "
            r"got an integer of 1024 bits$",
        ):
            SchemeParams(largest + 1, 1)

    @pytest.mark.parametrize(
        "n, m", [(64, np.int32(4)), (np.int64(64), np.uint8(4)), (np.uint64(2**63), 2**31)]
    )
    def test_numpy_integers_stored_as_int(self, n, m):
        params = SchemeParams(n, m)
        assert (params.n, params.m) == (int(n), int(m))
        assert type(params.n) is int and type(params.m) is int

    @pytest.mark.parametrize(
        "n, m, name",
        [(64, True, "m"), (True, 1, "n"), (64, 4.0, "m"), (64.0, 4, "n"), (64, np.float64(4), "m")],
    )
    def test_bools_and_floats_refused(self, n, m, name):
        value = n if name == "n" else m
        message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SchemeParams(n, m)

    def test_m_below_one_refused(self):
        with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
            SchemeParams(8, 0)

    def test_derived(self):
        params = SchemeParams(1024, 8)
        assert params.cells == 128
        assert params.b == pytest.approx(math.log(8) / math.log(1024))
        assert SchemeParams(4, 4).b == 1.0


@pytest.mark.parametrize(
    "closed_form",
    [
        harmonic,
        gen_harmonic,
        lambda n: order_stat_moments(1, n, 1.0),
        lambda n: asymptotic_age(n, 0.5),
        lambda n: round_robin_age(n, 1.0),
    ],
    ids=["harmonic", "gen_harmonic", "order_stat_moments", "asymptotic_age", "round_robin_age"],
)
def test_n_beyond_the_largest_float64_refused(closed_form):
    with pytest.raises(
        ValueError,
        match=r"^n must be at most 1\.7976931348623157e\+308, the largest float64; "
        r"got an integer of 1329 bits$",
    ):
        closed_form(10**400)
