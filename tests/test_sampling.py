"""Stream determinism, independence, and inverse-CDF samplers."""

import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainccinv, gammaincinv

from aoilab import (
    SchemeParams,
    StreamSpec,
    harmonic,
    make_stream,
    simulate_sessions,
)
from aoilab import scheme
from aoilab.sampling import (
    _TINY_UNIFORM,
    _gamma_quantile_table,
    exp_from_uniform,
    fill_stream_rows,
    gamma_from_uniform,
    max_exp_from_uniform,
    session_stream,
    stream_window,
)


class TestStreams:
    def test_equal_specs_identical(self):
        a = make_stream(StreamSpec(123456789, 42)).random(10_000)
        b = make_stream(StreamSpec(123456789, 42)).random(10_000)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = make_stream(StreamSpec(7, 0)).random(1000)
        b = make_stream(StreamSpec(7, 1)).random(1000)
        assert not np.array_equal(a, b)

    def test_chi_square_independence_smoke(self):
        # Pair draws from two streams, bin on a 10x10 grid, 1% level.
        n = 10_000
        a = make_stream(StreamSpec(2024, 0)).random(n)
        b = make_stream(StreamSpec(2024, 1)).random(n)
        counts, _, _ = np.histogram2d(a, b, bins=10, range=[[0, 1], [0, 1]])
        expected = n / 100.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=99)

    def test_recreated_handle_continues_by_draw_count(self):
        spec = StreamSpec(99, 3)
        first = make_stream(spec)
        first.random(100)
        continuation = first.random(50)
        replay = make_stream(spec)
        replay.random(100)
        assert np.array_equal(replay.random(50), continuation)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(-1, 0)
        with pytest.raises(ValueError):
            StreamSpec(0, 2**64)

    def test_fill_stream_rows_matches_make_stream(self):
        # Session s starts s * width draws into the base window, so the rows
        # are consecutive width-slices of the base stream, with nothing
        # between them, and session_stream replays each one.
        for width in (3, 8, 9):
            rows = fill_stream_rows(55, 100, 3, 6, width)
            assert rows.shape == (6, width)
            window = make_stream(StreamSpec(55, 100)).random(9 * width)
            assert np.array_equal(rows.ravel(), window[3 * width :])
            for i in range(6):
                expected = session_stream(55, 100, 3 + i, width).random(width)
                assert np.array_equal(rows[i], expected)

    def test_stream_window_fills_at_most_one_block(self):
        # Rows of 16 draws fill a window exactly: the fullest run ends at the
        # next stream's first draw, and one more session is refused.
        for index in (5, 2**64 - 1):
            start, stop = stream_window(index, 2**60, 16)
            assert (start, stop) == (index * 2**64, (index + 1) * 2**64)
            with pytest.raises(ValueError, match=rf"need {2**64 + 16} draws"):
                stream_window(index, 2**60 + 1, 16)
        # Rows of 147 leave 100 draws of the window unused.
        most = 2**64 // 147
        assert stream_window(5, most, 147) == (5 * 2**64, 6 * 2**64 - 100)
        with pytest.raises(ValueError, match=f"one stream window; at most {most} sessions"):
            stream_window(5, most + 1, 147)

    def test_replay_refuses_rows_outside_the_window(self):
        # Rows of 5 leave one draw of a window unused: the last row that
        # fits is followed by that draw and then by the next stream's first.
        last = 2**64 // 5 - 1
        row = session_stream(1, 0, last, 5).random(7)
        assert row[6] == make_stream(StreamSpec(1, 1)).random()
        assert np.array_equal(fill_stream_rows(1, 0, last, 1, 5)[0], row[:5])
        with pytest.raises(ValueError, match="^session must be >= 0, got -1$"):
            session_stream(1, 0, -1, 5)
        with pytest.raises(ValueError, match=f"which holds sessions 0 to {last}$"):
            session_stream(1, 0, last + 1, 5)
        with pytest.raises(ValueError, match=f"at most {last + 1} sessions fit"):
            fill_stream_rows(1, 0, last + 1, 2, 5)
        with pytest.raises(ValueError, match=f"at most {last + 1} sessions fit"):
            fill_stream_rows(1, 0, last, 2, 5)

    @pytest.mark.parametrize("index", [0, 2**64 - 2])
    def test_next_stream_starts_2_64_draws_on(self, index):
        # Stream i + 1 is stream i advanced by 2^64 draws, draw for draw,
        # also at the top of the 2^128 period.
        ahead = make_stream(StreamSpec(77, index))
        ahead.bit_generator.advance(2**64)
        following = make_stream(StreamSpec(77, index + 1))
        assert np.array_equal(ahead.random(1000), following.random(1000))


class TestSampleExp:
    def test_mean_within_four_se(self):
        stream = make_stream(StreamSpec(11, 0))
        draws = exp_from_uniform(stream.random(10**6), 1.0)
        assert abs(draws.mean() - 1.0) < 4.0 / np.sqrt(draws.size)

    def test_variance_within_four_se(self):
        stream = make_stream(StreamSpec(12, 0))
        rate = 1.5
        draws = exp_from_uniform(stream.random(10**6), rate)
        sq = (draws - draws.mean()) ** 2
        se_var = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(draws.var(ddof=1) - 1.0 / rate**2) < 4.0 * se_var

    def test_rate_scaling_exact_under_same_stream(self):
        u = make_stream(StreamSpec(13, 1)).random(1000)
        assert np.array_equal(exp_from_uniform(u, 2.0), exp_from_uniform(u, 1.0) / 2.0)

    def test_strictly_positive_even_at_zero_uniform(self):
        assert exp_from_uniform(0.0, 1.0) > 0.0
        assert np.all(exp_from_uniform(np.array([0.0, 0.5]), 1.0) > 0.0)


class TestSampleMaxExp:
    def test_count_one_equals_plain_exponential(self):
        u = np.linspace(0.001, 0.999, 57)
        assert np.array_equal(max_exp_from_uniform(u, 1, 0.7), exp_from_uniform(u, 0.7))

    def test_mean_matches_harmonic(self):
        stream = make_stream(StreamSpec(21, 0))
        draws = max_exp_from_uniform(stream.random(10**6), 10, 1.0)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - harmonic(10)) < 4 * se

    def test_kolmogorov_smirnov(self):
        stream = make_stream(StreamSpec(22, 0))
        count, rate = 7, 2.0
        draws = max_exp_from_uniform(stream.random(10**5), count, rate)
        result = stats.kstest(draws, lambda x: (1.0 - np.exp(-rate * x)) ** count)
        assert result.pvalue > 0.01

    def test_stochastic_dominance_pointwise(self):
        u = make_stream(StreamSpec(23, 0)).random(10_000)
        smaller = max_exp_from_uniform(u, 3, 1.0)
        larger = max_exp_from_uniform(u, 30, 1.0)
        assert np.all(larger > smaller)

    def test_empty_max_is_zero(self):
        assert max_exp_from_uniform(0.5, 0, 1.0) == 0.0

    def test_positive_and_finite(self):
        u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
        for count in (1, 2, 10**6):
            x = max_exp_from_uniform(u, count, 3.0)
            assert np.all(x > 0) and np.all(np.isfinite(x))


class TestSampleMinExp:
    """The min of ``count`` i.i.d. Exp(rate) is Exp(count * rate), so a
    minimum is one exponential draw at the scaled rate."""

    def test_mean_of_min(self):
        stream = make_stream(StreamSpec(31, 0))
        m, rate = 4, 0.5
        draws = exp_from_uniform(stream.random(10**6), m * m * rate)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0 / (m * m * rate)) < 4 * se

    def test_count_four_rate_half(self):
        stream = make_stream(StreamSpec(32, 0))
        draws = exp_from_uniform(stream.random(10**6), 4 * 0.5)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 4 * se

    def test_transform_is_exponential_at_scaled_rate(self):
        # Explicit minima of 6 draws at rate 0.5 against Exp(3).
        u = make_stream(StreamSpec(33, 2)).random((20_000, 6))
        minima = exp_from_uniform(u, 0.5).min(axis=1)
        assert stats.kstest(minima, stats.expon(scale=1 / 3.0).cdf).pvalue > 1e-3


class TestInPlaceTransforms:
    """The transforms compute in one output array; the expressions below are
    the allocating originals, kept as the bit-for-bit reference."""

    @staticmethod
    def _clean(u):
        return np.maximum(u, _TINY_UNIFORM)

    def _exp_reference(self, u, rate):
        return -np.log1p(-self._clean(u)) / rate

    def _max_reference(self, u, count, rate):
        if count == 0:
            return np.zeros_like(u)
        if count == 1:
            return self._exp_reference(u, rate)
        return -np.log(-np.expm1(np.log(self._clean(u)) / count)) / rate

    @pytest.mark.parametrize("size", [0, 1, 2, 4096])
    @pytest.mark.parametrize("count", [0, 1, 2, 4096])
    def test_bit_identical_and_input_untouched(self, size, count):
        u = make_stream(StreamSpec(41, size)).random(size)
        u[: min(size, 4)] = [0.0, 5e-324, 1e-300, 2.0**-53][: min(size, 4)]
        before = u.copy()
        for rate in (1.0, 0.7, 3.0):
            assert np.array_equal(
                max_exp_from_uniform(u, count, rate), self._max_reference(u, count, rate)
            )
            assert np.array_equal(exp_from_uniform(u, rate), self._exp_reference(u, rate))
        assert np.array_equal(u, before)

    def test_clamp_remaps_only_zero_on_the_generator_grid(self):
        # Generator uniforms are multiples of 2^-53, so 0 is the only one
        # below 2^-53: there the clamp equals remapping 0 to 2^-53.  Off the
        # grid, every uniform below 2^-53 draws what 2^-53 draws.
        u = make_stream(StreamSpec(43, 0)).random(4096)
        u[:3] = [0.0, 2.0**-53, 1.0 - 2.0**-53]
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
        remapped = np.where(u == 0.0, _TINY_UNIFORM, u)
        assert np.array_equal(exp_from_uniform(u, 0.7), exp_from_uniform(remapped, 0.7))
        for count in (2, 4096):
            assert np.array_equal(
                max_exp_from_uniform(u, count, 0.7), max_exp_from_uniform(remapped, count, 0.7)
            )
        below = np.array([5e-324, 1e-300, 2.0**-54])
        assert np.array_equal(exp_from_uniform(below, 0.7), np.full(3, exp_from_uniform(2.0**-53, 0.7)))
        assert np.array_equal(
            max_exp_from_uniform(below, 8, 0.7), np.full(3, max_exp_from_uniform(2.0**-53, 8, 0.7))
        )

    def test_strided_views_and_scalars(self):
        u = make_stream(StreamSpec(42, 0)).random((64, 9))
        u[0, 0] = 0.0
        view = u[:, 2:7]
        assert np.array_equal(max_exp_from_uniform(view, 8, 1.0), self._max_reference(view, 8, 1.0))
        for x in (0.0, 0.25):
            got = max_exp_from_uniform(x, 8, 2.0)
            assert np.ndim(got) == 0 and got == self._max_reference(np.float64(x), 8, 2.0)
            assert exp_from_uniform(x, 2.0) == self._exp_reference(np.float64(x), 2.0)


class TestGammaFromUniform:
    """The tabulated gamma quantile against scipy's iterative inverse."""

    @staticmethod
    def _uniforms(seed):
        # Random uniforms plus both tails of the generator grid and u = 0.
        k = np.arange(1, 54)
        u = make_stream(StreamSpec(43, seed)).random(10**6)
        return np.concatenate([u, 2.0**-k, 1 - 2.0**-k, [0.0]])

    # Simulation reaches every shape from 16 up: phase two from 4 m cells,
    # the round-robin baseline at n.  The table now errs by 5.9e-14, 4.6e-14
    # and 3.9e-14 at 16, 24 and 32 on these uniforms; its knot count is the
    # fewest that keep shape 32 inside its bound.
    _BOUNDS = {16: 2.4e-12, 24: 2.0e-13, 32: 4.3e-14}

    @pytest.mark.parametrize("shape", [16, 24, 32, 48, 384, 512, 2048, 4096, 32768, 65536])
    def test_matches_gammaincinv(self, shape):
        u = self._uniforms(shape)
        want = gammaincinv(shape, np.maximum(u, _TINY_UNIFORM))
        got = gamma_from_uniform(u, shape)
        assert np.max(np.abs(got / want - 1)) <= self._BOUNDS.get(shape, 1e-13)

    @pytest.mark.parametrize("shape", [16, 48, 4096, 65536])
    def test_non_decreasing_on_sorted_uniforms(self, shape):
        # Checked at sample spacing: gammaincinv itself steps back by an ulp
        # between some neighbouring grid points.
        u = np.sort(self._uniforms(shape + 1))
        assert np.all(np.diff(gamma_from_uniform(u, shape)) >= 0)

    @pytest.mark.parametrize("shape", [16, 24, 32, 48, 4096, 65536])
    def test_grid_neighbours_of_the_median(self, shape):
        # The log score's knot at v = 0, where the quantile has a kink in
        # v: u = 1/2 + k 2^-53 for |k| <= 1024 have |v| < 1e-6.
        u = 0.5 + np.arange(-1024, 1025) * 2.0**-53
        got = gamma_from_uniform(u, shape)
        assert np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got / gammaincinv(shape, u) - 1)) <= self._BOUNDS.get(shape, 1e-13)

    @pytest.mark.parametrize("shape", [16, 4096])
    def test_generator_grid_ends_clamp_to_end_knots(self, shape):
        c0, c1, c2, c3 = _gamma_quantile_table(shape)
        first, last = c0[0], c0[-1] + c1[-1] + c2[-1] + c3[-1]
        bound = self._BOUNDS.get(shape, 1e-13)
        assert abs(first / gammaincinv(shape, _TINY_UNIFORM) - 1) <= bound
        assert abs(last / gammainccinv(shape, _TINY_UNIFORM) - 1) <= bound
        low = gamma_from_uniform(np.array([0.0, _TINY_UNIFORM, 1e-300]), shape)
        high = gamma_from_uniform(np.array([1 - _TINY_UNIFORM, 1.0]), shape)
        assert np.all(low == low[0]) and abs(low[0] / first - 1) <= 1e-15
        assert np.all(high == high[0]) and abs(high[0] / last - 1) <= 1e-15

    @pytest.mark.parametrize("shape", [2**53, 2**64])
    def test_huge_shapes_follow_gammaincinv(self, shape):
        # Knot slopes need log-density terms of order 1: shape log x and
        # gammaln(shape) cancel to noise at 2^53, and scipy takes 2^64
        # only as a float.  Measured: within 3e-9 of gammaincinv here.
        u = self._uniforms(7)[::100]
        want = gammaincinv(float(shape), np.maximum(u, _TINY_UNIFORM))
        assert np.max(np.abs(gamma_from_uniform(u, shape) / want - 1)) <= 1e-8

    @pytest.mark.parametrize("shape", [10**62, 10**99, 10**308], ids=["1e62", "1e99", "1e308"])
    def test_shapes_past_stirling_overflow_give_the_shape(self, shape):
        # a**3 and a**5 would overflow above about 4.5e61; a**-3 and a**-5
        # underflow to 0.  The spread, a^(-1/2) relative, is below an ulp.
        u = self._uniforms(8)[::100]
        assert np.all(gamma_from_uniform(u, shape) == float(shape))

    @pytest.mark.parametrize("shape", [15, 8, 1, 0, -3])
    def test_small_shapes_raise_naming_the_limit(self, shape):
        with pytest.raises(ValueError, match="shape >= 16"):
            gamma_from_uniform(np.array([0.5]), shape)

    def test_scalars_views_and_input_untouched(self):
        u = make_stream(StreamSpec(44, 0)).random((64, 9))
        u[0, 2] = 0.0
        before = u.copy()
        view = u[:, 2:7]
        got = gamma_from_uniform(view, 384)
        assert got.shape == view.shape
        assert np.array_equal(got, gamma_from_uniform(np.ascontiguousarray(view), 384))
        assert np.array_equal(u, before)
        for x in (0.0, 0.25, 0.5, 0.75, 1 - _TINY_UNIFORM):
            want = gamma_from_uniform(np.array([x]), 384)[0]
            for one in (gamma_from_uniform(x, 384), gamma_from_uniform(np.array(x), 384)):
                assert np.ndim(one) == 0 and one == want

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            _gamma_quantile_table(384)[0, 0] = 0.0

    def test_cache_holds_at_most_2_mib(self):
        # and at least the five shapes of one b = 1/4 sweep up to n = 2^16
        maxsize = _gamma_quantile_table.cache_info().maxsize
        assert maxsize >= 5
        assert maxsize * _gamma_quantile_table(384).nbytes <= 2**21

    def test_first_build_on_threads_is_bit_identical(self, fills, monkeypatch):
        # Four threads on any machine, switching every microsecond, each
        # building the cleared table for its first chunk at once: 512 rows
        # of 27 uniforms in chunks of two 64-row blocks.
        monkeypatch.setattr(scheme.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(scheme, "_BLOCK_UNIFORMS", 64 * 27)
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 128 * 27)
        params = SchemeParams(4096, 8)
        _gamma_quantile_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = simulate_sessions(params, 512, master_seed=45, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert [rows for _, rows, _ in fills] == [128] * 4
        serial = simulate_sessions(params, 512, master_seed=45)
        assert threaded.batch_summaries == serial.batch_summaries
