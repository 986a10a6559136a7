"""Session samplers, coupling bounds, estimators, and the baseline."""

import os
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import expon, ks_2samp, kstest

from aoilab import (
    DeliveryMode,
    MomentSummary,
    SchemeParams,
    StreamSpec,
    Variant,
    closed_form_age,
    estimate_age_moment_formula,
    harmonic,
    integrate_age_timeline,
    make_stream,
    phase_moments,
    round_robin_age,
    sample_coupled_sessions,
    simulate_round_robin,
    simulate_sessions,
)
from aoilab import scheme
from aoilab.sampling import exp_from_uniform, fill_stream_rows, session_stream
from aoilab.scheme import (
    _exact_kernel,
    _exact_width,
    _phase_two,
    _phase_two_width,
    _round_robin_kernel,
    _worsened_kernel,
    _worsened_width,
)


def _se(arr):
    return arr.std(ddof=1) / np.sqrt(arr.size)


def _constant_run(sessions, y0, d0):
    """A run of identical sessions ``(y0, d0)`` through the batch engine."""

    def kernel(u):
        return {"y": np.full(u.shape[0], y0), "d": np.full(u.shape[0], d0)}

    return scheme._run_batches(kernel, 1, sessions, 0, 0, 1, "rate=1.0")


def _assert_replayed_sums(run, kernel, width, monkeypatch):
    """Check ``run`` against its sessions replayed one by one from their own
    streams through ``kernel``: the batch engine, fed the replayed rows in
    place of its fills, must reproduce every sum of ``run`` bit for bit."""
    streams = [
        session_stream(run.master_seed, run.base_stream_index, s, width)
        for s in range(run.sessions)
    ]
    rows = [kernel(stream.random(width)[None, :]) for stream in streams]
    y = np.array([row["y"][0] for row in rows])
    d = np.array([row["d"][0] for row in rows])

    def session_indices(master_seed, base_stream_index, first_session, rows, width):
        return np.arange(first_session, first_session + rows)[:, None]

    with monkeypatch.context() as patch:
        patch.setattr(scheme, "fill_stream_rows", session_indices)
        replayed = scheme._run_batches(
            lambda s: {"y": y[s[:, 0]], "d": d[s[:, 0]]},
            width, run.sessions, run.master_seed, run.base_stream_index, 1, "rate=1.0",
        )
    _assert_same_run(run, replayed)


def _reference_round_robin(n, rate, stream):
    """One turn-taking session slot by slot: n explicit slot durations, the
    tagged pair in a uniform slot j.  Returns (d, y): the sum of the first j
    slots and of all n."""
    slots = exp_from_uniform(stream.random(n), rate)
    j = 1 + min(int(stream.random() * n), n - 1)
    return float(slots[:j].sum()), float(slots.sum())


class TestWorsenedSampler:
    def test_phase_means_match_closed_forms(self, session_columns):
        params = SchemeParams(64, 4)
        run = session_columns(params, 200_000, master_seed=101)
        pm = phase_moments(params)
        for name, expected in [
            ("y1", pm.e_y1), ("y2", pm.e_y2), ("y3", pm.e_y3), ("z", pm.e_z),
        ]:
            arr = getattr(run, name)
            assert abs(arr.mean() - expected) < 4 * _se(arr), name

    def test_second_moments_match_closed_forms(self, session_columns):
        params = SchemeParams(64, 4)
        run = session_columns(params, 200_000, master_seed=102)
        pm = phase_moments(params)
        for name, expected in [
            ("y1", pm.e_y1_sq), ("y2", pm.e_y2_sq), ("y3", pm.e_y3_sq),
        ]:
            sq = getattr(run, name) ** 2
            assert abs(sq.mean() - expected) < 4 * _se(sq), name

    def test_single_node_cells_phase_one_is_max_of_n(self, session_columns):
        params = SchemeParams(32, 1, lambda_intra=2.0)
        run = session_columns(params, 100_000, master_seed=103)
        expected = harmonic(32) / 2.0
        assert abs(run.y1.mean() - expected) < 4 * _se(run.y1)

    def test_single_cell_phase_two_is_one_max(self, session_columns):
        m = 8
        params = SchemeParams(m, m, lambda_inter=0.5)
        run = session_columns(params, 100_000, master_seed=104)
        expected = harmonic(m) / (m * m * 0.5)
        assert abs(run.y2.mean() - expected) < 4 * _se(run.y2)

    def test_additivity_and_positivity(self, session_columns):
        params = SchemeParams(64, 4)
        run = session_columns(params, 10_000, master_seed=105)
        assert np.array_equal(run.d, run.y1 + run.y2 + run.z)
        assert np.array_equal(run.y, run.y1 + run.y2 + run.y3)
        for col in (run.y1, run.y2, run.y3, run.z):
            assert np.all(col > 0)

    def test_scalar_matches_batch_row(self, monkeypatch):
        # Every session replays bit for bit from its own stream, in 4-row
        # chunks and 2 batches of 32, in both delivery modes.
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 1)
        params = SchemeParams(64, 4)
        width = _worsened_width(params)
        for mode in DeliveryMode:
            run = simulate_sessions(
                params, 64, delivery=mode, master_seed=7, base_stream_index=3,
            )
            assert [s.count for s in run.batch_summaries] == [32, 32]
            _assert_replayed_sums(
                run, lambda u: _worsened_kernel(u, params, mode), width, monkeypatch
            )

    def test_phase_independence(self, session_columns):
        run = session_columns(SchemeParams(64, 4), 100_000, master_seed=106)
        n = run.y1.size
        for a, b in [(run.y1, run.y2), (run.y1, run.y3), (run.y2, run.y3)]:
            r = np.corrcoef(a, b)[0, 1]
            assert abs(r) < 4.0 / np.sqrt(n)

    def test_coupled_mode_sessions_deliver_in_time(self, session_columns):
        args = (SchemeParams(64, 4), 100_000)
        run = session_columns(*args, delivery=DeliveryMode.COUPLED, master_seed=107)
        assert np.all(run.d <= run.y)
        assert simulate_sessions(*args, delivery="coupled", master_seed=107).late_deliveries == 0

    def test_late_deliveries_counted_per_session(self, session_columns, monkeypatch):
        # Independent delivery lands after the session end on some paths;
        # the run counts them in its chunks, in 4-row chunks and on 2 threads.
        params = SchemeParams(64, 4)
        cols = session_columns(params, 5_000, master_seed=109)
        late = int(np.sum(cols.d > cols.y))
        assert late > 0
        assert simulate_sessions(params, 5_000, master_seed=109).late_deliveries == late
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 1)
        run = simulate_sessions(params, 5_000, master_seed=109, workers=2)
        assert run.late_deliveries == late

    def test_coupled_mode_keeps_marginal_means(self, session_columns):
        params = SchemeParams(64, 4)
        run = session_columns(
            params, 200_000, delivery=DeliveryMode.COUPLED, master_seed=108
        )
        pm = phase_moments(params)
        for name, expected in [("y3", pm.e_y3), ("z", pm.e_z)]:
            arr = getattr(run, name)
            assert abs(arr.mean() - expected) < 4 * _se(arr), name


class TestExactSampler:
    def test_single_cell_reduces_to_per_node_maxima(self, session_columns):
        m = 8
        params = SchemeParams(m, m)
        run = session_columns(params, 100_000, variant=Variant.EXACT, master_seed=201)
        expected = m * harmonic(m - 1)  # sum of m maxima over m-1 draws
        assert abs(run.y1.mean() - expected) < 4 * _se(run.y1)

    def test_degenerate_m1_has_zero_phase_one(self, session_columns):
        run = session_columns(
            SchemeParams(16, 1), 5_000, variant=Variant.EXACT, master_seed=202
        )
        assert np.all(run.y1 == 0.0)
        assert np.all(run.d <= run.y)

    def test_exact_phase_means_below_worsened(self, session_columns):
        params = SchemeParams(256, 8)
        exact = session_columns(params, 50_000, variant=Variant.EXACT, master_seed=203)
        worsened = session_columns(params, 50_000, master_seed=203)
        # one-sided z-test at a comfortable margin
        diff = worsened.y1.mean() - exact.y1.mean()
        se = np.hypot(_se(worsened.y1), _se(exact.y1))
        assert diff > 4 * se
        diff3 = worsened.y3.mean() - exact.y3.mean()
        se3 = np.hypot(_se(worsened.y3), _se(exact.y3))
        assert diff3 > 4 * se3

    def test_delivery_is_within_session_by_construction(self, session_columns):
        args = (SchemeParams(64, 4), 50_000)
        run = session_columns(*args, variant=Variant.EXACT, master_seed=204)
        assert np.all(run.d <= run.y)
        assert simulate_sessions(*args, variant="exact", master_seed=204).late_deliveries == 0

    def test_scalar_matches_batch_row(self, fills, monkeypatch):
        # 16 sessions replay bit for bit, in 4-row chunks and one batch.
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 1)
        params = SchemeParams(64, 4)
        run = simulate_sessions(params, 16, variant=Variant.EXACT, master_seed=5)
        assert [rows for _, rows, _ in fills] == [4, 4, 4, 4]
        _assert_replayed_sums(
            run, lambda u: _exact_kernel(u, params), _exact_width(params), monkeypatch
        )


def _assert_pathwise_bounds(exact, worsened):
    assert np.all(exact["y1"] <= worsened["y1"])
    assert np.all(exact["y3"] <= worsened["y3"])
    for half in (exact, worsened):
        assert np.all(half["z"] <= half["y3"])
        assert np.all(half["d"] <= half["y"])


class TestCoupledSessions:
    def test_pathwise_bounds_hold_everywhere(self):
        for n, m, sessions in [(64, 4, 3_000), (16, 1, 3_000), (4096, 8, 300)]:
            _assert_pathwise_bounds(
                *sample_coupled_sessions(SchemeParams(n, m), sessions, master_seed=301)
            )

    def test_m1_has_empty_exact_phase_one(self):
        # At m = 1 the worsened round is the top-up max over all n draws.
        exact, worsened = sample_coupled_sessions(SchemeParams(8, 1), 3_000, master_seed=304)
        assert np.all(exact["y1"] == 0.0)
        assert np.all(worsened["y1"] > 0.0)
        _assert_pathwise_bounds(exact, worsened)

    @pytest.mark.parametrize("n, m", [(64, 4), (16, 1)])
    def test_exact_half_is_the_exact_kernel(self, n, m):
        # A coupled row is an exact row followed by m uniforms; each pair
        # replays from its own stream, and its exact half is the exact
        # kernel of the row's exact part, bit for bit.
        params = SchemeParams(n, m)
        sessions, width = 50, _exact_width(params) + m
        exact, _ = sample_coupled_sessions(
            params, sessions, master_seed=305, base_stream_index=2
        )
        for s in (0, 1, sessions - 1):
            row = session_stream(305, 2, s, width).random(width)[None, : _exact_width(params)]
            for name, col in _exact_kernel(row, params).items():
                assert col[0] == exact[name][s], (s, name)

    def test_exact_phase_one_matches_per_receiver_draws(self, session_columns):
        # Brute force: every broadcast of every cell draws one exponential
        # per receiver; a round lasts until its slowest receiver, a cell
        # until its last round, and phase one until the slowest cell.
        params = SchemeParams(64, 4)
        m, cells, sessions = params.m, params.cells, 20_000
        draws = exp_from_uniform(
            make_stream(StreamSpec(302, 0)).random((sessions, cells, m, m - 1)),
            params.lambda_intra,
        )
        brute = draws.max(axis=3).sum(axis=2).max(axis=1)
        kernel = session_columns(params, sessions, variant=Variant.EXACT, master_seed=303).y1
        se = np.hypot(_se(brute), _se(kernel))
        assert abs(brute.mean() - kernel.mean()) < 4 * se

    @pytest.mark.parametrize("n, m", [(64, 4), (64, 1)])
    def test_worsened_half_has_the_worsened_law(self, n, m, session_columns):
        params = SchemeParams(n, m)
        _, worsened = sample_coupled_sessions(params, 20_000, master_seed=306)
        pm = phase_moments(params)
        for name, expected in [("y1", pm.e_y1), ("y3", pm.e_y3), ("z", pm.e_z)]:
            col = worsened[name]
            assert abs(col.mean() - expected) < 4 * _se(col), name
        kernel = session_columns(
            params, 20_000, delivery=DeliveryMode.COUPLED, master_seed=307
        )
        for name in ("y", "d"):
            assert ks_2samp(worsened[name], getattr(kernel, name)).pvalue > 1e-3, name


class TestWorsenedDelivery:
    """The delivery wait z of the worsened kernel, through the batch engine."""

    def test_m1_is_fresh_exponential(self, session_columns):
        # At m = 1 the tagged packet goes in the only round, so z is its
        # own final hop: Exp(lambda_intra) in both delivery modes.
        params = SchemeParams(8, 1, lambda_intra=2.0)
        for seed, mode in ((401, DeliveryMode.INDEPENDENT), (402, DeliveryMode.COUPLED)):
            z = session_columns(params, 10_000, delivery=mode, master_seed=seed).z
            assert abs(z.mean() - 0.5) < 4 * _se(z), mode
            assert kstest(z, expon(scale=0.5).cdf).pvalue > 1e-3, mode

    def test_independent_mean_matches_closed_form(self, session_columns):
        params = SchemeParams(64, 4)
        z = session_columns(params, 20_000, master_seed=403).z
        assert abs(z.mean() - phase_moments(params).e_z) < 4 * _se(z)

    def test_coupled_never_exceeds_remaining_rounds(self, session_columns):
        params = SchemeParams(64, 4)
        run = session_columns(params, 10_000, delivery=DeliveryMode.COUPLED, master_seed=404)
        assert np.all(run.z <= run.y3)
        assert np.all(run.d <= run.y)

    @pytest.mark.parametrize("n,m", [(1024, 8), (64, 1), (2, 2)])
    def test_models_differ_only_in_the_tagged_round(self, n, m):
        # On the same rows the two models share y1, y2 and z bit for bit:
        # only round j's value, and so y3, can differ.
        params = SchemeParams(n, m)
        u = fill_stream_rows(405, 0, 0, 5000, _worsened_width(params))
        independent = _worsened_kernel(u, params, DeliveryMode.INDEPENDENT)
        coupled = _worsened_kernel(u, params, DeliveryMode.COUPLED)
        for name in ("y1", "y2", "z"):
            assert np.array_equal(independent[name], coupled[name]), name
        assert np.all(coupled["z"] <= coupled["y3"])


class TestPhaseTwo:
    """Phase two drawn per cell and from m gamma quantiles (Renyi)."""

    @pytest.mark.parametrize("n, m", [(64, 4), (64, 1)])
    def test_gamma_quantiles_match_per_cell_law(self, n, m):
        params = SchemeParams(n, m)
        per_cell = _phase_two(make_stream(StreamSpec(411, 0)).random((200_000, n // m)), params)
        gamma = _phase_two(make_stream(StreamSpec(412, 0)).random((200_000, m)), params)
        assert ks_2samp(per_cell, gamma).pvalue > 1e-3

    @pytest.mark.parametrize(
        "n, m, seed", [(64, 4, 417), (1024, 8, 418), (16384, 8, 413), (2**20, 32, 414)]
    )
    def test_gamma_path_moments_match_closed_forms(self, n, m, seed, session_columns):
        params = SchemeParams(n, m)
        assert _phase_two_width(params) == m
        run = session_columns(params, 100_000, master_seed=seed)
        pm = phase_moments(params)
        for arr, expected in ((run.y2, pm.e_y2), (run.y2**2, pm.e_y2_sq)):
            assert abs(arr.mean() - expected) < 4 * _se(arr)

    def test_widths(self):
        # The gamma path starts at max(4 m, 16) cells; below it phase two
        # takes one uniform per cell.
        assert _worsened_width(SchemeParams(1024, 8)) == 27
        assert _worsened_width(SchemeParams(65536, 16)) == 51
        assert _phase_two_width(SchemeParams(32 * 8, 8)) == 8
        assert _phase_two_width(SchemeParams(31 * 8, 8)) == 31
        # At m = 1 the ratio allows 4 cells; the table's shape floor decides.
        assert _phase_two_width(SchemeParams(16, 1)) == 1
        assert _phase_two_width(SchemeParams(15, 1)) == 15
        assert _exact_width(SchemeParams(4096, 8)) == 4096 + 8 + 4096 + 1

    def test_gamma_path_sessions_replay(self, monkeypatch):
        # 96 sessions make 3 batches of 32 in 4-row chunks.
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 1)
        params = SchemeParams(4096, 8)
        cases = [(Variant.WORSENED, mode) for mode in DeliveryMode]
        for variant, mode in cases + [(Variant.EXACT, DeliveryMode.INDEPENDENT)]:
            run = simulate_sessions(
                params, 96, variant=variant, delivery=mode, master_seed=415,
                base_stream_index=2,
            )
            assert [s.count for s in run.batch_summaries] == [32, 32, 32]
            if variant == Variant.WORSENED:
                _assert_replayed_sums(
                    run, lambda u: _worsened_kernel(u, params, mode), _worsened_width(params),
                    monkeypatch,
                )
            else:
                _assert_replayed_sums(
                    run, lambda u: _exact_kernel(u, params), _exact_width(params), monkeypatch
                )

    def test_coupled_sessions_keep_pathwise_bounds(self):
        exact, worsened = sample_coupled_sessions(SchemeParams(4096, 8), 300, master_seed=416)
        assert np.array_equal(exact["y2"], worsened["y2"])
        _assert_pathwise_bounds(exact, worsened)


class TestMomentSummary:
    def test_summaries_stack_into_one_array(self):
        a = MomentSummary(10, 1.0, 2.0, 3.0, 4.0)
        b = MomentSummary(20, 1.5, 2.5, 3.5)
        sums = np.array([a, b], dtype=float)
        assert sums.shape == (2, 5)
        assert sums.sum(axis=0).tolist() == [30, 2.5, 4.5, 6.5, 4.0]

    def test_bit_identical_across_worker_counts(self, fills):
        # 20 000 rows of 15 uniforms make 10 chunks of up to 2184.
        params = SchemeParams(64, 4)
        runs = []
        for workers in (1, 4, 16):
            fills.clear()
            runs.append(simulate_sessions(params, 20_000, master_seed=9, workers=workers))
            assert len(fills) == 10
        assert runs[0].batch_summaries == runs[1].batch_summaries == runs[2].batch_summaries


class TestEstimators:
    def test_degenerate_constants(self):
        y0, d0 = 3.0, 1.25
        summary = MomentSummary(
            count=10,
            sum_y=10 * y0,
            sum_y_sq=10 * y0 * y0,
            sum_d=10 * d0,
        )
        est = estimate_age_moment_formula([summary])
        assert est.delta_hat == pytest.approx(d0 + y0 / 2.0, rel=1e-14)

    def test_moment_formula_matches_closed_form(self):
        params = SchemeParams(256, 8)
        run = simulate_sessions(params, 200_000, master_seed=501)
        est = estimate_age_moment_formula(run.batch_summaries)
        expected = closed_form_age(params).total
        assert est.std_err > 0
        assert abs(est.delta_hat - expected) / expected < 0.01

    def test_halving_rates_doubles_age_exactly(self):
        # Power-of-two rate scaling commutes with every floating-point
        # operation in the inverse-CDF pipeline, so this is exact.
        base = SchemeParams(64, 4, 1.0, 1.0)
        halved = SchemeParams(64, 4, 0.5, 0.5)
        est_base = estimate_age_moment_formula(
            simulate_sessions(base, 5_000, master_seed=502).batch_summaries
        )
        est_halved = estimate_age_moment_formula(
            simulate_sessions(halved, 5_000, master_seed=502).batch_summaries
        )
        assert est_halved.delta_hat == 2.0 * est_base.delta_hat

    def test_rejects_too_few_sessions(self):
        with pytest.raises(ValueError):
            estimate_age_moment_formula([MomentSummary(1, 1.0, 1.0, 1.0)])

    def test_timeline_on_deterministic_sessions(self, monkeypatch):
        # Constant sessions through the batch engine, in 4-row chunks too.
        y0, d0 = 2.0, 0.75
        for budget in (scheme._CHUNK_UNIFORMS, 1):
            monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", budget)
            est = integrate_age_timeline(_constant_run(100, y0, d0))
            assert est.delta_hat == pytest.approx(d0 + y0 / 2.0, rel=1e-12)

    def test_timeline_exact_over_a_million_constant_sessions(self):
        # Areas are taken session by session, not from a running sum of
        # session starts, whose rounding grows with the run.
        est = integrate_age_timeline(_constant_run(10**6, 0.1, 0.03))
        assert est.sessions == 10**6
        assert est.delta_hat == pytest.approx(0.03 + 0.1 / 2.0, rel=1e-13, abs=0.0)

    def test_timeline_matches_column_reference(self, session_columns, monkeypatch):
        # The streamed estimate equals the age integrated piece by piece over
        # one period [0, sum y) of the periodic path, whose sessions repeat
        # the run's: between deliveries the age is t minus the generation
        # time of the freshest update, which at t = 0 is the previous
        # period's last.  Each batch's sum_prev_y_d holds y_{j-1} d_j of its
        # sessions j, the run's first d pairing with its last y, in 4-row
        # chunks too.
        params = SchemeParams(64, 4)
        cols = session_columns(params, 3_000, delivery="coupled", master_seed=14)
        period = cols.y.sum()
        generated = np.cumsum(cols.y) - cols.y
        delivered = generated + cols.d
        assert np.all(np.diff(delivered) >= 0) and delivered[-1] <= period
        starts = np.append(0.0, delivered)
        ends = np.append(delivered, period)
        born = np.append(generated[-1] - period, generated)
        area = 0.5 * ((ends - born) ** 2 - (starts - born) ** 2).sum()

        terms = np.array([cols.y, cols.y**2, cols.d, np.roll(cols.y, 1) * cols.d])
        bounds = scheme._batch_bounds(3_000)
        expected = [
            (b - a, *terms[:, a:b].sum(axis=1)) for a, b in zip(bounds, bounds[1:])
        ]
        for budget in (scheme._CHUNK_UNIFORMS, 1):
            monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", budget)
            run = simulate_sessions(params, 3_000, delivery="coupled", master_seed=14)
            assert len(run.batch_summaries) == 32
            np.testing.assert_allclose(run.batch_summaries, expected, rtol=1e-12, atol=0.0)
            est = integrate_age_timeline(run)
            assert est.delta_hat == pytest.approx(area / period, rel=1e-12, abs=0.0)

    def test_timeline_agrees_with_moment_formula(self):
        params = SchemeParams(256, 8)
        run = simulate_sessions(
            params, 200_000, delivery=DeliveryMode.COUPLED, master_seed=503
        )
        moment = estimate_age_moment_formula(run.batch_summaries)
        timeline = integrate_age_timeline(run)
        gap = abs(timeline.delta_hat - moment.delta_hat) / moment.delta_hat
        assert gap < 0.03
        assert timeline.std_err > 0

    def test_timeline_std_err_needs_two_batches_of_segments(self):
        # The timeline shares the session batches; 64 sessions make 2.
        params = SchemeParams(64, 4)
        for sessions in (2, 63, 64, 1000):
            run = simulate_sessions(params, sessions, delivery="coupled", master_seed=13)
            std_err = integrate_age_timeline(run).std_err
            assert np.isnan(std_err) if sessions < 64 else std_err > 0, sessions

    def test_timeline_std_err_finite_at_64_sessions(self):
        # Two batches of 32 sessions, each with 32 terms y_{j-1} d_j: the
        # first's include the wrap, the last y times the first d.
        y0, d0 = 2.0, 0.75
        run = _constant_run(64, y0, d0)
        assert [s.count for s in run.batch_summaries] == [32, 32]
        assert [s.sum_prev_y_d for s in run.batch_summaries] == [32 * y0 * d0, 32 * y0 * d0]
        est = integrate_age_timeline(run)
        assert est.delta_hat == pytest.approx(d0 + y0 / 2.0, rel=1e-14)
        assert np.isfinite(est.std_err)

    def test_timeline_rejects_late_deliveries(self):
        def kernel(u):
            return {"y": np.array([1.2, 1.2]), "d": np.array([2.2, 0.7])}

        run = scheme._run_batches(kernel, 1, 2, 0, 0, 1, "rate=1.0")
        assert run.late_deliveries == 1
        with pytest.raises(ValueError, match="1 sessions deliver after the session ends"):
            integrate_age_timeline(run)


class TestRoundRobin:
    def test_closed_form_age(self):
        # The literal n + 1 is an oracle independent of round_robin_age.
        for n, sessions in ((4, 200_000), (2, 20_000), (15, 20_000), (16, 20_000), (1024, 20_000)):
            run = simulate_round_robin(n, 1.0, sessions, master_seed=601)
            est = estimate_age_moment_formula(run.batch_summaries)
            for closed in (n + 1, round_robin_age(n, 1.0)):
                assert abs(est.delta_hat - closed) < 4 * est.std_err, (n, closed)

    def test_single_pair(self):
        run = simulate_round_robin(1, 2.0, 100_000, master_seed=602)
        est = estimate_age_moment_formula(run.batch_summaries)
        for closed in (1.0, round_robin_age(1, 2.0)):
            assert abs(est.delta_hat - closed) < 4 * est.std_err

    def test_scalar_sampler_joint_moments(self):
        stream = make_stream(StreamSpec(603, 0))
        n, rate = 6, 1.0
        d, y = np.array([_reference_round_robin(n, rate, stream) for _ in range(50_000)]).T
        assert np.all(d <= y)
        assert abs(y.mean() - n / rate) < 4 * _se(y)
        assert abs(d.mean() - (n + 1) / (2 * rate)) < 4 * _se(d)

    @pytest.mark.parametrize("n", [1, 6, 15, 16, 1024])
    def test_kernel_matches_slot_by_slot_reference_in_law(self, n, round_robin_columns):
        # The kernel draws y as one Gamma(n) quantile (from the table at
        # n >= 16) and d = y v; the reference sums n explicit slots.  Compare
        # d, y - d and the ratio d / y, which is independent of y, across
        # 20 000 sessions.
        rate = 1.5
        run = round_robin_columns(n, rate, 20_000, master_seed=606 + n)
        assert np.all(run.d <= run.y)
        stream = make_stream(StreamSpec(607 + n, 0))
        d, y = np.array([_reference_round_robin(n, rate, stream) for _ in range(20_000)]).T
        assert ks_2samp(run.d, d).pvalue > 1e-3
        assert ks_2samp(run.y - run.d, y - d).pvalue > 1e-3
        assert ks_2samp(run.d / run.y, d / y).pvalue > 1e-3

    def test_batch_matches_scalar_moments(self, round_robin_columns):
        n, rate = 6, 1.0
        run = round_robin_columns(n, rate, 100_000, master_seed=604)
        assert abs(run.y.mean() - n / rate) < 4 * _se(run.y)
        assert abs(run.d.mean() - (n + 1) / (2 * rate)) < 4 * _se(run.d)
        sq = run.y**2
        assert abs(sq.mean() - (n * n + n) / rate**2) < 4 * _se(sq)

    def test_batch_rows_replay_from_session_stream(self, monkeypatch):
        # 96 sessions make 3 batches of 32 in 4-row chunks.
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 1)
        n, rate = 6, 1.0
        run = simulate_round_robin(n, rate, 96, master_seed=605, base_stream_index=1 << 31)
        assert [s.count for s in run.batch_summaries] == [32, 32, 32]
        _assert_replayed_sums(run, lambda u: _round_robin_kernel(u, n, rate), 3, monkeypatch)

    @pytest.mark.parametrize("n", [2**53, 2**64])
    def test_huge_n_matches_closed_form(self, n):
        # At 2^53 noisy table slopes drew negative ages; 2^64 is no uint64.
        run = simulate_round_robin(n, 1.0, 2000, master_seed=608)
        est = estimate_age_moment_formula(run.batch_summaries)
        for closed in (n + 1, round_robin_age(n, 1.0)):
            assert abs(est.delta_hat - closed) < 4 * est.std_err

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_round_robin(0, 1.0, 100)
        with pytest.raises(ValueError):
            simulate_round_robin(3, -1.0, 100)
        for rate in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"rate must be finite and > 0, got {rate}"):
                simulate_round_robin(3, rate, 100)
        with pytest.raises(ValueError, match="the largest float64; got an integer of 1329 bits"):
            simulate_round_robin(10**400, 1.0, 100)

    def test_numpy_integer_n_runs_as_int(self):
        runs = [simulate_round_robin(n, 1.0, 100, master_seed=3) for n in (np.uint16(6), 6)]
        assert runs[0].batch_summaries == runs[1].batch_summaries

    @pytest.mark.parametrize("n", [True, 6.0, np.float64(6)])
    def test_bools_and_floats_refused(self, n):
        message = rf"^n must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            simulate_round_robin(n, 1.0, 100)


class TestSimulateSessions:
    def test_rejects_round_robin_variant(self):
        with pytest.raises(ValueError):
            simulate_sessions(SchemeParams(8, 2), 10, variant="round_robin")

    def test_rejects_zero_sessions(self):
        with pytest.raises(ValueError):
            simulate_sessions(SchemeParams(8, 2), 0)

    def test_rejects_run_past_its_counter_window_before_allocating(self):
        # 2^64 sessions of two or more uniforms do not fit the window of
        # 2^64 draws; the check must refuse the run before any chunk is drawn.
        with pytest.raises(ValueError, match="draws, more than the"):
            simulate_sessions(SchemeParams(65536, 16), 2**64)
        with pytest.raises(ValueError, match="draws, more than the"):
            simulate_round_robin(1024, 1.0, 2**64)

    def test_default_batches_hold_at_least_32_sessions(self):
        params = SchemeParams(64, 4)
        few = simulate_sessions(params, 16, variant=Variant.EXACT, master_seed=12)
        assert [s.count for s in few.batch_summaries] == [16]
        assert few.batch_size == 16
        assert np.isnan(estimate_age_moment_formula(few.batch_summaries).std_err)
        run = simulate_sessions(params, 100, variant=Variant.EXACT, master_seed=12)
        assert [s.count for s in run.batch_summaries] == [33, 33, 34]
        assert run.batch_size == 34
        assert estimate_age_moment_formula(run.batch_summaries).std_err > 0

    def test_sums_bitwise_stable_across_workers(self, fills):
        # (4096, 8) draws phase two from gamma quantiles.  Its worsened runs
        # make 7 and 3 chunks and its exact run 75 chunks of 4 rows, which no
        # worker count above 1 divides; 100 sessions make 33 + 33 + 34.
        cases = [
            lambda w: simulate_sessions(SchemeParams(64, 4), 8_000, master_seed=11, workers=w),
            lambda w: simulate_sessions(SchemeParams(4096, 8), 8_000, master_seed=11, workers=w),
            lambda w: simulate_sessions(
                SchemeParams(4096, 8), 2_500, delivery=DeliveryMode.COUPLED,
                master_seed=11, workers=w,
            ),
            lambda w: simulate_sessions(
                SchemeParams(4096, 8), 300, variant=Variant.EXACT, master_seed=11, workers=w
            ),
            lambda w: simulate_sessions(
                SchemeParams(64, 4), 100, variant=Variant.EXACT, master_seed=11, workers=w
            ),
            lambda w: simulate_round_robin(1024, 1.0, 2_500, master_seed=11, workers=w),
        ]
        batches, chunks = [], []
        for case in cases:
            fills.clear()
            runs = [case(w) for w in (1, 2, 4)]
            batches.append(len(runs[0].batch_summaries))
            chunks.append(len(fills) // 3)
            for run in runs[1:]:
                _assert_same_run(runs[0], run)
        assert batches == [32, 32, 32, 9, 3, 32]
        assert chunks == [4, 7, 3, 75, 1, 1]

    def test_rejects_invalid_worker_counts(self):
        for workers in (0, -5):
            match = f"workers must be >= 1, got {workers}"
            with pytest.raises(ValueError, match=match):
                simulate_sessions(SchemeParams(64, 4), 1000, workers=workers)
            with pytest.raises(ValueError, match=match):
                simulate_round_robin(64, 1.0, 1000, workers=workers)
            # Refused before the window of 2^64 sessions is checked.
            with pytest.raises(ValueError, match=match):
                simulate_sessions(SchemeParams(65536, 16), 2**64, workers=workers)


@pytest.fixture
def executors(monkeypatch):
    """Thread counts of the executors ``_run_batches`` starts, on a machine
    that reports 3 CPUs."""
    started = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(scheme, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(scheme.os, "cpu_count", lambda: 3)
    return started


def _assert_same_run(a, b):
    assert a.batch_summaries == b.batch_summaries
    assert a.late_deliveries == b.late_deliveries


def _assert_regrouped_run(a, b):
    """``a`` and ``b`` reduce the same sessions in other chunks: equal counts,
    and sums that differ only by the grouping of their additions."""
    assert [s.count for s in a.batch_summaries] == [s.count for s in b.batch_summaries]
    np.testing.assert_allclose(a.batch_summaries, b.batch_summaries, rtol=1e-12, atol=0.0)
    assert a.late_deliveries == b.late_deliveries


class TestBatchWorkers:
    # SchemeParams(64, 8) has 8 cells, below the gamma table's shape floor,
    # so phase two stays per cell: rows hold 27 uniforms.  A chunk holds
    # 32768 // 27 = 1213 rows, so 2000 sessions make two chunks, of 1213 and
    # 787 rows.

    def test_threads_bounded_by_cpus_and_batches(self, executors, monkeypatch):
        params = SchemeParams(64, 8)
        serial = simulate_sessions(params, 2000, master_seed=4)
        assert len(serial.batch_summaries) == 32
        two_chunks = simulate_sessions(params, 2000, master_seed=4, workers=10**6)
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 1)  # 4-row chunks
        small_chunks = simulate_sessions(params, 2000, master_seed=4, workers=10**6)
        two = simulate_sessions(params, 8, master_seed=4, workers=10**6)
        # Bounded by the chunks (2), by the 3 CPUs (500 chunks), by the chunks (2).
        assert executors == [2, 3, 2]
        _assert_same_run(serial, two_chunks)
        _assert_regrouped_run(serial, small_chunks)
        assert len(two.batch_summaries) == 1

    def test_batch_error_reaches_caller_and_threads_end(self, executors, monkeypatch):
        kernel = scheme._worsened_kernel

        def failing(u, params, mode):
            if u.shape[0] == 36:  # the second chunk, rows 64 to 99
                raise RuntimeError("kernel failed")
            return kernel(u, params, mode)

        monkeypatch.setattr(scheme, "_worsened_kernel", failing)
        # Room for 64 rows of 27 uniforms a chunk.
        monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", 64 * 27)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="kernel failed"):
            simulate_sessions(SchemeParams(64, 8), 100, workers=2)
        assert executors == [2]
        assert threading.active_count() == before

    def test_batches_run_in_callers_process(self, executors, monkeypatch):
        kernel = scheme._worsened_kernel
        seen = []

        def recording(u, params, mode):
            seen.append((os.getpid(), threading.get_ident()))
            return kernel(u, params, mode)

        monkeypatch.setattr(scheme, "_worsened_kernel", recording)
        caller = (os.getpid(), threading.get_ident())
        params = SchemeParams(64, 8)
        # One worker, or a single chunk, runs inline on the caller's thread:
        # two chunks on one worker, then one chunk of 100 rows and one of 16.
        simulate_sessions(params, 2000, workers=1)
        simulate_sessions(params, 100, workers=2)
        simulate_sessions(params, 16, workers=2)
        assert seen == [caller] * 4
        assert executors == []
        seen.clear()
        simulate_sessions(params, 2000, workers=2)
        assert executors == [2]
        assert len(seen) == 2
        assert {pid for pid, _ in seen} == {os.getpid()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sums_beyond_float64_refused_without_warnings(self, executors, workers):
        # Y^2 overflows at these rates.  Both runs make two chunks, and the
        # threads warn of nothing: each sets its own floating-point state.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                "the simulated sums at lambda_intra=1e-152, lambda_inter=1.0 "
                "leave the float64 range"
            )):
                simulate_sessions(SchemeParams(64, 8, lambda_intra=1e-152), 2000, workers=workers)
            with pytest.raises(ValueError, match=re.escape(
                "the simulated sums at rate=1e-300 leave the float64 range"
            )):
                simulate_round_robin(8, 1e-300, 20_000, workers=workers)
        assert executors == ([] if workers == 1 else [2, 2])

    def test_more_threads_than_cores_under_fast_switching(self, executors, fills, monkeypatch):
        # Eight threads on any machine, switching every microsecond: a chunk
        # merged out of order would show.
        monkeypatch.setattr(scheme.os, "cpu_count", lambda: 8)
        params = SchemeParams(256, 32)
        serial = simulate_sessions(params, 4096, master_seed=6)
        # 8 cells keep phase two per cell: rows of 75 uniforms make 10 chunks
        # of up to 436 rows across 32 batches of 128.
        assert len(fills) == 10
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = simulate_sessions(params, 4096, master_seed=6, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert executors == [8]
        _assert_same_run(serial, threaded)


# Runs that cover each kernel and delivery mode, rows wider than a chunk's
# budget, the sweep-quarter points and 100 sessions, which 32 does not divide.
_CHUNK_CASES = {
    "worsened-independent": lambda w: simulate_sessions(
        SchemeParams(1024, 8), 2000, master_seed=11, workers=w),
    "worsened-coupled": lambda w: simulate_sessions(
        SchemeParams(1024, 8), 2000, delivery="coupled", master_seed=11, workers=w),
    "exact": lambda w: simulate_sessions(
        SchemeParams(64, 4), 2000, variant="exact", master_seed=11, workers=w),
    "exact-wide": lambda w: simulate_sessions(
        SchemeParams(1024, 8), 300, variant="exact", master_seed=11, workers=w),
    "round-robin": lambda w: simulate_round_robin(1024, 1.0, 20_000, master_seed=11, workers=w),
    "quarter-4096": lambda w: simulate_sessions(
        SchemeParams(4096, 8), 10_000, master_seed=12, base_stream_index=1, workers=w),
    "quarter-16384": lambda w: simulate_sessions(
        SchemeParams(16384, 8), 10_000, master_seed=12, base_stream_index=3, workers=w),
    "quarter-65536": lambda w: simulate_sessions(
        SchemeParams(65536, 16), 10_000, master_seed=12, base_stream_index=5, workers=w),
    "remainder": lambda w: simulate_sessions(SchemeParams(64, 4), 100, master_seed=11, workers=w),
}


class TestChunkPlan:
    @pytest.mark.parametrize("case", sorted(_CHUNK_CASES))
    def test_outputs_identical_across_chunk_plans(self, case, monkeypatch):
        # Each chunk plan gives the same sums on any worker count.  Chunks
        # reduce their own rows, so another plan regroups the additions:
        # its sums move by rounding only.
        monkeypatch.setattr(scheme.os, "cpu_count", lambda: 4)
        reference = _CHUNK_CASES[case](1)
        counts = [s.count for s in reference.batch_summaries]
        if case == "remainder":
            assert counts == [33, 33, 34]
        if case == "exact-wide":  # 9 batches across chunks of 15 rows
            assert counts == [33, 33, 34, 33, 33, 34, 33, 33, 34]
        default = scheme._CHUNK_UNIFORMS
        for budget in (1, default, 2**40):
            monkeypatch.setattr(scheme, "_CHUNK_UNIFORMS", budget)
            plan = _CHUNK_CASES[case](1)
            for workers in (2, 4):
                _assert_same_run(plan, _CHUNK_CASES[case](workers))
            if budget == default:
                _assert_same_run(reference, plan)
            else:
                _assert_regrouped_run(reference, plan)

    @pytest.mark.parametrize("case", ["exact-wide", "quarter-4096", "round-robin", "remainder"])
    def test_chunks_cover_whole_batches_within_budget(self, case, fills, monkeypatch):
        # Chunks are runs of rows, apart from the batches: they tile the run
        # in order, each holds at most max(budget, 4 rows) uniforms,
        # each but the last is as long as that allows, and the plan is the
        # same for any worker count.
        monkeypatch.setattr(scheme.os, "cpu_count", lambda: 4)
        plans = []
        for workers in (1, 2, 4):
            fills.clear()
            run = _CHUNK_CASES[case](workers)
            plans.append(sorted(fills))
        assert plans[0] == plans[1] == plans[2]

        width = plans[0][0][2]
        room = max(scheme._CHUNK_UNIFORMS, 4 * width)
        position = 0
        for first, rows, _ in plans[0]:
            assert first == position  # chunks tile the run in order
            assert rows * width <= room
            if first + rows < run.sessions:  # one more row would not fit
                assert (rows + 1) * width > room
            position += rows
        assert position == run.sessions
        expected = {
            "exact-wide": (20, 15), "quarter-4096": (9, 1213),
            "round-robin": (2, 10_922), "remainder": (1, 100),
        }
        assert (len(plans[0]), plans[0][0][1]) == expected[case]

    def test_widest_rows_fill_four_at_a_time(self, fills):
        # An exact (65536, 16) row holds 131 089 uniforms, 1 MiB: each fill
        # holds the 4-row floor, not a 32-session batch.
        simulate_sessions(SchemeParams(65536, 16), 64, variant="exact", master_seed=3)
        assert [rows for _, rows, _ in fills] == [4] * 16


class TestBatchBounds:
    def test_near_equal_batches_of_at_least_32(self):
        for count in [*range(1, 5001), 10**6 + 7, 2**40]:
            bounds = scheme._batch_bounds(count)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == count
            assert sizes.size == min(32, max(1, count // 32))
            assert sizes.max() - sizes.min() <= 1
            assert sizes.size == 1 or sizes.min() >= 32
