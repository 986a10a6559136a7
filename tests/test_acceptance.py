"""End-to-end acceptance criteria.

Each test prints one ``[acceptance] criterion N ... PASS`` line with the
measured values (run pytest with ``-s`` to see them as they complete).
Monte Carlo checks use fixed seeds, so outcomes are reproducible.
"""

import time
from math import log, sqrt

import numpy as np

from aoilab import (
    DeliveryMode,
    SchemeParams,
    closed_form_age,
    estimate_age_moment_formula,
    integrate_age_timeline,
    make_stream,
    order_stat_moments,
    phase_moments,
    sample_coupled_sessions,
    scaling_exponent,
    simulate_round_robin,
    simulate_sessions,
)
from aoilab.expcli import SweepConfig, SweepRow, divisor_adjusted_m, fit_slope, main, run_sweep
from aoilab.geometry import (
    GUARD_ZONE_LIMIT,
    build_cells,
    check_protocol_model,
    corner_case_witness,
    place_nodes,
    same_cell_transmissions,
    tdma_groups,
)
from aoilab.sampling import StreamSpec


def _report(number, message):
    print(f"[acceptance] criterion {number}: PASS ({message})")


def test_criterion_1_order_statistic_moments():
    """Brute-force order statistics vs the closed-form moments, 1e7 draws."""
    started = time.perf_counter()
    rng = np.random.default_rng(977001)
    draws_total = 10**7
    chunk = 10**6
    worst = 0.0
    for k, n in [(1, 5), (3, 3), (5, 10), (10, 10)]:
        kth = np.empty(draws_total)
        for i in range(draws_total // chunk):
            block = rng.standard_exponential((chunk, n))
            kth[i * chunk : (i + 1) * chunk] = np.partition(block, k - 1, axis=1)[:, k - 1]
        for rate in (0.5, 1.0, 2.0):
            scaled = kth / rate
            expected = order_stat_moments(k, n, rate)
            se_mean = scaled.std(ddof=1) / sqrt(scaled.size)
            dev_mean = abs(scaled.mean() - expected.mean) / se_mean
            centered = scaled - scaled.mean()
            sample_var = scaled.var(ddof=1)
            m4 = np.mean(np.square(np.square(centered)))  # pow on negative doubles is slow
            se_var = sqrt(max(m4 - sample_var**2, 0.0) / scaled.size)
            dev_var = abs(sample_var - expected.variance) / se_var
            assert dev_mean < 4.0, (k, n, rate, "mean", dev_mean)
            assert dev_var < 4.0, (k, n, rate, "variance", dev_var)
            worst = max(worst, dev_mean, dev_var)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    _report(1, f"12 parameter combos, worst deviation {worst:.2f} se, {elapsed:.1f}s")


def test_criterion_2_phase_moments(session_columns):
    """Worsened-session phase moments vs closed forms at four points."""
    worst = 0.0
    for idx, (n, m, lam, lam_t) in enumerate(
        [(64, 4, 1.0, 1.0), (256, 8, 1.0, 1.0), (1024, 8, 1.0, 2.0), (4096, 16, 2.0, 1.0)]
    ):
        params = SchemeParams(n, m, lam, lam_t)
        started = time.perf_counter()
        # The sessions simulate_sessions draws, as columns (a run keeps sums).
        run = session_columns(params, 10**6, master_seed=977100 + idx)
        pm = phase_moments(params)
        checks = [
            (run.y1, pm.e_y1, "e_y1"),
            (run.y2, pm.e_y2, "e_y2"),
            (run.y3, pm.e_y3, "e_y3"),
            (run.y1**2, pm.e_y1_sq, "e_y1_sq"),
            (run.y2**2, pm.e_y2_sq, "e_y2_sq"),
            (run.y3**2, pm.e_y3_sq, "e_y3_sq"),
            (run.z, pm.e_z, "e_z"),
        ]
        for arr, expected, name in checks:
            se = arr.std(ddof=1) / sqrt(arr.size)
            dev = abs(arr.mean() - expected) / se
            assert dev < 4.0, (n, m, name, dev)
            worst = max(worst, dev)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"point ({n},{m}) took {elapsed:.1f}s, budget 120s"
    _report(2, f"4 points x 7 moments, worst deviation {worst:.2f} se")


def test_criterion_3_closed_form_age_end_to_end():
    """Moment-formula estimate reproduces the closed-form age within 1%."""
    results = []
    adjusted = divisor_adjusted_m(1024, 6.0)
    assert adjusted == 8  # the requested m=6 adjusts to the nearest divisor
    for n, m, seed in [(1024, adjusted, 977200), (4096, 8, 977201)]:
        params = SchemeParams(n, m)
        run = simulate_sessions(params, 10**6, master_seed=seed)
        estimate = estimate_age_moment_formula(run.batch_summaries)
        expected = closed_form_age(params).total
        rel = abs(estimate.delta_hat - expected) / expected
        assert rel < 0.01, (n, m, rel)
        results.append(f"(n={n}, m={m}): {rel:.4%}")
    _report(3, "relative errors " + ", ".join(results))


def test_criterion_4_pathwise_coupling_bounds():
    """Path-wise phase bounds on 1e4 coupled session pairs, zero tolerance."""
    exact, worsened = sample_coupled_sessions(SchemeParams(256, 8), 10**4, master_seed=977300)
    violations = np.count_nonzero((exact["y1"] > worsened["y1"]) | (exact["y3"] > worsened["y3"]))
    assert violations == 0
    _report(4, "0 violations of exact<=worsened in 10^4 coupled pairs")


def test_criterion_5_scaling_law():
    """Quarter-exponent scaling of the scheme vs linear baseline growth."""
    started = time.perf_counter()
    b = 0.25
    full_grid = [2**k for k in range(8, 21, 2)]
    sim_grid = tuple(n for n in full_grid if n <= 2**16)

    config = SweepConfig(n_grid=sim_grid, b=b, sessions=10**5, master_seed=977400)
    rows = run_sweep(config, timing=False)
    for row in rows:  # simulated column validates the analytic one
        assert abs(row.delta_sim - row.delta_analytic) <= 5.0 * row.delta_sim_stderr, row.n

    for n in full_grid:
        if n in sim_grid:
            continue
        m = divisor_adjusted_m(n, float(n) ** b)
        rows.append(
            SweepRow(
                n=n, m=m, b_effective=log(m) / log(n), sessions=0,
                delta_analytic=closed_form_age(SchemeParams(n, m)).total,
                delta_sim=None, delta_sim_stderr=None,
            )
        )

    fit = fit_slope(rows, "delta_analytic")
    corrected, uncorrected = fit.log_corrected_exponent, fit.exponent
    assert 0.24 <= corrected <= 0.30, corrected
    assert 0.25 <= uncorrected <= 0.40, uncorrected

    rr_rows = []
    for i, n in enumerate([2**k for k in range(4, 15)]):
        run = simulate_round_robin(n, 1.0, 10**5, master_seed=977401, base_stream_index=i << 32)
        est = estimate_age_moment_formula(run.batch_summaries)
        rr_rows.append(
            SweepRow(
                n=n, m=1, b_effective=0.0, sessions=10**5, delta_analytic=None,
                delta_sim=None, delta_sim_stderr=None, delta_baseline=est.delta_hat,
            )
        )
    rr_exponent = fit_slope(rr_rows, "delta_baseline").exponent
    assert 0.95 <= rr_exponent <= 1.05, rr_exponent

    assert corrected < uncorrected
    assert rr_exponent - corrected >= 0.5
    assert rr_exponent - uncorrected >= 0.5

    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"runtime {elapsed:.1f}s exceeds 15min budget"
    _report(
        5,
        f"corrected={corrected:.4f} uncorrected={uncorrected:.4f} "
        f"round_robin={rr_exponent:.4f}, {elapsed:.0f}s",
    )


def test_criterion_6_exponent_regime():
    """Fitted analytic exponents order like max(b, 1-3b), minimal at 1/4."""
    grid = [2**k for k in range(8, 21, 2)]
    fitted = {}
    for b in (0.1, 0.25, 0.5, 1.0):
        rows = []
        for n in grid:
            m = divisor_adjusted_m(n, float(n) ** b)
            rows.append(
                SweepRow(
                    n=n, m=m, b_effective=log(m) / log(n), sessions=0,
                    delta_analytic=closed_form_age(SchemeParams(n, m)).total,
                    delta_sim=None, delta_sim_stderr=None,
                )
            )
        fitted[b] = fit_slope(rows, "delta_analytic").log_corrected_exponent
    by_fit = sorted(fitted, key=fitted.get)
    by_prediction = sorted(fitted, key=scaling_exponent)
    assert by_fit == by_prediction, (by_fit, by_prediction)
    assert by_fit[0] == 0.25
    summary = ", ".join(f"b={b}: {fitted[b]:.3f}" for b in sorted(fitted))
    _report(6, summary)


def test_criterion_7_protocol_model():
    """9-TDMA same-cell links: clean at the guard limit, witness beyond it."""
    started = time.perf_counter()
    n, m, area = 100, 4, 1.0
    grid = build_cells(n, m, area)
    groups = tdma_groups(grid)
    stream = make_stream(StreamSpec(977500, 0))
    total_links = 0
    for _ in range(1000):
        topology = place_nodes(n, area, stream).with_cells(grid)
        for group in groups.groups:
            transmissions = same_cell_transmissions(topology, group)
            total_links += len(transmissions)
            violations = check_protocol_model(topology, transmissions, GUARD_ZONE_LIMIT)
            assert violations == []

    topo, transmissions = corner_case_witness(area=area)
    witness = check_protocol_model(topo, transmissions, GUARD_ZONE_LIMIT + 0.05)
    assert len(witness) >= 1
    assert all(v.margin < 0 for v in witness)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1min budget"
    _report(
        7,
        f"0 violations across 1000 topologies ({total_links} links); "
        f"witness at gamma+0.05 violates, {elapsed:.1f}s",
    )


def test_criterion_8_determinism_across_worker_counts(tmp_path):
    """Identical seed and varying worker counts give byte-identical CSVs."""
    outputs = {}
    for workers in (1, 4, 16):
        out_dir = tmp_path / f"workers{workers}"
        code = main(
            [
                "sweep", "--n-grid", "64,256", "--b", "0.25", "--sessions", "2000",
                "--seed", "977600", "--baseline", "--workers", str(workers),
                "--no-timing", "--out", str(out_dir),
            ]
        )
        assert code == 0
        outputs[workers] = (
            (out_dir / "sweep.csv").read_bytes(),
            (out_dir / "summary.txt").read_bytes(),
        )
    assert outputs[1] == outputs[4] == outputs[16]
    _report(8, "sweep.csv and summary.txt byte-identical for workers 1, 4, 16")


def test_criterion_9_moment_vs_timeline():
    """Both age estimators agree on coupled sessions; the gap is recorded."""
    adjusted = divisor_adjusted_m(1024, 6.0)
    params = SchemeParams(1024, adjusted)
    run = simulate_sessions(
        params, 10**6, delivery=DeliveryMode.COUPLED, master_seed=977700
    )
    moment = estimate_age_moment_formula(run.batch_summaries)
    timeline = integrate_age_timeline(run)
    gap = abs(timeline.delta_hat - moment.delta_hat) / moment.delta_hat
    assert gap < 0.03, gap
    _report(
        9,
        f"moment={moment.delta_hat:.4f} timeline={timeline.delta_hat:.4f} "
        f"measured gap {gap:.5%} (within 3%)",
    )
