"""Sweep harness, slope fitting, report emission, and the CLI surface."""

import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import aoilab
from aoilab import (
    SchemeParams,
    closed_form_age,
    estimate_age_moment_formula,
    expcli,
    round_robin_age,
    simulate_sessions,
)
from aoilab.expcli import (
    _BASELINE_OFFSET,
    _POINT_STRIDE,
    SWEEP_CSV_COLUMNS,
    SweepConfig,
    SweepRow,
    divisor_adjusted_m,
    emit_report,
    fit_slope,
    load_sweep_config,
    main,
    run_sweep,
)
from aoilab.sampling import stream_window
from aoilab.scheme import _ROUND_ROBIN_WIDTH, _exact_width, _worsened_width


class TestDivisorAdjustment:
    def test_ratio_nearest_divisor(self):
        # 8/6 is closer in ratio than 6/4, so 6 adjusts up to 8
        assert divisor_adjusted_m(1024, 6.0) == 8

    def test_exact_divisor_kept(self):
        assert divisor_adjusted_m(256, 4.0) == 4
        assert divisor_adjusted_m(4096, 8.0) == 8

    def test_tie_goes_to_smaller(self):
        # 1024**0.25 sits exactly between divisors 4 and 8 in log distance
        assert divisor_adjusted_m(1024, 1024**0.25) == 4

    def test_no_divisor_in_window(self):
        assert divisor_adjusted_m(101, 101**0.5) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            divisor_adjusted_m(0, 1.0)
        with pytest.raises(ValueError):
            divisor_adjusted_m(16, 0.0)

    @staticmethod
    def _by_trial_division(n, target):
        # The scan of every i up to isqrt(n) that the window scan replaced.
        lo, hi = 0.5 * target, 1.5 * target
        candidates = []
        for i in range(1, math.isqrt(n) + 1):
            if n % i == 0:
                for d in (i, n // i):
                    if lo <= d <= hi:
                        candidates.append(d)
        if not candidates:
            return None
        log_t = math.log(target)
        dist = {d: abs(math.log(d) - log_t) for d in set(candidates)}
        best = min(dist.values())
        return min(d for d in dist if dist[d] <= best + 1e-12)

    @pytest.mark.parametrize("b", [0.2, 0.25, 1 / 3, 0.5, 0.75])
    def test_window_scan_equals_trial_division(self, b):
        for n in range(1, 5001):
            assert divisor_adjusted_m(n, n**b) == self._by_trial_division(n, n**b), n

    def test_window_too_large_to_scan_refused(self):
        with pytest.raises(ValueError, match=r"would try 1e\+75 integers, more than the 10000000"):
            divisor_adjusted_m(10**300, 10**75)


class TestSweepConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(256, 256))
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(1024, 256))

    def test_sessions_floor(self):
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(64,), sessions=999)

    def test_b_range(self):
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(64,), b=0.0)

    @pytest.mark.parametrize("grid", [(1, 2, 4, 8), (0, 64), (-4,)])
    def test_grid_values_below_two_rejected(self, grid):
        # A node is never its own destination, so the model needs n >= 2.
        with pytest.raises(ValueError, match=rf"n_grid values must be >= 2 .* got {grid[0]}$"):
            SweepConfig(n_grid=grid)
        SweepConfig(n_grid=(2, 4, 8))

    def test_json_config_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "n_grid": [64, 256],
                    "b": 0.25,
                    "sessions": 2000,
                    "master_seed": 5,
                    "variant": "worsened",
                    "delivery_mode": "independent",
                    "baseline": True,
                }
            )
        )
        config = load_sweep_config(path)
        assert config.n_grid == (64, 256)
        assert config.baseline is True

    def test_integral_floats_load_as_integers(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"n_grid": [64, 2.56e2], "sessions": 1e5, "master_seed": 7.0}')
        config = load_sweep_config(path)
        assert (config.n_grid, config.sessions, config.master_seed) == ((64, 256), 100_000, 7)
        assert all(type(v) is int for v in (*config.n_grid, config.sessions, config.master_seed))
        assert type(SweepConfig(n_grid=(64,), sessions=1e5).sessions) is int

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"n_grid": [64], "speed": 11}')
        with pytest.raises(ValueError, match=rf"config {path}: unknown keys \['speed'\]"):
            load_sweep_config(path)

    @pytest.mark.parametrize(
        "text", ['{"n_grid": 64, "sessions": 1000}', '{"n_grid": [64], "sessions": null}']
    )
    def test_wrongly_typed_json_values_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(text)
        key = "n_grid" if '"n_grid": 64' in text else "sessions"
        with pytest.raises(ValueError, match=f"config {path}: bad value for '{key}'"):
            load_sweep_config(path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"bad value for '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_grid", [64.9, 256]), ("sessions", 1500.9), ("baseline", 1),
            ("b", "0.5"), ("master_seed", True), ("n_grid", "64,256"),
            pytest.param("b", 10**400, id="b-10**400"),  # float() overflows
        ],
    )
    def test_values_of_the_wrong_type_refused(self, key, value, tmp_path, capsys):
        # No value is truncated or cast: 64.9 is not the grid point 64, nor is 1 a bool.
        values = {"n_grid": [64, 256], "sessions": 1500, key: value}
        with pytest.raises(ValueError, match=f"^bad value for '{key}': "):
            SweepConfig(**values)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(values))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert f"config {path}: bad value for '{key}': " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("n_grid=64,256\nsessions=1500\n", "Expecting value"),  # key=value lines
            ("[64, 256]", "expected a JSON object"),
            ('{"sessions": 1500}', "missing 1 required positional argument: 'n_grid'"),
        ],
    )
    def test_file_that_is_not_a_sweep_object_exits_2(self, text, reason, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config {path}: " in err and reason in err
        assert not out.exists()


    def test_infinite_rate_in_a_file_refused_before_anything_is_logged(
        self, tmp_path, capsys, caplog
    ):
        # Python's json reads Infinity; the refusal names the file.
        path = tmp_path / "sweep.json"
        path.write_text('{"n_grid": [64, 256, 1024], "sessions": 1000, "lambda_intra": Infinity}')
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO, logger="aoilab.expcli"):
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config {path}: lambda_intra must be finite and > 0, got inf\n"
        )
        assert not caplog.records
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lambda-intra", "--lambda-inter"])
    def test_infinite_rate_flag_refused_before_anything_is_logged(
        self, flag, tmp_path, capsys, caplog
    ):
        out = tmp_path / "o"
        argv = ["sweep", "--n-grid", "64,256,1024", "--sessions", "1000", flag, "inf"]
        with caplog.at_level(logging.INFO, logger="aoilab.expcli"):
            assert main([*argv, "--out", str(out)]) == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite and > 0, got inf\n"
        assert not caplog.records
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "master_seed must be >= 0, got -1"),
            (["--seed", str(2**64)], f"master_seed must fit in 64 bits, got {2**64}"),
            (["--workers", "0"], "workers must be >= 1, got 0"),
        ],
    )
    def test_bad_seed_or_workers_refused_before_anything_is_logged(
        self, flags, message, tmp_path, capsys, caplog
    ):
        # n = 64 and 16384 would each log an adjusted m.
        out = tmp_path / "o"
        argv = ["sweep", "--n-grid", "64,256,16384", "--sessions", "1000", *flags]
        with caplog.at_level(logging.INFO, logger="aoilab.expcli"):
            assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not caplog.records
        assert not out.exists()

    @pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
    def test_rates_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match=f"^lambda_inter must be finite and > 0, got {rate}$"):
            SweepConfig(n_grid=(64,), lambda_inter=rate)


class TestRunSweep:
    def test_single_point_equals_direct_simulation(self):
        config = SweepConfig(n_grid=(64,), b=1.0 / 3.0, sessions=2000, master_seed=3)
        row = run_sweep(config, timing=False)[0]
        assert row.m == 4
        params = SchemeParams(64, 4)
        run = simulate_sessions(params, 2000, master_seed=3, base_stream_index=0)
        est = estimate_age_moment_formula(run.batch_summaries)
        assert row.delta_sim == est.delta_hat
        assert row.delta_analytic == closed_form_age(params).total
        assert row.wall_time_s is None

    def test_rerun_is_deterministic(self):
        config = SweepConfig(n_grid=(64, 256), sessions=1500, master_seed=9, baseline=True)
        rows_a = run_sweep(config, timing=False)
        rows_b = run_sweep(config, timing=False)
        assert rows_a == rows_b

    def test_point_without_divisor_refused_before_simulating(
        self, monkeypatch, tmp_path, capsys, caplog
    ):
        # 17 is prime: no divisor lies within 50% of 17^(1/4) = 2.03.  The
        # sweep's config refuses the grid, so no point runs, nothing is
        # logged and nothing is written; a config file is named.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate_sessions(*args, **kwargs)

        monkeypatch.setattr(expcli, "simulate_sessions", counted)
        reason = "no divisor of n=17 within 50% of n^b=2.031"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            SweepConfig(n_grid=(17, 64, 256), b=0.25, sessions=1000)
        path = tmp_path / "sweep.json"
        path.write_text('{"n_grid": [17, 64, 256]}')
        out = tmp_path / "o"
        flags = ["--n-grid", "17,64,256", "--b", "0.25", "--sessions", "1000"]
        for args, prefix in ((flags, ""), (["--config", str(path)], f"config {path}: ")):
            with caplog.at_level(logging.INFO, logger="aoilab.expcli"):
                assert main(["sweep", *args, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {prefix}{reason}\n"
            assert not caplog.records
            assert not out.exists() and calls == []

    def test_stream_windows_are_disjoint(self):
        # Every point of a b = 1/4 sweep up to n = 2^20, both variants, at the
        # most sessions one window can hold for the widest row among them.
        grid = [2**k for k in range(8, 21)]
        points = []
        for n in grid:
            params = SchemeParams(n, divisor_adjusted_m(n, n**0.25))
            points.append(max(_worsened_width(params), _exact_width(params)))
        sessions = 2**64 // max(points)
        windows = []
        for i, width in enumerate(points):
            windows.append(stream_window(i * _POINT_STRIDE, sessions, width))
            windows.append(
                stream_window(i * _POINT_STRIDE + _BASELINE_OFFSET, sessions, _ROUND_ROBIN_WIDTH)
            )
        windows.sort()
        assert all(stop > start for start, stop in windows)
        assert all(a[1] <= b[0] for a, b in zip(windows, windows[1:]))

    def test_quarter_exponent_beyond_2_16(self):
        # Phase two draws m gamma quantiles here, so rows stay 51 and 99 wide.
        config = SweepConfig(n_grid=(2**18, 2**20), b=0.25, sessions=10_000, master_seed=18)
        rows = run_sweep(config, timing=False)
        assert [row.m for row in rows] == [16, 32]
        for row in rows:
            assert abs(row.delta_sim - row.delta_analytic) < 5 * row.delta_sim_stderr

    def test_five_se_warning_covers_both_delivery_modes(self, caplog, monkeypatch):
        # Both delivery modes keep the marginals of D and Y, all the closed
        # form needs; it bounds the exact variant but is not its age.  The
        # turn-taking closed form is the baseline's own age.
        def offset(params):
            return SimpleNamespace(total=closed_form_age(params).total + 10.0)

        monkeypatch.setattr(expcli, "closed_form_age", offset)
        monkeypatch.setattr(expcli, "round_robin_age", lambda n, r: round_robin_age(n, r) + 10.0)
        cases = [("worsened", "independent", False, True), ("worsened", "coupled", False, True),
                 ("exact", "independent", False, False), ("exact", "independent", True, True)]
        for variant, delivery, baseline, warns in cases:
            caplog.clear()
            config = SweepConfig(
                n_grid=(64,), sessions=2000, master_seed=5, variant=variant,
                delivery_mode=delivery, baseline=baseline,
            )
            with caplog.at_level(logging.WARNING, logger="aoilab.expcli"):
                run_sweep(config, timing=False)
            warned = any("5 standard errors" in r.getMessage() for r in caplog.records)
            assert warned == warns, (variant, delivery, baseline)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="aoilab.expcli"):
            assert main(["baseline", "--n", "64", "--sessions", "2000", "--seed", "5"]) == 0
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["n=64 turn-taking"]

    def test_point_runner_calls_the_names_the_benchmark_observes(self, monkeypatch):
        # The sweep-quarter benchmark replaces these names in expcli and reads
        # each run's workers keyword, so the runner looks them up when it is
        # called: per point the closed form, the scheme run, then the baseline's.
        calls = []

        def recorded(name):
            function = getattr(expcli, name)

            def record(*args, **kwargs):
                calls.append((name, kwargs.get("workers")))
                return function(*args, **kwargs)

            return record

        names = ("closed_form_age", "simulate_sessions", "round_robin_age", "simulate_round_robin")
        for name in names:
            monkeypatch.setattr(expcli, name, recorded(name))
        config = SweepConfig(n_grid=(64, 256), sessions=1000, master_seed=6, baseline=True)
        run_sweep(config, workers=2, timing=False)
        per_point = [(names[0], None), (names[1], 2), (names[2], None), (names[3], 2)]
        assert calls == per_point * 2

    def test_timeline_column_only_for_coupled(self):
        base = dict(n_grid=(64,), sessions=1000, master_seed=2)
        independent = run_sweep(SweepConfig(**base), timing=False)[0]
        coupled = run_sweep(
            SweepConfig(**base, delivery_mode="coupled"), timing=False
        )[0]
        assert independent.delta_timeline is None
        assert coupled.delta_timeline is not None


class TestFitSlope:
    def _rows(self, ns, values):
        return [
            SweepRow(
                n=int(n), m=1, b_effective=0.0, sessions=1000,
                delta_analytic=float(v), delta_sim=None, delta_sim_stderr=None,
            )
            for n, v in zip(ns, values)
        ]

    def test_pure_power_law(self):
        ns = np.array([2**k for k in range(4, 15)])
        rows = self._rows(ns, 3.7 * ns.astype(float))
        fit = fit_slope(rows, "delta_analytic")
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.fit_range == (16, 16384)

    def test_log_correction_removes_log_factor(self):
        ns = np.array([2**k for k in range(4, 20)], dtype=float)
        rows = self._rows(ns, 0.8 * ns**0.25 * np.log(ns))
        fit = fit_slope(rows, "delta_analytic")
        assert fit.log_corrected_exponent == pytest.approx(0.25, abs=1e-6)

    def test_uncorrected_fit_still_reports_corrected_exponent(self):
        ns = np.array([2**k for k in range(4, 20)], dtype=float)
        rows = self._rows(ns, 0.8 * ns**0.25 * np.log(ns))
        fit = fit_slope(rows, "delta_analytic")
        assert fit.log_corrected_exponent == pytest.approx(0.25, abs=1e-6)
        assert fit.exponent > fit.log_corrected_exponent

    def test_rejects_n_below_two_without_warnings(self):
        # log(log 1) is -inf: the fit must refuse n = 1, not report nan.
        rows = self._rows([1, 2, 4, 8], [1.0, 2.0, 3.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs n >= 2, got n = 1"):
                fit_slope(rows, "delta_analytic")

    def test_rejects_non_positive_and_short_input(self):
        rows = self._rows([16, 32, 64], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            fit_slope(rows, "delta_analytic")
        with pytest.raises(ValueError):
            fit_slope(rows[:2], "delta_analytic")


class TestEmitReport:
    def _rows(self):
        ns = [16, 64, 256]
        return [
            SweepRow(
                n=n, m=4, b_effective=0.5, sessions=1000,
                delta_analytic=float(n), delta_sim=1.5 * n, delta_sim_stderr=0.01,
                delta_timeline=None, delta_baseline=None, wall_time_s=None,
            )
            for n in ns
        ]

    def test_csv_round_trip(self, tmp_path):
        # Each cell is its field's repr, or empty for None, in column order.
        rows = self._rows()
        paths = emit_report(rows, [], tmp_path / "out", b=0.5)
        with open(paths[0], newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == list(SWEEP_CSV_COLUMNS)
        assert records[1:] == [
            ["" if value is None else repr(value) for value in astuple(row)] for row in rows
        ]

    def test_csv_round_trip_of_every_column_and_empty_cells(self, tmp_path):
        # Every field set, and a row with only the optional cells empty.
        full = SweepRow(
            n=4096, m=8, b_effective=0.25, sessions=1000, delta_analytic=191.5,
            delta_sim=191.25, delta_sim_stderr=0.125, delta_timeline=191.0,
            delta_baseline=4097.5, wall_time_s=0.75,
        )
        sparse = SweepRow(
            n=64, m=4, b_effective=1 / 3, sessions=1000,
            delta_analytic=44.5, delta_sim=44.25, delta_sim_stderr=0.5,
        )
        paths = emit_report([full, sparse], [], tmp_path / "out", b=0.25)
        assert paths[0].read_text().splitlines()[1:] == [
            "4096,8,0.25,1000,191.5,191.25,0.125,191.0,4097.5,0.75",
            "64,4,0.3333333333333333,1000,44.5,44.25,0.5,,,",
        ]

    def test_no_fit_requested_note(self, tmp_path):
        paths = emit_report(self._rows(), [], tmp_path / "out", b=0.5)
        assert "no fit requested" in paths[1].read_text()

    def test_summary_matches_fit_to_six_decimals(self, tmp_path):
        rows = self._rows()
        fit = fit_slope(rows, "delta_analytic")
        paths = emit_report(rows, [fit], tmp_path / "out", b=0.25)
        text = paths[1].read_text()
        assert f"exponent={fit.exponent:.6f}" in text
        assert "max(b, 1-3b) = 0.250000" in text

    def test_header_exact(self, tmp_path):
        paths = emit_report(self._rows(), [], tmp_path / "out", b=0.5)
        header = paths[0].read_text().splitlines()[0]
        assert header == (
            "n,M,b_effective,sessions,delta_analytic,delta_sim,delta_sim_stderr,"
            "delta_timeline,delta_baseline,wall_time_s"
        )

    def test_io_failure_raises_oserror(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(OSError):
            emit_report(self._rows(), [], target / "sub", b=0.5)


class TestCli:
    def test_analyze_prints_breakdown(self, capsys):
        assert main(["analyze", "--n", "64", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "total=44.6080485" in out
        assert "mean_phase1" in out

    def test_analyze_with_exponent_flag(self, capsys):
        assert main(["analyze", "--n", "1024", "--b", "0.25"]) == 0
        assert "m=4" in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        assert main(["analyze", "--n", "64"]) == 1  # neither --m nor --b
        assert main(["frobnicate"]) == 1
        assert main(["analyze", "--n", "64", "--m", "4", "--b", "0.5"]) == 1
        # The estimators follow the model; there is no flag to choose them.
        assert main(["simulate", "--n", "64", "--m", "4", "--estimator", "both"]) == 1
        assert "unrecognized arguments: --estimator both" in capsys.readouterr().err

    def test_validation_error_exit_code(self, capsys):
        assert main(["analyze", "--n", "10", "--m", "3"]) == 2
        assert main(["simulate", "--n", "8", "--m", "2", "--sessions", "0"]) == 2
        # b lies in (0, 1] for analyze and simulate, as for sweep.
        capsys.readouterr()
        assert main(["analyze", "--n", "64", "--b", "0"]) == 2
        assert "b must lie in (0, 1], got 0.0" in capsys.readouterr().err

    def test_invalid_worker_count_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--n", "64", "--m", "4", "--sessions", "1000", "--workers", "0"])
        assert code == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--n-grid", "64", "--sessions", "1000", "--workers", "-5",
                "--no-timing", "--out", str(out_dir),
            ]
        )
        assert code == 2
        assert "workers must be >= 1, got -5" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_grid_with_n_one_exits_2_without_warnings(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "sweep", "--n-grid", "1,2,4,8", "--b", "0.25", "--sessions", "1000",
                    "--no-timing", "--out", str(out_dir),
                ]
            )
        assert code == 2
        assert "n_grid values must be >= 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_single_node_network_exits_2(self, capsys):
        # A node is never its own destination: analyze and simulate refuse
        # n = 1 instead of printing an age.
        for command in ("analyze", "simulate"):
            assert main([command, "--n", "1", "--m", "1"]) == 2, command
            captured = capsys.readouterr()
            assert "n must be >= 2 (a node is never its own destination), got 1" in captured.err
            assert captured.out == ""

    def test_baseline_single_pair(self, capsys):
        # Turn-taking with n = 1 is one pair served every slot: age 2 / rate.
        assert main(["baseline", "--n", "1", "--sessions", "20000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "delta_closed_form=2.0" in out
        assert "delta_sim=" in out

    def test_simulate_peak_memory_does_not_grow_with_sessions(self):
        # A run keeps batch sums, not per-session columns (one column of
        # 4e6 sessions is 32 MB): 40 times the sessions of a coupled
        # (1024, 8) run, which reports both estimators, add less than 16 MB
        # of peak RSS.
        script = (
            "import resource, sys\n"
            "from aoilab.expcli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(aoilab.__file__).parents[1])}
        peaks_mb = []
        for sessions in (10**5, 4 * 10**6):
            result = subprocess.run(
                [
                    sys.executable, "-c", script, "simulate", "--n", "1024", "--m", "8",
                    "--delivery", "coupled", "--sessions", str(sessions),
                ],
                capture_output=True, text=True, env=env, check=True,
            )
            # ru_maxrss is in KiB on Linux and in bytes on macOS.
            scale = 2**20 if sys.platform == "darwin" else 2**10
            peaks_mb.append(int(result.stdout.split()[-1]) / scale)
        assert peaks_mb[1] - peaks_mb[0] < 16.0, peaks_mb

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(
            [
                "sweep", "--n-grid", "64", "--sessions", "1000",
                "--out", str(blocker / "nested"), "--no-timing",
            ]
        )
        assert code == 3

    def test_simulate_both_estimators(self, capsys):
        code = main(
            [
                "simulate", "--n", "64", "--m", "4", "--sessions", "5000",
                "--delivery", "coupled", "--seed", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_moment=" in out and "delta_timeline=" in out
        assert "timeline_vs_moment_gap=" in out

    def test_simulate_reports_the_timeline_exactly_when_every_session_delivers(self, capsys):
        # The exact variant delivers within its session; worsened
        # independent delivery may not, so it reports the moment line only.
        base = ["simulate", "--n", "64", "--m", "4", "--sessions", "2000", "--seed", "4"]
        assert main([*base, "--variant", "exact"]) == 0
        out = capsys.readouterr().out
        assert "delta_timeline=" in out and "timeline_vs_moment_gap=" in out
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "delta_moment=" in out and "delta_timeline=" not in out

    def test_simulate_warns_when_five_standard_errors_off(self, caplog, monkeypatch, capsys):
        def offset(params):
            return SimpleNamespace(total=closed_form_age(params).total + 10.0)

        monkeypatch.setattr(expcli, "closed_form_age", offset)
        with caplog.at_level(logging.WARNING, logger="aoilab.expcli"):
            code = main(["simulate", "--n", "64", "--m", "4", "--sessions", "2000"])
        assert code == 0
        assert any("5 standard errors" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["analyze", "--n", "64", "--m", "4", "--lambda-intra", "1e-300"],
             "lambda_intra=1e-300, lambda_inter=1.0 leaves the float64 range"),
            (["analyze", "--n", "64", "--m", "4", "--lambda-intra", "1e308",
              "--lambda-inter", "1e-308"],
             "lambda_intra=1e+308, lambda_inter=1e-308 leaves the float64 range"),
            (["baseline", "--n", "8", "--rate", "inf"], "rate must be finite and > 0, got inf"),
            # The closed form holds here; the simulated sums of Y^2 do not.
            (["simulate", "--n", "64", "--m", "4", "--lambda-intra", "1e-152"],
             "the simulated sums at lambda_intra=1e-152, lambda_inter=1.0 leave the float64 range"),
            (["baseline", "--n", "8", "--rate", "1e-300"],
             "the simulated sums at rate=1e-300 leave the float64 range"),
            # (n + 1) / rate itself overflows: refused before any session runs.
            (["baseline", "--n", "8", "--rate", "1e-308"],
             "the closed form at rate=1e-308 leaves the float64 range"),
        ],
    )
    def test_extreme_rates_exit_2_without_warnings(self, argv, reason, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert reason in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, rates",
        [
            # Each batch is finite; the total over the run overflows.
            (["simulate", "--n", "64", "--m", "2", "--lambda-intra", "1e-151",
              "--sessions", "100000"], "lambda_intra=1e-151, lambda_inter=1.0"),
            (["baseline", "--n", "446", "--rate", "1e-150", "--sessions", "1370"],
             "rate=1e-150"),
            # Every y^2 underflows to 0, which would halve the age.
            (["baseline", "--n", "52", "--rate", "1e300", "--sessions", "100000"],
             "rate=1e+300"),
        ],
        ids=["simulate-total-overflow", "baseline-total-overflow", "baseline-underflow"],
    )
    def test_run_total_and_underflow_exit_2_without_warnings(self, argv, rates, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: the simulated sums at {rates} leave the float64 range\n"
        assert captured.out == ""

    @staticmethod
    def _printed(out: str) -> dict:
        return {
            key: float(value)
            for key, _, value in (token.partition("=") for token in out.split())
            if key.startswith(("delta_", "stderr"))
        }

    def test_small_sums_above_the_underflow_limit_run(self, capsys):
        # y^2 near 3e-303: each batch sum stays a normal float64.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["baseline", "--n", "52", "--rate", "1e153", "--sessions", "100000"]
            assert main(argv) == 0
        got = self._printed(capsys.readouterr().out)
        assert got["delta_closed_form"] == 5.3e-152
        assert abs(got["delta_sim"] - 5.3e-152) <= 5 * got["stderr"]

    @pytest.mark.parametrize(
        "argv, within",
        [
            (["baseline", "--n", str(10**62), "--sessions", "10000"], 8),
            (["baseline", "--n", str(10**99), "--sessions", "10000"], 8),
            # Every batch agrees to the last bit, so the standard error is 0.
            (["simulate", "--n", str(2 * 10**70), "--m", "2", "--sessions", "10000"], 0),
        ],
        ids=["baseline-1e62", "baseline-1e99", "simulate-2e70"],
    )
    def test_gamma_shapes_past_stirling_overflow_run(self, argv, within, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        got = self._printed(capsys.readouterr().out)
        closed = got.get("delta_closed_form", got.get("delta_analytic"))
        estimate = got.get("delta_sim", got.get("delta_moment"))
        assert abs(estimate - closed) <= within * got["stderr"] + 1e-12 * closed

    def test_topology_refuses_infinite_area_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "inf-area"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["topology", "--n", "400", "--m", "4", "--area", "inf", "--out", str(out_dir)]
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: area must be finite and > 0, got inf\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, reason",
        [
            # Squared distances within a cell would underflow to 0.
            (["--n", "400", "--m", "4", "--area", "1e-320"],
             "error: area 1e-320 over 100 cells gives each cell an area below"),
            # Squared distances across the square would overflow.
            (["--n", "17", "--m", "17", "--area", "1.0875505125363772e+308",
              "--allow-same-cell"],
             "error: area must be at most 8.988465674311579e+307"),
        ],
        ids=["underflow", "overflow"],
    )
    def test_topology_refuses_area_outside_float_range(self, flags, reason, tmp_path, capsys):
        out_dir = tmp_path / "area"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["topology", *flags, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(reason), captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("area", ["1e-300", "8.9e307"])
    def test_topology_at_the_ends_of_the_area_range_pairs_as_at_area_one(
        self, area, tmp_path, capsys
    ):
        # Scaling the square changes no cell, no destination and no count of
        # violations.
        outputs, violations = {}, {}
        for value in ("1", area):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                argv = ["topology", "--n", "400", "--m", "4", "--gamma", "3", "--area", value,
                        "--out", str(tmp_path / value)]
                assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            violations[value] = [line for line in lines if line.startswith("violations=")]
            with open(tmp_path / value / "topology.csv", newline="") as fh:
                outputs[value] = [(r["cell_id"], r["dest_id"]) for r in csv.DictReader(fh)]
        assert len(violations["1"]) == 1
        assert violations[area] == violations["1"]
        assert outputs[area] == outputs["1"]

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_failed_allocation_exits_2(self):
        # The process caps its own address space at 3 GiB; the first chunk of
        # exact rows then asks numpy for 8 GiB, which fails at once.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))\n"
            "from aoilab.expcli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(aoilab.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": "1",
        }
        argv = ["simulate", "--n", "268435456", "--m", "16384", "--variant", "exact",
                "--sessions", "2"]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, *argv],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: Unable to allocate 8.00 GiB"), result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--n", str(10**400), "--b", "0.25"],
            ["analyze", "--n", str(10**400), "--m", "1"],
            ["baseline", "--n", str(10**400)],
        ],
        ids=["analyze-b", "analyze-m", "baseline"],
    )
    def test_n_beyond_float64_exits_2_without_warnings(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        reason = (
            "n must be at most 1.7976931348623157e+308, the largest float64; "
            "got an integer of 1329 bits"
        )
        assert captured.err == f"error: {reason}\n" and captured.out == ""

    def test_divisor_search_is_quick_or_refused(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            started = time.perf_counter()
            assert main(["analyze", "--n", str(10**20), "--b", "0.25"]) == 0
            assert time.perf_counter() - started < 1.0
            assert capsys.readouterr().out.startswith(f"n={10**20} m=100000 ")
            assert main(["analyze", "--n", str(10**300), "--b", "0.25"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: finding a divisor of n={10**300} within 50% of 1e+75 would try "
            "1e+75 integers, more than the 10000000 allowed\n"
        )
        assert captured.out == ""

    def test_baseline_beyond_uint64_without_warnings(self, capsys):
        # scipy refuses the Python int 2^64 as a shape; the table gets a float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["baseline", "--n", str(2**64), "--sessions", "2000"]) == 0
        assert "delta_closed_form=1.8446744073709552e+19" in capsys.readouterr().out

    def test_delivery_takes_only_the_model_names(self, capsys):
        code = main(
            ["simulate", "--n", "16", "--m", "4", "--sessions", "2000",
             "--delivery", "paper", "--seed", "1"]
        )
        assert code == 1
        assert "argument --delivery: invalid choice: 'paper'" in capsys.readouterr().err

    def test_baseline_command(self, capsys):
        assert main(["baseline", "--n", "4", "--rate", "1.0", "--sessions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "delta_closed_form=5.0" in out

    def test_topology_command(self, tmp_path, capsys):
        code = main(
            ["topology", "--n", "100", "--m", "4", "--seed", "3",
             "--out", str(tmp_path / "topo")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violations=0" in out
        assert (tmp_path / "topo" / "topology.csv").exists()
        assert (tmp_path / "topo" / "violations.csv").exists()

    def test_topology_refuses_nan_gamma(self, tmp_path, capsys):
        out_dir = tmp_path / "nan-gamma"
        code = main(
            ["topology", "--n", "400", "--m", "4", "--gamma", "nan", "--out", str(out_dir)]
        )
        assert code == 2
        assert "gamma must be >= 0, got nan" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_topology_at_quarter_exponent_scale(self, tmp_path, capsys, read_topology_csv):
        # b = 1/4 with m = 16 at n = 2^16: the pairing exists (16 <= n/2) and
        # the 9-TDMA pattern is admissible at the default guard zone.
        out_dir = tmp_path / "topo"
        code = main(["topology", "--n", "65536", "--m", "16", "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "violations=0" in out
        assert "pairing_rejected_proposals=" in out
        topo = read_topology_csv(out_dir / "topology.csv", area_side=1.0)
        nodes = np.arange(65536)
        assert np.array_equal(np.sort(topo.pairing), nodes)
        assert not np.any(topo.pairing == nodes)
        assert not np.any(topo.cell_of[topo.pairing] == topo.cell_of)
        assert (out_dir / "violations.csv").read_text().count("\n") == 1

    def test_sweep_workers_byte_identical(self, tmp_path):
        outputs = []
        for workers in (1, 4):
            out_dir = tmp_path / f"w{workers}"
            code = main(
                [
                    "sweep", "--n-grid", "64,256", "--b", "0.25",
                    "--sessions", "1500", "--seed", "11", "--baseline",
                    "--workers", str(workers), "--no-timing", "--out", str(out_dir),
                ]
            )
            assert code == 0
            outputs.append((out_dir / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_sweep_config_and_inline_conflict(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_grid": [64]}')
        assert main(["sweep", "--config", str(cfg), "--n-grid", "64", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "flag",
        [
            ["--b", "0.5"], ["--sessions", "2000"], ["--variant", "exact"],
            ["--delivery", "coupled"], ["--seed", "5"],
            ["--seed", "0"], ["--baseline"], ["--lambda-intra", "2"],
            ["--lambda-inter", "2"],
        ],
    )
    def test_sweep_config_refuses_each_inline_flag(self, flag, tmp_path, capsys):
        # A config file sets the whole sweep; a flag beside it would be dropped.
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_grid": [64, 256, 1024], "sessions": 1000}')
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), *flag, "--out", str(out)]) == 1
        assert f"({flag[0]})" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_config_refusal_lists_flags_in_table_order(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_grid": [64, 256, 1024], "sessions": 1000}')
        argv = ["sweep", "--config", str(cfg), "--lambda-intra", "2", "--b", "0.3",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "inline sweep flags (--b, --lambda-intra)\n" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["64,abc", "64.9,256"])
    def test_sweep_n_grid_flag_takes_integers(self, grid, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep", "--n-grid", grid, "--sessions", "1000", "--out", str(out)]) == 1
        assert f"argument --n-grid: expected comma-separated integers, got '{grid}'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_sweep_config_combines_with_run_flags(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_grid": [64, 256, 1024], "sessions": 1000, "variant": "exact"}')
        args = ["--n-grid", "64,256,1024", "--sessions", "1000", "--variant", "exact"]
        outputs = []
        for source in (["--config", str(cfg)], args):
            out = tmp_path / f"o{len(outputs)}"
            assert main(["sweep", *source, "--workers", "2", "--no-timing", "--out", str(out)]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
        # The exact variant fills delta_timeline.
        with open(out / "sweep.csv", newline="") as fh:
            assert all(float(record["delta_timeline"]) > 0 for record in csv.DictReader(fh))

    def test_analyze_and_topology_never_import_scipy(self, tmp_path):
        # A fresh interpreter: the closed form and the geometry checks need
        # numpy only; the first gamma quantile, at (1024, 8), loads scipy.
        script = (
            "import sys\n"
            "import aoilab, aoilab.expcli\n"
            "from aoilab.expcli import main\n"
            "assert main(['analyze', '--n', '1048576', '--b', '0.25']) == 0\n"
            "assert main(['topology', '--n', '400', '--m', '4', '--out', sys.argv[1]]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "assert main(['simulate', '--n', '1024', '--m', '8', '--sessions', '2000']) == 0\n"
            "assert 'scipy.special' in sys.modules\n"
        )
        result = self._fresh_interpreter(script, str(tmp_path / "topo"))
        assert result.returncode == 0, result.stderr
        assert "violations=0" in result.stdout and "delta_moment=" in result.stdout

    def test_first_scipy_import_in_worker_threads(self):
        # The first gamma-path run, on 2 threads of a fresh interpreter,
        # imports scipy.special from its worker threads, and its sums equal
        # those of 1 worker.
        script = (
            "import os, sys, threading\n"
            "os.cpu_count = lambda: 2\n"
            "from aoilab import SchemeParams, simulate_sessions\n"
            "importers = []\n"
            "def audit(event, args):\n"
            "    if event == 'import' and args[0] == 'scipy.special':\n"
            "        importers.append(threading.current_thread())\n"
            "sys.addaudithook(audit)\n"
            "assert 'scipy' not in sys.modules\n"
            "params = SchemeParams(1024, 8)\n"
            "two = simulate_sessions(params, 5000, master_seed=3, workers=2)\n"
            "assert importers and threading.main_thread() not in importers, importers\n"
            "one = simulate_sessions(params, 5000, master_seed=3, workers=1)\n"
            "assert two.batch_summaries == one.batch_summaries\n"
        )
        result = self._fresh_interpreter(script)
        assert result.returncode == 0, result.stderr

    @staticmethod
    def _fresh_interpreter(script, *args):
        """``script`` run by a new interpreter with warnings as errors."""
        env = {**os.environ, "PYTHONPATH": str(Path(aoilab.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-W", "error", "-c", script, *args],
            capture_output=True, text=True, env=env,
        )

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "aoilab", "analyze", "--n", "64", "--m", "4"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "total=" in result.stdout
