"""Experiment orchestration and the command-line surface.

Subcommands: ``analyze`` (closed forms for one parameter set),
``simulate`` (Monte Carlo: the moment-formula estimate, plus the timeline
estimate when every session delivers within itself), ``sweep`` (parameter
sweeps with slope fits and CSV/report emission), ``topology`` (placement,
pairing, 9-TDMA grouping, and protocol-model checking), ``baseline``
(turn-taking reference model).  One runner, ``_simulate_point``, serves
every simulated point of every model, and every output file is written here.

Exit codes: 0 success, 1 usage error, 2 infeasibility or validation
failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import numbers
import sys
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analytics import AgeBreakdown, closed_form_age, round_robin_age, scaling_exponent
from .geometry import (
    GUARD_ZONE_LIMIT,
    Topology,
    Violation,
    assign_pairs,
    build_cells,
    check_protocol_model,
    place_nodes,
    same_cell_transmissions,
    tdma_groups,
)
from .params import (
    SchemeParams, cell_exponent, finite_positive, integer_at_least, node_count_float,
)
from .sampling import StreamSpec, make_stream
from .scheme import (
    DeliveryMode,
    Variant,
    estimate_age_moment_formula,
    integrate_age_timeline,
    simulate_round_robin,
    simulate_sessions,
)

log = logging.getLogger(__name__)

SWEEP_CSV_COLUMNS = (
    "n",
    "M",
    "b_effective",
    "sessions",
    "delta_analytic",
    "delta_sim",
    "delta_sim_stderr",
    "delta_timeline",
    "delta_baseline",
    "wall_time_s",
)

# Stream-index windows: sweep point i draws sessions from [i << 32, ...),
# with the baseline run offset half a window so nothing overlaps.
_POINT_STRIDE = 1 << 32
_BASELINE_OFFSET = 1 << 31

# Log distances within this of the nearest count as ties in
# divisor_adjusted_m.
_DIVISOR_TIE_TOL = 1e-12
# Most integers divisor_adjusted_m tries as divisors (about half a second).
_DIVISOR_SCAN_LIMIT = 10**7


class CliUsageError(Exception):
    pass


def divisor_adjusted_m(n: int, target: float) -> int | None:
    """Divisor of n nearest to ``target`` in ratio, within +-50 percent.

    Nearness is measured in log space (so 8 beats 4 for target 6); exact
    ties go to the smaller divisor.  Returns None when no divisor lies
    within the +-50 percent window.  Only that window is scanned: the
    divisors ``d`` in it, or their cofactors ``n / d`` when those are fewer.
    Raises ValueError when both hold more than 10^7 integers.
    """
    n = integer_at_least("n", n, 1)
    target = finite_positive("target", target)
    lo, hi = 0.5 * target, 1.5 * target
    if lo > n or hi < 1:
        return None
    first, last = max(1, math.ceil(lo)), n if hi >= n else math.floor(hi)
    # The cofactors n // d of divisors d in [first, last] fill [n / last, n / first].
    c_first, c_last = -(-n // last), n // first
    scan = min(last - first, c_last - c_first) + 1
    if scan > _DIVISOR_SCAN_LIMIT:
        raise ValueError(
            f"finding a divisor of n={n} within 50% of {target:.6g} would try {scan:.3g} "
            f"integers, more than the {_DIVISOR_SCAN_LIMIT} allowed"
        )
    if last - first <= c_last - c_first:
        candidates = [d for d in range(first, last + 1) if n % d == 0]
    else:
        candidates = [n // c for c in range(c_first, c_last + 1) if n % c == 0]
    if not candidates:
        return None
    log_t = math.log(target)
    dist = {d: abs(math.log(d) - log_t) for d in candidates}
    best = min(dist.values())
    return min(d for d in dist if dist[d] <= best + _DIVISOR_TIE_TOL)


def _cells_for(n: int, b: float) -> int:
    """The cell size of ``n`` nodes at cell exponent ``b``: the divisor of n
    nearest to n**b, or ValueError when none lies within +-50 percent."""
    target = node_count_float(n) ** cell_exponent(b)
    m = divisor_adjusted_m(n, target)
    if m is None:
        raise ValueError(f"no divisor of n={n} within 50% of n^b={target:.3f}")
    return m


def _integer(value) -> int:
    # A JSON file may write 100000 as 1e5, so an integral float counts; a bool does not.
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integers(value) -> tuple[int, ...]:
    if isinstance(value, str):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(map(_integer, value))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


# SweepConfig field -> (its type: the value as stored, or an error saying what
# is wrong; its sweep flag; that flag's argparse keywords), in the order a
# refused --config line lists the flags.
_SWEEP_FIELDS = {
    "n_grid": (_integers, "--n-grid", {"type": _int_list, "help": "comma-separated n values"}),
    "b": (_real, "--b", {"type": float}),
    "sessions": (_integer, "--sessions", {"type": int}),
    "master_seed": (_integer, "--seed", {"type": int}),
    "variant": (Variant, "--variant", {"choices": [v.value for v in Variant]}),
    "delivery_mode": (DeliveryMode, "--delivery", {"choices": [m.value for m in DeliveryMode]}),
    "baseline": (
        _flag, "--baseline", {"action": "store_true", "help": "also run the turn-taking baseline"}
    ),
    "lambda_intra": (_real, "--lambda-intra", {"type": float}),
    "lambda_inter": (_real, "--lambda-inter", {"type": float}),
}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep.  Integer fields also take integral floats (``1e5``); a value
    not of its field's type raises ``ValueError("bad value for '<field>': ...")``.

    ``points`` holds the sweep's SchemeParams, one per grid point, with m the
    divisor of n nearest to n**b; a point with no divisor within +-50 percent
    of n**b, or any other value SchemeParams refuses, raises ValueError here.
    """

    n_grid: tuple[int, ...]
    b: float = 0.25
    lambda_intra: float = 1.0
    lambda_inter: float = 1.0
    sessions: int = 100_000
    master_seed: int = 0
    variant: Variant = Variant.WORSENED
    delivery_mode: DeliveryMode = DeliveryMode.INDEPENDENT
    baseline: bool = False
    points: tuple[SchemeParams, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for f in fields(self)[:-1]:  # every field but points
            try:
                value = _SWEEP_FIELDS[f.name][0](getattr(self, f.name))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"bad value for {f.name!r}: {exc}") from None
            object.__setattr__(self, f.name, value)
        grid = self.n_grid
        if not grid:
            raise ValueError("n_grid must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly increasing, got {grid}")
        integer_at_least("n_grid values", grid[0], 2, " (a node is never its own destination)")
        integer_at_least("sessions", self.sessions, 1000)
        StreamSpec(self.master_seed)  # a seed the streams refuse, refused before run_sweep
        object.__setattr__(self, "points", tuple(
            SchemeParams(n, _cells_for(n, self.b), self.lambda_intra, self.lambda_inter)
            for n in grid
        ))


def load_sweep_config(path) -> SweepConfig:
    """The sweep in a JSON object keyed by SweepConfig field.

    A file that is not such an object, an unknown or missing key, or a
    value SweepConfig refuses raises ``ValueError`` starting
    ``config <path>: ``.
    """
    try:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object")
        unknown = raw.keys() - _SWEEP_FIELDS
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return SweepConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {path}: {exc}") from exc


# A sweep.csv row: its fields are SWEEP_CSV_COLUMNS in order, column M spelled m.
@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    b_effective: float
    sessions: int
    delta_analytic: float
    delta_sim: float
    delta_sim_stderr: float
    delta_timeline: float | None = None
    delta_baseline: float | None = None
    wall_time_s: float | None = None


def _simulate_point(point, sessions, variant, delivery, master_seed, base_stream_index, workers):
    """Closed-form age, moment estimate and timeline estimate (None unless
    every session delivers within itself) of one simulated point: ``point``
    is the scheme's SchemeParams, or the turn-taking baseline's ``(n, rate)``
    with ``variant`` and ``delivery`` None.

    The closed form comes first, so a point it cannot evaluate fails before
    any session runs.  A moment estimate more than 5 standard errors from a
    closed form that is the model's own age logs a warning.
    """
    stream = dict(master_seed=master_seed, base_stream_index=base_stream_index, workers=workers)
    if isinstance(point, SchemeParams):
        analytic = closed_form_age(point).total
        run = simulate_sessions(point, sessions, variant=variant, delivery=delivery, **stream)
        # The closed form needs only the marginals of D and Y, which both
        # delivery modes keep; it is the worsened variant's age only.  The
        # timeline integrator needs delivery-before-session-end on every
        # path, which only the coupled mode (or the exact variant) ensures.
        own_age = variant == Variant.WORSENED
        with_timeline = delivery == DeliveryMode.COUPLED or variant == Variant.EXACT
        where = f"n={point.n} m={point.m}"
    else:
        analytic = round_robin_age(*point)
        run = simulate_round_robin(*point, sessions, **stream)
        own_age, with_timeline = True, False  # no output reports the baseline's timeline
        where = f"n={point[0]} turn-taking"
    moment = estimate_age_moment_formula(run.batch_summaries)
    timeline = integrate_age_timeline(run) if with_timeline else None
    if own_age and moment.std_err > 0 and abs(moment.delta_hat - analytic) > 5.0 * moment.std_err:
        log.warning(
            "%s: simulated age %.6g deviates from closed form %.6g "
            "by more than 5 standard errors (%.3g)",
            where, moment.delta_hat, analytic, moment.std_err,
        )
    return analytic, moment, timeline


def run_sweep(config: SweepConfig, workers: int = 1, timing: bool = True) -> list[SweepRow]:
    """One SweepRow per point of ``config.points``, deterministic given the
    master seed."""
    integer_at_least("workers", workers, 1)  # refused before anything is logged
    for params in config.points:
        target = float(params.n) ** config.b
        if params.m != round(target):
            log.info("n=%d: adjusted m from n^b=%.3f to divisor %d", params.n, target, params.m)

    rows: list[SweepRow] = []
    for i, params in enumerate(config.points):
        started = time.perf_counter()
        analytic, estimate, timeline = _simulate_point(
            params, config.sessions, config.variant, config.delivery_mode,
            config.master_seed, i * _POINT_STRIDE, workers,
        )
        delta_baseline = None
        if config.baseline:
            delta_baseline = _simulate_point(
                (params.n, config.lambda_intra), config.sessions, None, None,
                config.master_seed, i * _POINT_STRIDE + _BASELINE_OFFSET, workers,
            )[1].delta_hat
        rows.append(SweepRow(
            n=params.n, m=params.m, b_effective=params.b, sessions=config.sessions,
            delta_analytic=analytic, delta_sim=estimate.delta_hat,
            delta_sim_stderr=estimate.std_err,
            delta_timeline=None if timeline is None else timeline.delta_hat,
            delta_baseline=delta_baseline,
            wall_time_s=time.perf_counter() - started if timing else None,
        ))
    return rows


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power-law fit on (log n, log value).

    ``exponent`` is the plain slope; ``log_corrected_exponent`` the slope
    after dividing out the log n factor (``r_squared`` belongs to the plain
    fit).
    """

    column: str
    exponent: float
    r_squared: float
    fit_range: tuple[int, int]
    log_corrected_exponent: float


def fit_slope(rows: Sequence[SweepRow], column: str) -> SlopeFit:
    points = [(row.n, getattr(row, column)) for row in rows if getattr(row, column) is not None]
    if len(points) < 3:
        raise ValueError(f"need at least 3 rows with column {column!r}, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    values = np.array([p[1] for p in points], dtype=float)
    if np.any(values <= 0):
        raise ValueError(f"column {column!r} has non-positive values; cannot fit log-log slope")
    if np.any(ns < 2):
        raise ValueError(f"the log-corrected fit needs n >= 2, got n = {int(ns.min())}")

    def _least_squares(y: np.ndarray) -> tuple[float, float]:
        x = np.log(ns)
        design = np.column_stack([x, np.ones_like(x)])
        (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
        predicted = design @ np.array([slope, intercept])
        ss_res = float(np.sum((y - predicted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return float(slope), r_sq

    log_v = np.log(values)
    corrected_slope = _least_squares(log_v - np.log(np.log(ns)))[0]
    slope, r_squared = _least_squares(log_v)
    return SlopeFit(
        column=column,
        exponent=slope,
        r_squared=r_squared,
        fit_range=(int(ns.min()), int(ns.max())),
        log_corrected_exponent=corrected_slope,
    )


def _write_table(path, header: Sequence[str], rows) -> None:
    # csv writes None as an empty cell and a float by repr.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_topology_csv(topology: Topology, path) -> None:
    n = topology.n
    columns = [range(n), *topology.positions.T.tolist()]
    for column in (topology.cell_of, topology.pairing):
        columns.append([None] * n if column is None else column.tolist())
    _write_table(path, ["node_id", "x", "y", "cell_id", "dest_id"], zip(*columns))


def write_violations_csv(violations: list[Violation], gamma: float, path) -> None:
    _write_table(
        path,
        ["receiver", "transmitter", "interferer", "d_ji", "d_jk", "gamma", "margin"],
        ([v.receiver, v.transmitter, v.interferer, v.d_own, v.d_interferer, gamma, v.margin]
         for v in violations),
    )


def emit_report(
    rows: Sequence[SweepRow], fits: Sequence[SlopeFit], out_dir, b: float
) -> list[Path]:
    """Write sweep.csv and summary.txt under ``out_dir``; returns the paths."""
    if not rows:
        raise ValueError("emit_report needs at least one row")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "sweep.csv"
        _write_table(csv_path, SWEEP_CSV_COLUMNS, map(astuple, rows))
        summary_path = out / "summary.txt"
        lines = [f"points: {len(rows)}"]
        if not fits:
            lines.append("no fit requested")
        for fit in fits:
            lines.append(
                f"fit column={fit.column} exponent={fit.exponent:.6f} "
                f"log_corrected_exponent={fit.log_corrected_exponent:.6f} "
                f"r_squared={fit.r_squared:.6f} "
                f"range=[{fit.fit_range[0]}, {fit.fit_range[1]}]"
            )
        lines.append(
            f"predicted growth exponent for b={b!r}: max(b, 1-3b) = "
            f"{scaling_exponent(b):.6f}"
        )
        summary_path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing report under {out}: {exc}") from exc
    return [csv_path, summary_path]


# ---------------------------------------------------------------------------
# Command-line interface.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _print_breakdown(params: SchemeParams, breakdown: AgeBreakdown) -> None:
    print(
        f"n={params.n} m={params.m} lambda_intra={params.lambda_intra} "
        f"lambda_inter={params.lambda_inter} b_effective={params.b:.6f}"
    )
    for name, value in breakdown.per_term:
        print(f"  {name:<22} {value:.9g}")
    print(f"delay_part={breakdown.delay_part:.9g}")
    print(f"renewal_part={breakdown.renewal_part:.9g}")
    print(f"total={breakdown.total:.9g}")


def _resolve_m(args) -> int:
    if args.m is not None and args.b is not None:
        raise CliUsageError("give either --m or --b, not both")
    if args.m is not None:
        return args.m
    if args.b is None:
        raise CliUsageError("one of --m or --b is required")
    return _cells_for(args.n, args.b)


def _cmd_analyze(args) -> int:
    params = SchemeParams(args.n, _resolve_m(args), args.lambda_intra, args.lambda_inter)
    _print_breakdown(params, closed_form_age(params))
    return 0


def _cmd_simulate(args) -> int:
    params = SchemeParams(args.n, _resolve_m(args), args.lambda_intra, args.lambda_inter)
    variant = Variant(args.variant)
    delivery = DeliveryMode(args.delivery)
    analytic, moment, timeline = _simulate_point(
        params, args.sessions, variant, delivery, args.seed, 0, args.workers
    )
    print(
        f"n={params.n} m={params.m} variant={variant.value} delivery={delivery.value} "
        f"sessions={args.sessions} seed={args.seed}"
    )
    print(f"delta_analytic={analytic!r}")
    rel = (moment.delta_hat - analytic) / analytic
    print(
        f"delta_moment={moment.delta_hat!r} stderr={moment.std_err!r} "
        f"rel_vs_analytic={rel:+.5f}"
    )
    if timeline is not None:
        print(f"delta_timeline={timeline.delta_hat!r} stderr={timeline.std_err!r}")
        gap = (timeline.delta_hat - moment.delta_hat) / moment.delta_hat
        print(f"timeline_vs_moment_gap={gap:+.5f}")
    return 0


def _cmd_sweep(args) -> int:
    given = {field: getattr(args, field) for field in _SWEEP_FIELDS if hasattr(args, field)}
    if args.config is not None:
        if given:
            flags = ", ".join(_SWEEP_FIELDS[field][1] for field in given)
            raise CliUsageError(f"--config cannot be combined with inline sweep flags ({flags})")
        config = load_sweep_config(args.config)
    else:
        if "n_grid" not in given:
            raise CliUsageError("either --config or --n-grid is required")
        config = SweepConfig(**given)
    rows = run_sweep(config, workers=args.workers, timing=not args.no_timing)
    fits = []
    for column in ("delta_analytic", "delta_sim", "delta_baseline"):
        if sum(getattr(r, column) is not None for r in rows) >= 3:
            fits.append(fit_slope(rows, column))
    paths = emit_report(rows, fits, args.out, b=config.b)
    for path in paths:
        print(path)
    return 0


def _cmd_topology(args) -> int:
    grid = build_cells(args.n, args.m, args.area)
    stream = make_stream(StreamSpec(args.seed, 0))
    topology = place_nodes(args.n, args.area, stream).with_cells(grid)
    pairing, rejected = assign_pairs(
        topology, stream, forbid_same_cell=not args.allow_same_cell
    )
    topology = replace(topology, pairing=pairing)
    groups = tdma_groups(grid)

    all_violations = []
    for group in groups.groups:
        transmissions = same_cell_transmissions(topology, group)
        all_violations.extend(check_protocol_model(topology, transmissions, args.gamma))

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_topology_csv(topology, out / "topology.csv")
        write_violations_csv(all_violations, args.gamma, out / "violations.csv")
    except OSError as exc:
        raise OSError(f"failed writing topology outputs under {out}: {exc}") from exc
    print(
        f"n={args.n} m={args.m} cells={grid.num_cells} cell_len={grid.cell_len!r} "
        f"pairing_rejected_proposals={rejected}"
    )
    print(f"gamma={args.gamma!r} (9-TDMA admissible up to {GUARD_ZONE_LIMIT!r})")
    print(f"violations={len(all_violations)}")
    return 0


def _cmd_baseline(args) -> int:
    point = (args.n, args.rate)
    closed, estimate, _ = _simulate_point(point, args.sessions, None, None, args.seed, 0, 1)
    print(f"n={args.n} rate={args.rate} sessions={args.sessions} seed={args.seed}")
    print(f"delta_closed_form={closed!r}")
    print(f"delta_sim={estimate.delta_hat!r} stderr={estimate.std_err!r}")
    return 0


def _add_common_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--m", type=int, default=None, help="nodes per cell (divisor of n)")
    p.add_argument("--b", type=float, default=None, help="cell exponent; m = nearest divisor to n^b")
    p.add_argument("--lambda-intra", type=float, default=1.0, dest="lambda_intra")
    p.add_argument("--lambda-inter", type=float, default=1.0, dest="lambda_inter")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aoilab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form age for one parameter set")
    _add_common_model_flags(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo age estimation")
    _add_common_model_flags(p)
    p.add_argument("--sessions", type=int, default=100_000)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="worsened")
    p.add_argument("--delivery", choices=[m.value for m in DeliveryMode], default="independent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="scaling sweep over an n grid")
    p.add_argument("--config", default=None, help="JSON object keyed by SweepConfig field")
    # A sweep flag not given leaves no attribute, so a config file can refuse
    # the given ones.
    for field, (_, flag, keywords) in _SWEEP_FIELDS.items():
        p.add_argument(flag, dest=field, default=argparse.SUPPRESS, **keywords)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-timing", action="store_true", help="omit wall times (byte-stable output)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("topology", help="random topology + 9-TDMA protocol check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--area", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=GUARD_ZONE_LIMIT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-same-cell", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_topology)

    p = sub.add_parser("baseline", help="turn-taking baseline age")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--sessions", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_baseline)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
