"""One benchmark workload in a fresh interpreter.

``perfbench/run.py`` starts this script; it is not meant to be run by hand.
It imports aoilab from the checkout's ``src``, builds the workload's inputs
from the seed, runs timed repetitions of the workload until the time budget
is spent, checks every output, and prints one JSON record as the last line
of standard output::

    python3 perfbench/child.py --workload mc-narrow --seed 1 --seconds 20 --trace 0
    python3 perfbench/child.py --workload mc-narrow --seed 1 --setup-only

Every repetition of a run uses the same inputs, so every repetition must
produce bit-identical outputs; later repetitions are checked against the
first.  The run reports the median repetition.  With ``--trace 1`` the run
alternates untraced repetitions with traced ones on one worker, and reports
the per-layer metrics of the median traced repetition.
"""

from __future__ import annotations

import os

# At most one BLAS/OpenMP thread per interpreter; must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import aoilab
from aoilab import expcli, geometry, scheme
from aoilab.analytics import closed_form_age
from aoilab.params import SchemeParams
from aoilab.sampling import StreamSpec, make_stream
from aoilab.scheme import estimate_age_moment_formula as _estimate  # never wrapped

from spans import LAYER_UNITS, Tracer, layer_metrics, self_times_ns

if not Path(aoilab.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"aoilab was imported from {aoilab.__file__}, not from {SRC}")

# The round-robin baseline draws from stream window [2^31, 2^31 + sessions),
# disjoint from the scheme's [0, sessions), as in the sweep's windows.
BASELINE_BASE = 1 << 31

# Iterations of the reference loop run before each repetition (about 10 ms
# on a 2-vCPU VM).
REFERENCE_LOOP = 200_000


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


class Op(NamedTuple):
    """One checked operation.  ``defect`` marks a failure the program reports
    itself (an infeasible pairing), which leaves the outputs correct."""

    name: str
    ok: bool
    detail: str
    defect: bool = False


@dataclass
class Rep:
    """What one repetition produced, inspected after its timed section."""

    ops: list[Op]
    digest: str
    counters: dict[str, int]
    signals: dict


class McNarrow:
    """Worsened scheme with coupled delivery at (1024, 8), then round robin."""

    name = "mc-narrow"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.params = SchemeParams(1024, 8)
        self.rate = 1.0
        self.sessions = 1 << 12 if tiny else 1 << 15
        self.sessions_per_rep = 2 * self.sessions
        self.workers = 1
        self.closed_form = closed_form_age(self.params).total
        self.baseline_closed_form = (self.params.n + 1) / self.rate

    def run(self, workers: int):
        run = scheme.simulate_sessions(
            self.params, self.sessions, variant="worsened", delivery="coupled",
            master_seed=self.seed, base_stream_index=0, workers=workers,
        )
        rr = scheme.simulate_round_robin(
            self.params.n, self.rate, self.sessions, master_seed=self.seed,
            base_stream_index=BASELINE_BASE, workers=workers,
        )
        moment = scheme.estimate_age_moment_formula(run.batch_summaries)
        baseline = scheme.estimate_age_moment_formula(rr.batch_summaries)
        timeline = scheme.integrate_age_timeline(run)
        return run, rr, moment, baseline, timeline

    def inspect(self, out) -> Rep:
        run, rr, moment, baseline, timeline = out
        rel = (moment.delta_hat - self.closed_form) / self.closed_form
        gap = (timeline.delta_hat - moment.delta_hat) / moment.delta_hat
        z_scheme = (moment.delta_hat - self.closed_form) / moment.std_err
        z_baseline = (baseline.delta_hat - self.baseline_closed_form) / baseline.std_err
        ops = [
            Op("scheme age within 1% of closed form", abs(rel) <= 0.01, f"rel={rel:+.3e}"),
            Op("timeline-moment gap below 3%", abs(gap) < 0.03, f"gap={gap:+.3e}"),
            Op("baseline |z| <= 5", abs(z_baseline) <= 5.0, f"z={z_baseline:+.3f}"),
        ]
        return Rep(
            ops=ops,
            digest=_digest(moment, baseline, timeline, run.batch_summaries, rr.batch_summaries),
            counters={
                "scheme.sessions": run.sessions + rr.sessions,
                "scheme.batches": len(run.batch_summaries) + len(rr.batch_summaries),
            },
            signals={
                "points": [
                    {"run": "scheme", "n": self.params.n, "m": self.params.m,
                     "sim": moment.delta_hat, "closed_form": self.closed_form,
                     "std_err": moment.std_err, "z": z_scheme, "rel": rel},
                    {"run": "baseline", "n": self.params.n, "sim": baseline.delta_hat,
                     "closed_form": self.baseline_closed_form,
                     "std_err": baseline.std_err, "z": z_baseline},
                ],
                "timeline_moment_gap": gap,
                "streams": [
                    {"run": "scheme", "base_stream_index": run.base_stream_index,
                     "sessions": run.sessions, "batch_size": run.batch_size,
                     "batches": len(run.batch_summaries)},
                    {"run": "baseline", "base_stream_index": rr.base_stream_index,
                     "sessions": rr.sessions, "batch_size": rr.batch_size,
                     "batches": len(rr.batch_summaries)},
                ],
            },
        )


class SweepQuarter:
    """``run_sweep`` at b = 1/4 with the turn-taking baseline, on a fork pool."""

    name = "sweep-quarter"
    grid = (4096, 16384, 65536)

    def __init__(self, seed: int, tiny: bool) -> None:
        sessions = 1000 if tiny else 10_000
        self.config = expcli.SweepConfig(
            n_grid=self.grid, b=0.25, sessions=sessions, master_seed=seed,
            variant="worsened", delivery_mode="independent", baseline=True,
        )
        self.sessions_per_rep = 2 * len(self.grid) * sessions
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.cells = {n: expcli.divisor_adjusted_m(n, n ** 0.25) for n in self.grid}
        self.closed_form = {
            n: closed_form_age(SchemeParams(n, m)).total for n, m in self.cells.items()
        }
        # Observe the simulations run_sweep makes, in both modes, to read
        # their stream windows and the baseline's standard error.
        self.calls: list[dict] = []
        for attr, kind in (("simulate_sessions", "scheme"), ("simulate_round_robin", "baseline")):
            setattr(expcli, attr, self._observed(getattr(expcli, attr), kind))

    def _observed(self, fn, kind: str):
        def observed(*args, **kwargs):
            run = fn(*args, **kwargs)
            self.calls.append({
                "run": kind, "base_stream_index": run.base_stream_index,
                "sessions": run.sessions, "batch_size": run.batch_size,
                "batches": len(run.batch_summaries), "workers": kwargs.get("workers"),
                "summaries": run.batch_summaries,
            })
            return run

        return observed

    def run(self, workers: int):
        self.calls = []
        rows = expcli.run_sweep(self.config, workers=workers, timing=False)
        return rows, self.calls

    def inspect(self, out) -> Rep:
        rows, calls = out
        baselines = [c for c in calls if c["run"] == "baseline"]
        ops, points = [], []
        for row, n, call in zip(rows, self.grid, baselines):
            m, closed = self.cells[n], self.closed_form[n]
            se = row.delta_sim_stderr
            z = (row.delta_sim - closed) / se
            ops.append(Op(
                f"n={n} age within 5 se of closed form",
                row.m == m and row.delta_analytic == closed
                and abs(row.delta_sim - closed) <= 5.0 * se,
                f"m={row.m} z={z:+.3f}",
            ))
            estimate = _estimate(call["summaries"])
            z_base = (row.delta_baseline - (n + 1)) / estimate.std_err
            ops.append(Op(
                f"n={n} baseline within 5 se of n+1",
                estimate.delta_hat == row.delta_baseline
                and abs(row.delta_baseline - (n + 1)) <= 5.0 * estimate.std_err,
                f"z={z_base:+.3f}",
            ))
            points.append({"n": n, "m": row.m, "sim": row.delta_sim, "closed_form": closed,
                           "std_err": se, "z": z, "baseline": row.delta_baseline,
                           "baseline_std_err": estimate.std_err, "baseline_z": z_base})
        if len(rows) != len(self.grid) or len(baselines) != len(self.grid):
            ops.append(Op("one row and one baseline per grid point", False,
                        f"rows={len(rows)} baselines={len(baselines)}"))
        streams = [{k: v for k, v in c.items() if k != "summaries"} for c in calls]
        return Rep(
            ops=ops,
            digest=_digest(rows, [c["summaries"] for c in calls]),
            counters={
                "scheme.sessions": sum(c["sessions"] for c in calls),
                "scheme.batches": sum(c["batches"] for c in calls),
            },
            signals={"points": points, "streams": streams},
        )


class _CountingStream:
    """Generator proxy that counts the permutations ``assign_pairs`` draws."""

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self.permutations = 0

    def permutation(self, *args, **kwargs):
        self.permutations += 1
        return self._gen.permutation(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Topology1e4:
    """Placement, pairing, 9-TDMA groups and the protocol check, m = 4 and 16."""

    name = "topology-1e4"
    cell_sizes = (4, 16)

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n = 400 if tiny else 10_000
        self.gamma = geometry.GUARD_ZONE_LIMIT
        # "Sessions" here are source-destination pairs placed, paired and checked.
        self.sessions_per_rep = self.n * len(self.cell_sizes)
        self.workers = 1

    def run(self, workers: int):
        points = []
        for index, m in enumerate(self.cell_sizes):
            gen = make_stream(StreamSpec(self.seed, index))
            topo = geometry.place_nodes(self.n, 1.0, gen)
            grid = geometry.build_cells(self.n, m, 1.0)
            topo = topo.with_cells(grid)
            stream = _CountingStream(gen)
            try:
                pairing, _ = geometry.assign_pairs(topo, stream)
                error = None
            except RuntimeError as exc:
                pairing, error = None, f"RuntimeError: {exc}"
            violations = []
            for group in geometry.tdma_groups(grid).groups:
                links = geometry.same_cell_transmissions(topo, group)
                violations.extend(geometry.check_protocol_model(topo, links, self.gamma))
            points.append((index, m, topo, pairing, error, stream.permutations, violations))
        return points

    def inspect(self, out) -> Rep:
        ops, signals, parts = [], [], []
        permutations = accepted = 0
        for index, m, topo, pairing, error, drawn, violations in out:
            if pairing is None:
                ops.append(Op(f"m={m} pairing", False, error, defect=True))
            else:
                nodes = np.arange(topo.n)
                admissible = (
                    np.array_equal(np.sort(pairing), nodes)
                    and not np.any(pairing == nodes)
                    and not np.any(topo.cell_of[pairing] == topo.cell_of)
                )
                ops.append(Op(f"m={m} pairing", bool(admissible), f"permutations={drawn}"))
                accepted += 1
            ops.append(Op(f"m={m} protocol model", not violations, f"violations={len(violations)}"))
            permutations += drawn
            signals.append({"m": m, "stream": [self.seed, index],
                            "pairing_failed": error is not None,
                            "permutations": drawn, "violations": len(violations)})
            parts += [topo.positions, pairing, error, violations]
        return Rep(
            ops=ops,
            digest=_digest(*parts),
            counters={
                "geometry.assign_pairs.permutations": permutations,
                "geometry.assign_pairs.accepted": accepted,
            },
            signals={"points": signals, "gamma": self.gamma},
        )


WORKLOADS = {w.name: w for w in (McNarrow, SweepQuarter, Topology1e4)}


@dataclass
class Result:
    phase: str
    workers: int
    wall_ns: int
    reference_ns: int
    rep: Rep
    layers: dict[str, float] | None = None


def _reference_loop_ns() -> int:
    t0 = time.perf_counter_ns()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i
    return time.perf_counter_ns() - t0


def _reference_ns(workers: int) -> int:
    """Time of a fixed interpreter loop that no program change can alter.

    Its median over a run measures the machine's speed during that run: on
    a shared virtual machine each CPU slows down by up to 1.8x for seconds
    to minutes, independently of the others, and the workload and this loop
    slow down together.  One worker runs on this process's CPU, so the loop
    runs there; pool workers spread over every CPU, so the loop runs once on
    each and the mean is taken."""
    if workers == 1:
        return _reference_loop_ns()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_reference_loop_ns())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) // len(times)


def _rep(workload, phase: str, workers: int, tracer: Tracer | None,
         all_spans: list) -> Result:
    """One timed repetition, traced when ``tracer`` is given, then inspected."""
    reference_ns = _reference_ns(workers)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter_ns()
        out = workload.run(workers)
        wall_ns = time.perf_counter_ns() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.take() if tracer is not None else []
    rep = workload.inspect(out)
    result = Result(phase, workers, wall_ns, reference_ns, rep)
    if tracer is not None:
        result.layers = layer_metrics(spans, rep.counters)
        self_ns = sum(self_times_ns(spans))
        rep.ops.append(Op("span self times within wall time", self_ns <= wall_ns,
                          f"self={self_ns} wall={wall_ns} ns"))
        all_spans.append({"phase": phase, "wall_ns": wall_ns,
                          "spans": [asdict(span) for span in spans]})
    return result


def _measure(workload, kinds: list, budget_s: float, all_spans: list) -> list[Result]:
    """Run the kinds of repetition in turn until the next round would overrun
    the budget.  Alternating them exposes each kind to the same drift in the
    machine's speed."""
    results: list[Result] = []
    rounds: list[int] = []
    started = time.perf_counter_ns()
    while True:
        round_start = time.perf_counter_ns()
        for phase, workers, tracer in kinds:
            results.append(_rep(workload, phase, workers, tracer, all_spans))
        rounds.append(time.perf_counter_ns() - round_start)
        if time.perf_counter_ns() - started + statistics.median(rounds) > budget_s * 1e9:
            return results


def _checks(ops) -> list[Op]:
    """One entry per named check, the worst outcome over the repetitions:
    a real failure over a reported defect over a pass.  The counts of
    attempted and failed operations therefore depend on the seed only, not
    on how many repetitions fit in the time budget."""
    checks: dict[str, Op] = {}
    for op in ops:
        held = checks.get(op.name)
        if held is None or (op.ok, op.defect) < (held.ok, held.defect):
            checks[op.name] = op
    return list(checks.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None, help="write traced spans to this file")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    setup_mark = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_mark": setup_mark}))
        return 0

    kinds = [("untraced", workload.workers, None)]
    if args.trace:
        if workload.workers > 1:
            kinds.append(("untraced-1", 1, None))
        kinds.append(("traced", 1, Tracer()))
    all_spans: list[dict] = []
    results = _measure(workload, kinds, args.seconds, all_spans)

    reference = results[0].rep.digest
    differing = [r.phase for r in results if r.rep.digest != reference]
    results[0].rep.ops.append(Op("every repetition reproduces the first one's outputs",
                                 not differing, f"differing={differing}"))
    ops = _checks(op for r in results for op in r.rep.ops)
    failures = [op._asdict() for op in ops if not op.ok]
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    def median(phase: str) -> float:
        return statistics.median(r.wall_ns for r in results if r.phase == phase) / 1e9

    reference_s = statistics.median(
        r.reference_ns for r in results if r.phase == "untraced") / 1e9

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_mark": setup_mark,
        "sessions_per_rep": workload.sessions_per_rep,
        "workers": workload.workers,
        # Medians over the run, which are steadier across runs than the
        # fastest repetition; wall_ref divides out the machine's speed.
        "wall_s": median("untraced"),
        "wall_s_fastest": min(r.wall_ns for r in results if r.phase == "untraced") / 1e9,
        "reference_s": reference_s,
        "wall_ref": median("untraced") / reference_s,
        "peak_rss_mb": usage / 1024.0,
        "reps": [{"phase": r.phase, "workers": r.workers, "wall_s": r.wall_ns / 1e9}
                 for r in results],
        "attempted": len(ops),
        "failed": len(failures),
        "correct": all(op.ok or op.defect for op in ops),
        "failures": failures,
        "digest": reference,
        "signals": results[0].rep.signals,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        traced = sorted((r for r in results if r.phase == "traced"), key=lambda r: r.wall_ns)
        middle = traced[(len(traced) - 1) // 2]
        layers = dict(middle.layers)
        layers["trace.wall_s"] = middle.wall_ns / 1e9
        layers["trace.overhead_ratio"] = median("traced") / median(kinds[-2][0])
        layers["scheme.parallel_speedup"] = median(kinds[-2][0]) / median("untraced")
        layers["e2e.wall_s"] = median("untraced")
        layers["e2e.sessions_per_s"] = workload.sessions_per_rep / median("untraced")
        layers["e2e.reference_s"] = reference_s
        record["traced_digest"] = middle.rep.digest
        record["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in LAYER_UNITS.items()}
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans_out).write_text(json.dumps(all_spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
