"""In-memory spans around aoilab's public functions, recorded from outside.

A wrapper replaces a function where its caller looks it up, for example
``aoilab.scheme.fill_stream_rows`` or ``aoilab.expcli.simulate_sessions``,
so the package itself is not changed.  Each call becomes one span: name,
start, end, parent span and a few work counters.  Spans stay in
memory; the caller writes them out when the run ends.

A span's self time is its duration minus the union of its children's
intervals.  Children nest inside their parent, so the self times of all
spans recorded in a window sum to at most the window's length.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _uniforms(args, kwargs, result) -> dict[str, int]:
    # Kernels return one value per uniform, and fill returns the filled buffer.
    return {"uniforms": int(np.size(result))}


def _link_pairs(args, kwargs, result) -> dict[str, int]:
    links = len(kwargs["transmissions"] if "transmissions" in kwargs else args[1])
    return {"link_pairs": links * (links - 1), "violations": len(result)}


# (module, attribute, span name, counters of one call).  The span name is the
# layer that owns the function, whatever namespace the call goes through.
BOUNDARIES = (
    ("aoilab.scheme", "fill_stream_rows", "sampling.fill_stream_rows", _uniforms),
    ("aoilab.scheme", "max_exp_from_uniform", "sampling.max_exp_from_uniform", _uniforms),
    ("aoilab.scheme", "exp_from_uniform", "sampling.exp_from_uniform", _uniforms),
    ("aoilab.scheme", "gammaincinv", "scheme.round_robin_quantile", None),
    ("aoilab.scheme", "simulate_sessions", "scheme.simulate_sessions", None),
    ("aoilab.scheme", "simulate_round_robin", "scheme.simulate_round_robin", None),
    ("aoilab.scheme", "estimate_age_moment_formula", "scheme.estimate_age_moment_formula", None),
    ("aoilab.scheme", "integrate_age_timeline", "scheme.integrate_age_timeline", None),
    ("aoilab.expcli", "run_sweep", "expcli.run_sweep", None),
    ("aoilab.expcli", "closed_form_age", "analytics.closed_form_age", None),
    ("aoilab.expcli", "simulate_sessions", "scheme.simulate_sessions", None),
    ("aoilab.expcli", "simulate_round_robin", "scheme.simulate_round_robin", None),
    ("aoilab.expcli", "estimate_age_moment_formula", "scheme.estimate_age_moment_formula", None),
    ("aoilab.expcli", "integrate_age_timeline", "scheme.integrate_age_timeline", None),
    ("aoilab.geometry", "place_nodes", "geometry.place_nodes", None),
    ("aoilab.geometry", "build_cells", "geometry.build_cells", None),
    ("aoilab.geometry", "Topology.with_cells", "geometry.with_cells", None),
    ("aoilab.geometry", "assign_pairs", "geometry.assign_pairs", None),
    ("aoilab.geometry", "tdma_groups", "geometry.tdma_groups", None),
    ("aoilab.geometry", "same_cell_transmissions", "geometry.same_cell_transmissions", None),
    ("aoilab.geometry", "check_protocol_model", "geometry.check_protocol_model", _link_pairs),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    error: str | None = None
    counters: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Installs the wrappers in ``BOUNDARIES`` and records one span per call.

    Spans nest by call order, which holds while traced code runs on one
    thread at a time; traced runs therefore use a single worker.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []  # indices of the spans not yet ended
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, counters in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counters))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name: str, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter_ns(), parent=parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._open.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Spans recorded since the last call, which are then forgotten."""
        spans, self.spans = self.spans, []
        return spans


def self_times_ns(spans: list[Span]) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start_ns
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end_ns - span.start_ns - covered)
    return out


# Per-layer metrics and their units.  Every traced run reports all of them;
# a layer that a workload does not run reads 0.
LAYER_UNITS = {
    "sampling.fill_stream_rows.calls": "count",
    "sampling.fill_stream_rows.busy_s": "s",
    "sampling.fill_stream_rows.ns_per_uniform": "ns",
    "sampling.max_exp_from_uniform.busy_s": "s",
    "sampling.max_exp_from_uniform.ns_per_uniform": "ns",
    "sampling.exp_from_uniform.busy_s": "s",
    "sampling.uniforms": "count",
    "sampling.uniform_bytes_computed": "B",
    "scheme.round_robin_quantile.busy_s": "s",
    "scheme.simulate_sessions.busy_s": "s",
    "scheme.simulate_sessions.self_s": "s",
    "scheme.simulate_round_robin.busy_s": "s",
    "scheme.simulate_round_robin.self_s": "s",
    "scheme.batches": "count",
    "scheme.sessions": "count",
    "scheme.parallel_speedup": "x",
    "scheme.estimate_age_moment_formula.busy_s": "s",
    "scheme.integrate_age_timeline.busy_s": "s",
    "analytics.closed_form_age.calls": "count",
    "analytics.closed_form_age.busy_s": "s",
    "expcli.run_sweep.self_s": "s",
    "geometry.assign_pairs.busy_s": "s",
    "geometry.assign_pairs.permutations": "count",
    "geometry.assign_pairs.failures": "count",
    "geometry.assign_pairs.accept_ratio": "ratio",
    "geometry.check_protocol_model.busy_s": "s",
    "geometry.check_protocol_model.link_pairs": "count",
    "geometry.check_protocol_model.violations": "count",
    "geometry.same_cell_transmissions.busy_s": "s",
    "geometry.place_nodes.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "x",
    "e2e.wall_s": "s",
    "e2e.sessions_per_s": "1/s",
    "e2e.reference_s": "s",
}


@dataclass
class _Totals:
    calls: int = 0
    errors: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def layer_metrics(spans: list[Span], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``counters`` carries what the workload counted itself: sessions and
    batches from the simulation results, and the permutations drawn by and
    pairings returned from ``assign_pairs``.  The two ratio metrics of the
    ``trace`` and ``scheme.parallel_speedup`` rows need several runs and are
    added by the caller.
    """
    totals: dict[str, _Totals] = defaultdict(_Totals)
    for span, self_ns in zip(spans, self_times_ns(spans)):
        t = totals[span.name]
        t.calls += 1
        t.errors += span.error is not None
        t.busy_ns += span.end_ns - span.start_ns
        t.self_ns += self_ns
        for key, value in span.counters.items():
            t.counters[key] += value

    def busy(name: str) -> float:
        return totals[name].busy_ns / 1e9

    def self_s(name: str) -> float:
        return totals[name].self_ns / 1e9

    def per_uniform(name: str) -> float:
        uniforms = totals[name].counters["uniforms"]
        return totals[name].busy_ns / uniforms if uniforms else 0.0

    fill = totals["sampling.fill_stream_rows"]
    pairs = totals["geometry.assign_pairs"]
    protocol = totals["geometry.check_protocol_model"]
    permutations = counters.get("geometry.assign_pairs.permutations", 0)
    accepted = counters.get("geometry.assign_pairs.accepted", 0)
    return {
        "sampling.fill_stream_rows.calls": fill.calls,
        "sampling.fill_stream_rows.busy_s": busy("sampling.fill_stream_rows"),
        "sampling.fill_stream_rows.ns_per_uniform": per_uniform("sampling.fill_stream_rows"),
        "sampling.max_exp_from_uniform.busy_s": busy("sampling.max_exp_from_uniform"),
        "sampling.max_exp_from_uniform.ns_per_uniform":
            per_uniform("sampling.max_exp_from_uniform"),
        "sampling.exp_from_uniform.busy_s": busy("sampling.exp_from_uniform"),
        "sampling.uniforms": fill.counters["uniforms"],
        "sampling.uniform_bytes_computed": 8 * fill.counters["uniforms"],
        "scheme.round_robin_quantile.busy_s": busy("scheme.round_robin_quantile"),
        "scheme.simulate_sessions.busy_s": busy("scheme.simulate_sessions"),
        "scheme.simulate_sessions.self_s": self_s("scheme.simulate_sessions"),
        "scheme.simulate_round_robin.busy_s": busy("scheme.simulate_round_robin"),
        "scheme.simulate_round_robin.self_s": self_s("scheme.simulate_round_robin"),
        "scheme.batches": counters.get("scheme.batches", 0),
        "scheme.sessions": counters.get("scheme.sessions", 0),
        "scheme.estimate_age_moment_formula.busy_s": busy("scheme.estimate_age_moment_formula"),
        "scheme.integrate_age_timeline.busy_s": busy("scheme.integrate_age_timeline"),
        "analytics.closed_form_age.calls": totals["analytics.closed_form_age"].calls,
        "analytics.closed_form_age.busy_s": busy("analytics.closed_form_age"),
        "expcli.run_sweep.self_s": self_s("expcli.run_sweep"),
        "geometry.assign_pairs.busy_s": busy("geometry.assign_pairs"),
        "geometry.assign_pairs.permutations": permutations,
        "geometry.assign_pairs.failures": pairs.errors,
        "geometry.assign_pairs.accept_ratio": accepted / permutations if permutations else 0.0,
        "geometry.check_protocol_model.busy_s": busy("geometry.check_protocol_model"),
        "geometry.check_protocol_model.link_pairs": protocol.counters["link_pairs"],
        "geometry.check_protocol_model.violations": protocol.counters["violations"],
        "geometry.same_cell_transmissions.busy_s": busy("geometry.same_cell_transmissions"),
        "geometry.place_nodes.busy_s": busy("geometry.place_nodes"),
    }
