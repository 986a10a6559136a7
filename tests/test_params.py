"""The input rules of `aoilab.params` and the entry points that apply them.

Each kind of input has one rule: a node count, cell size, session count,
worker count, seed or stream index is an integer (not a bool) of at least
its minimum; a rate, area or divisor target is a real (not a bool) that is
finite and > 0; the cell exponent b is a real (not a bool) in (0, 1].
"""

import math
import re

import numpy as np
import pytest

from aoilab.analytics import (
    asymptotic_age,
    gen_harmonic,
    harmonic,
    order_stat_moments,
    scaling_exponent,
)
from aoilab.expcli import divisor_adjusted_m
from aoilab.geometry import build_cells, place_nodes
from aoilab.params import SchemeParams, cell_exponent, finite_positive, integer_at_least
from aoilab.sampling import StreamSpec, make_stream
from aoilab.scheme import simulate_coupled_pairs, simulate_round_robin, simulate_sessions

P = SchemeParams(64, 4)

# (call, the ValueError's whole message)
REFUSALS = [
    pytest.param(lambda: integer_at_least("k", 2.0, 1), "k must be an integer, got 2.0",
                 id="integer_at_least-float"),
    pytest.param(lambda: finite_positive("x", "1"), "x must be finite and > 0, got 1",
                 id="finite_positive-str"),
    pytest.param(lambda: finite_positive("x", 10**400), f"x must be finite and > 0, got {10**400}",
                 id="finite_positive-beyond-float64"),
    pytest.param(lambda: cell_exponent(np.float64(0)), "b must lie in (0, 1], got 0.0",
                 id="cell_exponent-zero"),
    # A float seed ran seed 1's stream and was recorded as 1.5.
    pytest.param(lambda: simulate_sessions(P, 100, master_seed=1.5),
                 "master_seed must be an integer, got 1.5", id="simulate_sessions-seed-float"),
    pytest.param(lambda: simulate_sessions(P, 100, base_stream_index=2.0),
                 "stream_index must be an integer, got 2.0", id="simulate_sessions-index-float"),
    pytest.param(lambda: simulate_sessions(P, True), "sessions must be an integer, got True",
                 id="simulate_sessions-sessions-bool"),
    pytest.param(lambda: simulate_sessions(P, 1000.0), "sessions must be an integer, got 1000.0",
                 id="simulate_sessions-sessions-float"),
    pytest.param(lambda: simulate_sessions(P, 100, workers=2.0),
                 "workers must be an integer, got 2.0", id="simulate_sessions-workers-float"),
    pytest.param(lambda: simulate_coupled_pairs(P, 10.0), "sessions must be an integer, got 10.0",
                 id="simulate_coupled_pairs-sessions-float"),
    pytest.param(lambda: SchemeParams(64, 4, True),
                 "lambda_intra must be finite and > 0, got True", id="SchemeParams-rate-bool"),
    pytest.param(lambda: simulate_round_robin(6, True, 100),
                 "rate must be finite and > 0, got True", id="simulate_round_robin-rate-bool"),
    pytest.param(lambda: StreamSpec(1.5), "master_seed must be an integer, got 1.5",
                 id="StreamSpec-seed-float"),
    pytest.param(lambda: StreamSpec(-1), "master_seed must be >= 0, got -1",
                 id="StreamSpec-seed-negative"),
    pytest.param(lambda: StreamSpec(0, 2**64), f"stream_index must fit in 64 bits, got {2**64}",
                 id="StreamSpec-index-beyond-64-bits"),
    pytest.param(lambda: build_cells(100.0, 4, 1.0), "n must be an integer, got 100.0",
                 id="build_cells-n-float"),
    pytest.param(lambda: build_cells(100, True, 1.0), "m must be an integer, got True",
                 id="build_cells-m-bool"),
    pytest.param(lambda: build_cells(0, 4, 1.0), "n must be >= 1, got 0", id="build_cells-n-zero"),
    pytest.param(lambda: place_nodes(5, True, make_stream(StreamSpec(0))),
                 "area must be finite and > 0, got True", id="place_nodes-area-bool"),
    pytest.param(lambda: harmonic(True), "n must be an integer, got True", id="harmonic-bool"),
    pytest.param(lambda: gen_harmonic(True), "n must be an integer, got True",
                 id="gen_harmonic-bool"),
    pytest.param(lambda: order_stat_moments(True, True, 1.0), "k must be an integer, got True",
                 id="order_stat_moments-bools"),
    pytest.param(lambda: order_stat_moments(4, 3, 1.0), "n must be >= 4 (= k), got 3",
                 id="order_stat_moments-k-above-n"),
    pytest.param(lambda: scaling_exponent(True), "b must lie in (0, 1], got True",
                 id="scaling_exponent-bool"),
    pytest.param(lambda: asymptotic_age(100.0, 0.5), "n must be an integer, got 100.0",
                 id="asymptotic_age-n-float"),
    pytest.param(lambda: asymptotic_age(100, 0.5, lambda_inter=True),
                 "lambda_inter must be finite and > 0, got True", id="asymptotic_age-rate-bool"),
    pytest.param(lambda: divisor_adjusted_m(64.0, 4.0), "n must be an integer, got 64.0",
                 id="divisor_adjusted_m-n-float"),
    pytest.param(lambda: divisor_adjusted_m(64, math.inf),
                 "target must be finite and > 0, got inf", id="divisor_adjusted_m-target-inf"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_accepted_values_are_stored_as_python_numbers():
    run = simulate_sessions(P, 100, master_seed=np.uint64(3), base_stream_index=np.int8(1))
    assert (run.master_seed, run.base_stream_index) == (3, 1)
    assert type(run.master_seed) is int and type(run.base_stream_index) is int
    params = SchemeParams(64, 4, np.float32(0.5), 2)
    assert (params.lambda_intra, params.lambda_inter) == (0.5, 2.0)
    assert type(params.lambda_intra) is float and type(params.lambda_inter) is float
    assert type(cell_exponent(1)) is float
