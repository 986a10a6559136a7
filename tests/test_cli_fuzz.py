"""Property test of the command line: all five commands, in-process, on
generated arguments that reach the ends of float64 and of the integer flags.

Run with ``--hypothesis-profile=cli-fuzz`` (see conftest.py) for 2,000
examples instead of 300.
"""

import io
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from aoilab import scheme
from aoilab.expcli import main

# Most uniforms one example may fill.  A larger run is skipped before its
# chunk is allocated, so an example takes well under a second, and no chunk
# nears the memory an operating system may overcommit and then reclaim by
# killing the process (the refusal of a failed allocation has its own test).
_UNIFORM_BUDGET = 1 << 22


def _mostly(common, rare):
    """``common`` in four draws of five, ``rare`` in the fifth."""
    return st.integers(0, 4).flatmap(lambda k: rare if k == 0 else common)


nodes = _mostly(
    st.integers(2, 5000),
    st.sampled_from([-1, 0, 1, 2**53 - 1, 2**53 + 1, 2**64, 10**62, 10**308]),
)
cells = st.integers(-1, 64)
positive = _mostly(
    st.floats(5e-324, sys.float_info.max), st.sampled_from([0.0, -1.0, math.nan, math.inf])
)
exponents = _mostly(st.floats(0.0, 1.0, exclude_min=True), st.floats())
seeds = st.integers(0, 2**64 - 1)
sessions = _mostly(st.integers(1000, 5000), st.integers(0, 999) | st.just(10**30))
workers = st.integers(0, 3)
variants = st.sampled_from(["worsened", "exact"])
deliveries = st.sampled_from(["independent", "coupled"])


def _flags(draw, **strategies) -> list[str]:
    """Each flag given or left out; a drawn ``True`` gives a bare flag."""
    argv = []
    for name, strategy in strategies.items():
        if draw(st.booleans()):
            value = draw(strategy)
            flag = f"--{name.replace('_', '-')}"
            # --b=-1e-05: argparse takes -1e-05 alone for a flag.
            argv.append(flag if value is True else f"{flag}={value}")
    return argv


def _model(draw) -> list[str]:
    """``--n`` and ``--m`` or ``--b`` (or both, or neither) of analyze and
    simulate; ``--m`` is most often a small divisor of ``n``."""
    n = draw(nodes)
    divisors = [d for d in range(1, 65) if n > 0 and n % d == 0]
    size = {"m": _mostly(st.sampled_from(divisors), cells) if divisors else cells, "b": exponents}
    chosen = draw(_mostly(st.sampled_from([["m"], ["b"]]), st.sampled_from([["m", "b"], []])))
    return [
        f"--n={n}", *(f"--{flag}={draw(size[flag])}" for flag in chosen),
        *_flags(draw, lambda_intra=positive, lambda_inter=positive),
    ]


@st.composite
def command_lines(draw) -> list[str]:
    """A command line of any command; ``--out`` is left to the caller."""
    command = draw(st.sampled_from(["analyze", "simulate", "sweep", "topology", "baseline"]))
    run = dict(sessions=sessions, seed=seeds)
    if command == "analyze":
        return ["analyze", *_model(draw)]
    if command == "simulate":
        return ["simulate", *_model(draw), *_flags(
            draw, **run, variant=variants, delivery=deliveries, workers=workers
        )]
    if command == "sweep":
        grid = draw(st.lists(nodes, min_size=1, max_size=4))
        if draw(_mostly(st.just(True), st.just(False))):
            grid = sorted(set(grid))
        return ["sweep", f"--n-grid={','.join(map(str, grid))}", "--no-timing", *_flags(
            draw, b=exponents, lambda_intra=positive, lambda_inter=positive, **run,
            variant=variants, delivery=deliveries, baseline=st.just(True), workers=workers,
        )]
    if command == "topology":
        # Most often n/m is a square number of cells, and n at most 3000.
        m = draw(cells)
        side = st.integers(1, math.isqrt(3000 // max(m, 1)))
        n = draw(_mostly(side.map(lambda k: m * k * k), st.integers(-1, 3000)))
        return ["topology", f"--n={n}", f"--m={m}", *_flags(
            draw, area=positive, gamma=exponents, seed=seeds, allow_same_cell=st.just(True)
        )]
    return ["baseline", f"--n={draw(nodes)}", *_flags(draw, rate=positive, **run)]


class _OverBudget(Exception):
    pass


def _numbers(text: str) -> dict[str, float]:
    """Each ``key=value`` of ``text`` whose value is a number, the last one
    of each key kept."""
    found = {}
    for token in text.split():
        key, _, value = token.rpartition("=")
        try:
            found[key] = float(value)
        except ValueError:
            pass
    return found


def _check_output(argv: list[str], out: str, out_dir: Path) -> None:
    """On success: every number printed or written is finite, and a worsened
    simulation or a baseline of at least 1000 sessions agrees with its
    closed form within 8 standard errors."""
    printed = out
    if argv[0] == "sweep":
        printed += "".join(p.read_text().replace(",", " ") for p in sorted(out_dir.iterdir()))
    header = _numbers(out.splitlines()[0]) if argv[0] in ("simulate", "baseline") else {}
    for token in printed.split():
        value = token.rpartition("=")[2]
        try:
            number = float(value)
        except ValueError:
            continue
        # A run of fewer than 64 sessions is one batch, with no standard error.
        if token == "stderr=nan" and header.get("sessions", math.inf) < 64:
            continue
        assert math.isfinite(number), f"{token!r} printed by {argv}:\n{out}"

    if header.get("sessions", 0) < 1000 or "variant=exact" in out:
        return
    lines = out.splitlines()
    if argv[0] == "simulate":
        closed = _numbers(lines[1])["delta_analytic"]
        moment = _numbers(lines[2])
        estimate, std_err = moment["delta_moment"], moment["stderr"]
    else:
        closed = _numbers(lines[1])["delta_closed_form"]
        sim = _numbers(lines[2])
        estimate, std_err = sim["delta_sim"], sim["stderr"]
    # Where every batch agrees to the last bit (n = 2e70, m = 2) se is 0.
    assert abs(estimate - closed) <= 8 * std_err + 1e-12 * abs(closed), (argv, out)


@settings(
    max_examples=max(300, settings.default.max_examples),
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(argv=command_lines())
def test_every_command_line_exits_with_a_code_and_finite_numbers(argv):
    spent = []
    fill = scheme.fill_stream_rows

    def budgeted_fill(master_seed, base_stream_index, first_session, rows, width):
        spent.append(rows * width)
        if sum(spent) > _UNIFORM_BUDGET:
            raise _OverBudget
        return fill(master_seed, base_stream_index, first_session, rows, width)

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        if argv[0] in ("sweep", "topology"):
            argv = [*argv, "--out", str(out_dir)]
        with (
            mock.patch.object(scheme, "fill_stream_rows", budgeted_fill),
            warnings.catch_warnings(),
            redirect_stdout(out),
            redirect_stderr(err),
        ):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except _OverBudget:
                reject()
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 0:
            _check_output(argv, out.getvalue(), out_dir)
