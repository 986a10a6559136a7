import csv
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from aoilab import scheme
from aoilab.geometry import Topology
from aoilab.sampling import fill_stream_rows

# The command-line property test (test_cli_fuzz.py) at CI's example count.
settings.register_profile("cli-fuzz", max_examples=2000)


@pytest.fixture
def fills(monkeypatch):
    """``(first_session, rows, width)`` of every fill ``_run_batches`` makes."""
    calls = []
    fill = scheme.fill_stream_rows

    def recording(master_seed, base_stream_index, first_session, rows, width):
        calls.append((first_session, rows, width))
        return fill(master_seed, base_stream_index, first_session, rows, width)

    monkeypatch.setattr(scheme, "fill_stream_rows", recording)
    return calls


def _kernel_columns(kernel, width, sessions, master_seed, base_stream_index):
    """Every column of sessions ``0 .. sessions - 1`` of a run: row ``s`` of
    its window of draws through ``kernel``, the rows the batch engine draws."""
    rows = max(1, (1 << 20) // width)
    parts = [
        kernel(fill_stream_rows(
            master_seed, base_stream_index, lo, min(rows, sessions - lo), width
        ))
        for lo in range(0, sessions, rows)
    ]
    return SimpleNamespace(**{name: np.concatenate([p[name] for p in parts]) for name in parts[0]})


@pytest.fixture
def session_columns():
    """``columns(params, sessions, variant=, delivery=, master_seed=,
    base_stream_index=)``: the per-session columns ``y1, y2, y3, z, d, y``
    of the run ``simulate_sessions`` makes with the same arguments, which
    keeps only their batch sums."""

    def columns(params, sessions, *, variant="worsened", delivery="independent",
                master_seed=0, base_stream_index=0):
        if scheme.Variant(variant) == scheme.Variant.WORSENED:
            mode = scheme.DeliveryMode(delivery)
            kernel = lambda u: scheme._worsened_kernel(u, params, mode)  # noqa: E731
            width = scheme._worsened_width(params)
        else:
            kernel = lambda u: scheme._exact_kernel(u, params)  # noqa: E731
            width = scheme._exact_width(params)
        return _kernel_columns(kernel, width, sessions, master_seed, base_stream_index)

    return columns


@pytest.fixture
def round_robin_columns():
    """``columns(n, rate, sessions, master_seed=, base_stream_index=)``: the
    columns of the run ``simulate_round_robin`` makes with the same arguments."""

    def columns(n, rate, sessions, *, master_seed=0, base_stream_index=0):
        kernel = lambda u: scheme._round_robin_kernel(u, n, rate)  # noqa: E731
        return _kernel_columns(
            kernel, scheme._ROUND_ROBIN_WIDTH, sessions, master_seed, base_stream_index
        )

    return columns


def _read_topology_csv(path, area_side):
    node_ids, xs, ys, cells, dests = [], [], [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            node_ids.append(int(row["node_id"]))
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
            cells.append(int(row["cell_id"]) if row["cell_id"] else -1)
            dests.append(int(row["dest_id"]) if row["dest_id"] else -1)
    order = np.argsort(node_ids)
    positions = np.column_stack([np.array(xs)[order], np.array(ys)[order]])
    cell_arr = np.array(cells)[order]
    dest_arr = np.array(dests)[order]
    return Topology(
        area_side=area_side,
        positions=positions,
        cell_of=None if np.all(cell_arr < 0) else cell_arr,
        pairing=None if np.all(dest_arr < 0) else dest_arr,
    )


@pytest.fixture
def read_topology_csv():
    """``read(path, area_side)``: the Topology in a file of ``write_topology_csv``."""
    return _read_topology_csv
