import csv

import numpy as np
import pytest

from aoilab import scheme
from aoilab.geometry import Topology


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


def _read_topology_csv(path, area_side, grid=None):
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
        grid=grid,
        cell_of=None if np.all(cell_arr < 0) else cell_arr,
        pairing=None if np.all(dest_arr < 0) else dest_arr,
    )


@pytest.fixture
def read_topology_csv():
    """``read(path, area_side, grid=None)``: the Topology in a file of ``write_topology_csv``."""
    return _read_topology_csv
