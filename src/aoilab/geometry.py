"""Node placement, cell partition, pairing, and interference checking.

The scheme's analytic layer idealizes cells as holding exactly m nodes;
this module is the physical-plausibility counterpart: nodes land uniformly
on a square, cells are a regular grid, and simultaneous in-cell
transmissions are scheduled with a 9-group TDMA reuse pattern whose
admissibility is checked against the protocol interference model
d(receiver, interferer) >= (1 + gamma) * d(receiver, transmitter).

Source-destination pairs avoid sharing a cell.  Whether such a pairing
exists is decided exactly (Hall's condition), and one is drawn uniformly
by a lazy Markov-chain walk over admissible permutations, so pairing
never gives up on a feasible topology.  The protocol check compares
link pairs in fixed-size numpy blocks, so its memory stays linear in
the number of links.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

TDMA_GROUPS = 9
GUARD_ZONE_LIMIT = math.sqrt(2.0) - 1.0  # largest gamma the 9-TDMA pattern tolerates
_PAIR_BLOCK = 4096  # node pairs per block of the protocol and farthest-pair checks


@dataclass(frozen=True)
class CellGrid:
    """Regular partition of the square into cells_per_side^2 equal cells."""

    area_side: float
    cells_per_side: int

    @property
    def cell_len(self) -> float:
        return self.area_side / self.cells_per_side

    @property
    def num_cells(self) -> int:
        return self.cells_per_side * self.cells_per_side


@dataclass
class Topology:
    area_side: float
    positions: np.ndarray  # (n, 2)
    grid: CellGrid | None = None
    cell_of: np.ndarray | None = None
    pairing: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.positions.shape[0])

    @property
    def cells_per_side(self) -> int:
        if self.grid is None:
            raise ValueError("topology has no cell grid; call with_cells first")
        return self.grid.cells_per_side

    def with_cells(self, grid: CellGrid) -> "Topology":
        return replace(self, grid=grid, cell_of=cell_index(grid, self.positions))


def place_nodes(n: int, area: float, stream: np.random.Generator) -> Topology:
    """n points uniform and independent on the square of the given area."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not area > 0:
        raise ValueError(f"area must be > 0, got {area}")
    side = math.sqrt(area)
    return Topology(area_side=side, positions=stream.random((int(n), 2)) * side)


def build_cells(n: int, m: int, area: float) -> CellGrid:
    """Grid of n/m equal square cells of side sqrt(area * m / n).

    n/m must be a perfect square for the grid to tile the square area.
    """
    if n < 1 or m < 1 or n % m != 0:
        raise ValueError(f"need m dividing n, got n={n}, m={m}")
    cells = n // m
    per_side = math.isqrt(cells)
    if per_side * per_side != cells:
        raise ValueError(
            f"n/m = {cells} cells cannot tile a square grid; pick m so that "
            f"n/m is a perfect square (e.g. m={n // (per_side * per_side)})"
        )
    if not area > 0:
        raise ValueError(f"area must be > 0, got {area}")
    return CellGrid(area_side=math.sqrt(area), cells_per_side=per_side)


def cell_index(grid: CellGrid, points: np.ndarray) -> np.ndarray:
    """Row-major cell index of each point; boundary points go to the last cell."""
    scaled = np.floor(points / grid.cell_len).astype(np.int64)
    scaled = np.clip(scaled, 0, grid.cells_per_side - 1)
    return scaled[:, 1] * grid.cells_per_side + scaled[:, 0]


def assign_pairs(
    topology: Topology,
    stream: np.random.Generator,
    forbid_same_cell: bool = True,
) -> tuple[np.ndarray, int]:
    """Uniform random admissible destination permutation, by a Markov-chain walk.

    Admissible means no node paired with itself and, if ``forbid_same_cell``
    (requires a cell grid), no pair within one cell.  Give every node a
    label, its cell or else its own id; a permutation is admissible iff
    it maps no node to a node of the same label.  By Hall's theorem one
    exists iff no label class holds more than n/2 nodes, so anything
    else raises ``RuntimeError`` naming the largest class.

    The walk starts from the nodes sorted by label and shifted by the
    largest class size, which is admissible.  Each sweep splits one
    ``stream.permutation(n)`` into disjoint pairs that propose to swap
    destinations, and a second one into disjoint triples that propose to
    rotate them.  A proposal that stays admissible is applied with
    probability 1/2 (one ``stream.random`` draw each).  The proposal is
    symmetric and lazy, so the uniform law on admissible permutations is
    stationary; swaps alone leave some small occupancy patterns
    disconnected, and the 3-cycles join them.  A fixed
    ``3*ceil(log2 n) + 32`` sweeps run, in the spirit of the
    random-transposition shuffle (Diaconis and Shahshahani, 1981).

    Returns the pairing and the number of proposals not applied, because
    they were inadmissible or lost the coin.
    """
    if forbid_same_cell and topology.cell_of is None:
        raise ValueError("forbid_same_cell requires a topology with assigned cells")
    n = topology.n
    label = np.asarray(topology.cell_of) if forbid_same_cell else np.arange(n)
    values, counts = np.unique(label, return_counts=True)
    largest = int(counts.max(initial=0))
    if 2 * largest > n:
        kind = "cell" if forbid_same_cell else "node"
        raise RuntimeError(
            f"no admissible pairing exists: {kind} {values[counts.argmax()]} holds "
            f"{largest} of {n} nodes, more than n/2 (Hall's condition)"
        )
    order = np.argsort(label, kind="stable")
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.roll(order, -largest)

    # Row i of a group takes the destination of row i + 1, cyclically.
    moves = [(size, (np.arange(size) + 1) % size) for size in (2, 3)]
    rejected = 0
    sweeps = 3 * max(n - 1, 0).bit_length() + 32  # 3*ceil(log2 n) + 32
    for _ in range(sweeps):
        for size, rotate in moves:
            groups = n // size
            nodes = stream.permutation(n)[: groups * size].reshape(groups, size).T
            dest = perm[nodes]
            moved = dest[rotate]
            admissible = np.logical_and.reduce(label[moved] != label[nodes])
            ok = admissible & (stream.random(groups) < 0.5)
            perm[nodes] = np.where(ok, moved, dest)
            rejected += groups - int(np.count_nonzero(ok))
    return perm, rejected


@dataclass(frozen=True)
class TdmaGroups:
    """The 9 spatial-reuse groups: cells with equal (row mod 3, col mod 3)."""

    groups: tuple[tuple[int, ...], ...]


def tdma_groups(grid: CellGrid) -> TdmaGroups:
    """Partition cells into 9 groups; within a group, active cells are at
    least three grid steps apart along each axis, leaving two inactive
    cells between any two active ones."""
    per_side = grid.cells_per_side
    buckets: list[list[int]] = [[] for _ in range(TDMA_GROUPS)]
    for row in range(per_side):
        for col in range(per_side):
            buckets[(row % 3) * 3 + (col % 3)].append(row * per_side + col)
    return TdmaGroups(groups=tuple(tuple(b) for b in buckets))


@dataclass(frozen=True)
class Violation:
    """One protocol-model failure: the interferer sits inside the guard zone."""

    receiver: int
    transmitter: int
    interferer: int
    d_own: float
    d_interferer: float
    margin: float  # d_interferer - (1 + gamma) * d_own, negative here


def _distances(diff: np.ndarray) -> np.ndarray:
    # Bit-identical to np.linalg.norm of each 2-vector, which also takes a
    # dot product; sqrt(dx*dx + dy*dy) can differ in the last bit.
    return np.sqrt(np.vecdot(diff, diff))


def check_protocol_model(
    topology: Topology,
    transmissions: list[tuple[int, int]],
    gamma: float,
) -> list[Violation]:
    """Check every receiver against every other active transmitter.

    ``transmissions`` lists (transmitter, receiver) node pairs assumed
    simultaneously active.  A reception fails when some other transmitter k
    satisfies d(rx, k) < (1 + gamma) * d(rx, tx); a transmitter never
    interferes with its own links.  Violations come in (link, interfering
    link) order of the list.  An empty result means the configuration is
    admissible.

    Distances are computed in blocks of about ``_PAIR_BLOCK`` link pairs,
    so memory stays linear in the number of links.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    links = np.asarray(transmissions, dtype=np.int64).reshape(len(transmissions), 2)
    tx, rx = links[:, 0], links[:, 1]
    same = np.flatnonzero(tx == rx)
    if same.size:
        raise ValueError(f"transmitter and receiver coincide: node {tx[same[0]]}")
    pos = topology.positions
    d_own = _distances(pos[rx] - pos[tx])
    threshold = (1.0 + gamma) * d_own
    tx_ids, rx_ids = tx.tolist(), rx.tolist()
    violations: list[Violation] = []
    rows = max(1, _PAIR_BLOCK // max(len(links), 1))
    for lo in range(0, len(links), rows):
        hi = min(lo + rows, len(links))
        d_int = _distances(pos[rx[lo:hi], None, :] - pos[None, tx, :])
        hit = (d_int < threshold[lo:hi, None]) & (tx[None, :] != tx[lo:hi, None])
        i, j = np.nonzero(hit)
        d = d_int[i, j]
        i += lo
        for link, other, d_i, d_k, t in zip(
            i.tolist(), j.tolist(), d_own[i].tolist(), d.tolist(), threshold[i].tolist()
        ):
            violations.append(
                Violation(
                    receiver=rx_ids[link],
                    transmitter=tx_ids[link],
                    interferer=tx_ids[other],
                    d_own=d_i,
                    d_interferer=d_k,
                    margin=d_k - t,
                )
            )
    return violations


def same_cell_transmissions(
    topology: Topology, cells: tuple[int, ...] | list[int]
) -> list[tuple[int, int]]:
    """One worst-case in-cell link per listed cell, in list order.

    For each cell holding at least two nodes, picks the farthest-apart node
    pair (the longest own-link the protocol model could face); of equally
    far pairs, the first in row-major order of the cell's distance matrix
    over ascending node ids.  Cells with fewer than two nodes are skipped.
    Cells of equal occupancy k are handled together, in blocks of about
    ``_PAIR_BLOCK`` node pairs.
    """
    if topology.cell_of is None:
        raise ValueError("topology has no cell assignment")
    order = np.argsort(topology.cell_of, kind="stable")
    sorted_cells = topology.cell_of[order]
    wanted = np.asarray(cells, dtype=sorted_cells.dtype)
    starts = np.searchsorted(sorted_cells, wanted, side="left")
    sizes = np.searchsorted(sorted_cells, wanted, side="right") - starts
    listed = np.flatnonzero(sizes >= 2)
    first = np.empty(len(wanted), dtype=order.dtype)
    second = np.empty(len(wanted), dtype=order.dtype)
    for k in np.unique(sizes[listed]).tolist():
        at = listed[sizes[listed] == k]
        rows = max(1, _PAIR_BLOCK // (k * k))
        for lo in range(0, len(at), rows):
            block = at[lo : lo + rows]
            # Ascending node ids per cell: the sort is stable.
            members = order[starts[block, None] + np.arange(k)]
            pts = topology.positions[members]
            dist = _distances(pts[:, :, None, :] - pts[:, None, :, :])
            i, j = np.divmod(dist.reshape(len(block), k * k).argmax(axis=1), k)
            cell = np.arange(len(block))
            first[block], second[block] = members[cell, i], members[cell, j]
    return list(zip(first[listed].tolist(), second[listed].tolist()))


def corner_case_witness(area: float = 1.0, cells_per_side: int = 5) -> tuple[Topology, list[tuple[int, int]]]:
    """Adversarial same-group configuration sitting on the guard-zone edge.

    Transmitter at a cell corner, receiver at the opposite corner (own link
    ~ r*sqrt(2)), interferer at the nearest corner of the nearest cell in
    the same TDMA group (distance ~ 2r).  Admissible at
    gamma = sqrt(2) - 1, violated for any larger guard zone.
    """
    if cells_per_side < 4:
        raise ValueError("need at least 4 cells per side to host the witness")
    grid = CellGrid(area_side=math.sqrt(area), cells_per_side=cells_per_side)
    r = grid.cell_len
    eps = 1e-9 * r
    positions = np.array(
        [
            [0.0, 0.0],              # transmitter, cell (0, 0)
            [r - eps, r - eps],      # its receiver, opposite corner of cell (0, 0)
            [3.0 * r, r - eps],      # interfering transmitter, cell (0, 3): same group
            [3.5 * r, 0.5 * r],      # interferer's own receiver
        ]
    )
    topo = Topology(area_side=grid.area_side, positions=positions).with_cells(grid)
    return topo, [(0, 1), (2, 3)]


def write_topology_csv(topology: Topology, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node_id", "x", "y", "cell_id", "dest_id"])
        cell_of = topology.cell_of
        pairing = topology.pairing
        for i in range(topology.n):
            writer.writerow(
                [
                    i,
                    repr(float(topology.positions[i, 0])),
                    repr(float(topology.positions[i, 1])),
                    "" if cell_of is None else int(cell_of[i]),
                    "" if pairing is None else int(pairing[i]),
                ]
            )


def read_topology_csv(path, area_side: float, grid: CellGrid | None = None) -> Topology:
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


def write_violations_csv(violations: list[Violation], gamma: float, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["receiver", "transmitter", "interferer", "d_ji", "d_jk", "gamma", "margin"]
        )
        for v in violations:
            writer.writerow(
                [
                    v.receiver,
                    v.transmitter,
                    v.interferer,
                    repr(v.d_own),
                    repr(v.d_interferer),
                    repr(gamma),
                    repr(v.margin),
                ]
            )
