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
never gives up on a feasible topology.  The walk moves the cell of each
node's destination, not the destination node, and a last shuffle picks
the node within each cell; this is exact, because admissibility depends
on cells only.  The protocol check compares only links in neighbouring
buckets of a grid as wide as the largest guard zone, in fixed-size numpy
blocks, so its memory stays linear in the number of links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .params import finite_positive, integer_at_least

GUARD_ZONE_LIMIT = math.sqrt(2.0) - 1.0  # largest gamma the 9-TDMA pattern tolerates
_PAIR_BLOCK = 4096  # node pairs per block of the protocol and farthest-pair checks
# Protocol-check buckets: the side exceeds the largest threshold by this
# relative margin; a bucket's key is column * 2**26 + row, exact in float64
# while |column| and |row| stay within 2**24 + 1.
_BUCKET_MARGIN = 2.0**-20
_BUCKET_KEY = np.array([2.0**26, 1.0])
_NEIGHBOURS = np.array([dx * 2.0**26 + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
_RUN = np.array([0.0, 0.5])  # searchsorted edges of the entries under one key
_FLOAT_MAX = float(np.finfo(float).max)
_FLOAT_TINY = float(np.finfo(float).tiny)  # smallest normal float64


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


@dataclass(frozen=True)
class Topology:
    area_side: float
    positions: np.ndarray  # (n, 2)
    cell_of: np.ndarray | None = None
    pairing: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.positions.shape[0])

    @cached_property
    def _farthest(self) -> _FarthestPairs:
        # Built by the first same_cell_transmissions call; the topology is
        # frozen, so its cells and positions cannot change under the table.
        return _FarthestPairs.build(self.cell_of, self.positions)

    def with_cells(self, grid: CellGrid) -> "Topology":
        return replace(self, cell_of=cell_index(grid, self.positions))


def _square_side(area: float) -> float:
    """Side of the square of ``area``.  Squared distances across the square
    reach twice its area, so an area above half the largest float64 is
    refused as well as one that is not finite and positive."""
    area = finite_positive("area", area)
    if area > _FLOAT_MAX / 2:
        raise ValueError(
            f"area must be at most {_FLOAT_MAX / 2!r}, half the largest float64, "
            f"so that squared distances stay finite; got {area}"
        )
    return math.sqrt(area)


def place_nodes(n: int, area: float, stream: np.random.Generator) -> Topology:
    """n points uniform and independent on the square of the given area."""
    n = integer_at_least("n", n, 1)
    side = _square_side(area)
    return Topology(area_side=side, positions=stream.random((n, 2)) * side)


def build_cells(n: int, m: int, area: float) -> CellGrid:
    """Grid of n/m equal square cells of side sqrt(area * m / n).

    n/m must be a perfect square for the grid to tile the square area, and
    a cell's area must be at least the smallest normal float64: squared
    distances within a smaller cell round to subnormals or to 0.
    """
    n, m = integer_at_least("n", n, 1), integer_at_least("m", m, 1)
    if n % m != 0:
        raise ValueError(f"need m dividing n, got n={n}, m={m}")
    cells = n // m
    per_side = math.isqrt(cells)
    if per_side * per_side != cells:
        raise ValueError(
            f"n/m = {cells} cells cannot tile a square grid; pick m so that "
            f"n/m is a perfect square (e.g. m={n // (per_side * per_side)})"
        )
    side = _square_side(area)
    if area / cells < _FLOAT_TINY:
        raise ValueError(
            f"area {area} over {cells} cells gives each cell an area below the "
            f"smallest normal float64, {_FLOAT_TINY!r}"
        )
    return CellGrid(area_side=side, cells_per_side=per_side)


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

    The walk moves destination labels, not destination nodes: its state
    is the label of each node's destination.  It starts from the nodes
    sorted by label and shifted by the largest class size, which is
    admissible.  Each sweep draws one shuffle, ``stream.permutation(n)``,
    and the coins of both its steps, ``stream.integers(0, 2,
    n // 2 + n // 3, dtype=bool)``.  First the shuffle cut into disjoint
    pairs proposes to swap destinations, then the same shuffle cut into
    disjoint triples proposes to rotate them; group k of size s is
    ``shuffle[k + j * (n // s)]`` for j < s.  A proposal that stays
    admissible is applied if its coin is 1.  Swaps alone leave some small
    occupancy patterns disconnected, and the 3-cycles join them.  A fixed
    ``3*ceil(log2 n) + 32`` sweeps run, in the spirit of the
    random-transposition shuffle (Diaconis and Shahshahani, 1981).  A
    last shuffle matches each class's senders to its members in uniform
    random order.

    The same walk on destination nodes, with the same draws, sends every
    node's destination into the same label at every step, because whether
    a move is admissible depends on labels only.  So after any number of
    sweeps the label arrangement has the law of the node walk's
    projection.  Every admissible arrangement is the projection of exactly
    ``prod_c k_c!`` admissible permutations, k_c being the size of class
    c, so a uniform arrangement, with each class's senders matched to its
    members uniformly, is a uniform admissible permutation.  A uniform
    matching within classes can only bring a law closer to uniform: the
    result is at least as close to uniform as the node walk's after the
    same sweeps.

    The uniform law on admissible permutations is stationary for the node
    walk because the swaps come first.  For a fixed shuffle the swap step
    is symmetric, so its columns sum to 1, and the sweep's column sums
    are those of the 3-cycle step alone.  Averaged over the uniform
    shuffle, which lists each triple in either orientation equally often,
    the 3-cycle step is symmetric, so those sums are 1.  Run the other way
    round, the 3-cycle step's column sums would be weighted by a swap
    step drawn from the same shuffle, and the average need not be 1.

    Returns the pairing and the number of proposals not applied, because
    they were inadmissible or lost the coin.
    """
    if forbid_same_cell and topology.cell_of is None:
        raise ValueError("forbid_same_cell requires a topology with assigned cells")
    n = topology.n
    label = np.asarray(topology.cell_of) if forbid_same_cell else np.arange(n)
    values, inverse, counts = np.unique(label, return_inverse=True, return_counts=True)
    largest = int(counts.max(initial=0))
    if 2 * largest > n:
        kind = "cell" if forbid_same_cell else "node"
        raise RuntimeError(
            f"no admissible pairing exists: {kind} {values[counts.argmax()]} holds "
            f"{largest} of {n} nodes, more than n/2 (Hall's condition)"
        )
    lab = inverse.astype(np.int32)  # dense class index of each node
    order = np.argsort(lab, kind="stable")
    dest_lab = np.empty(n, dtype=np.int32)
    dest_lab[order] = lab[np.roll(order, -largest)]

    # Row i of a group takes the destination of row i + 1, cyclically.
    moves = [(size, (np.arange(size) + 1) % size) for size in (2, 3)]
    rejected = 0
    sweeps = 3 * max(n - 1, 0).bit_length() + 32  # 3*ceil(log2 n) + 32
    for _ in range(sweeps):
        shuffle = stream.permutation(n)
        coins = stream.integers(0, 2, n // 2 + n // 3, dtype=bool)
        src, dst = lab[shuffle], dest_lab[shuffle]
        for size, rotate in moves:  # swaps, then 3-cycles: see the docstring
            groups = n // size
            end = groups * size
            # Group k is shuffle[k], shuffle[k + groups], ...: one row each.
            dest = dst[:end].reshape(size, groups)
            moved = dest[rotate]
            admissible = np.logical_and.reduce(moved != src[:end].reshape(size, groups))
            ok, coins = admissible & coins[:groups], coins[groups:]
            # A branch-free np.where: on fresh random masks np.where's branches
            # mispredict, and it takes two to three times as long.
            dest += (moved - dest) * ok
            rejected += groups - int(np.count_nonzero(ok))
        dest_lab[shuffle] = dst

    # Each class's senders take its members in a uniformly random order.
    shuffle = stream.permutation(n)
    perm = np.empty(n, dtype=np.int64)
    perm[shuffle[np.argsort(dest_lab[shuffle], kind="stable")]] = order
    return perm, rejected


@dataclass(frozen=True)
class TdmaGroups:
    """The 9 spatial-reuse groups: cells with equal (row mod 3, col mod 3)."""

    groups: tuple[tuple[int, ...], ...]


def tdma_groups(grid: CellGrid) -> TdmaGroups:
    """Partition cells into 9 groups; within a group, active cells are at
    least three grid steps apart along each axis, leaving two inactive
    cells between any two active ones.  Group (row mod 3) * 3 + (col mod 3)
    lists its cells in ascending id."""
    per_side = grid.cells_per_side
    ids = np.arange(grid.num_cells).reshape(per_side, per_side)
    return TdmaGroups(
        groups=tuple(
            tuple(ids[row::3, col::3].ravel().tolist()) for row in range(3) for col in range(3)
        )
    )


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

    Only nearby links are compared.  Link ends fall into square buckets
    whose side exceeds every threshold (1 + gamma) * d(rx, tx), so a
    transmitter inside a receiver's guard zone lies in one of the 3x3
    buckets around the receiver's.  Those candidate link pairs are
    expanded in blocks of at most ``_PAIR_BLOCK`` pairs, or one receiver's
    candidates if it has more, so memory stays linear in the number of
    links.  With a large gamma all links share a few buckets, and every
    pair is compared.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    links = np.asarray(transmissions, dtype=np.int64).reshape(len(transmissions), 2)
    tx, rx = links[:, 0], links[:, 1]
    if (tx == rx).any():
        raise ValueError(f"transmitter and receiver coincide: node {tx[(tx == rx).argmax()]}")
    ends = topology.positions[links]  # (links, 2, 2): transmitter, then receiver
    tx_pos, rx_pos = ends[:, 0], ends[:, 1]
    d_own = _distances(rx_pos - tx_pos)
    threshold = (1.0 + gamma) * d_own
    reach = float(np.fmax.reduce(threshold, initial=0.0))
    if not reach > 0.0:
        return []  # no distance is below a zero threshold

    # A transmitter closer to a receiver than its threshold is, along each
    # axis, less than reach * (1 + 2**-50) away (a computed distance may be
    # a few ulps short), so less than a side.  floor_divide gives the exact
    # floor of each quotient, so the two bucket coordinates differ by at
    # most 1.  The second bound keeps quotients within 2**24.
    side = max(reach * (1.0 + _BUCKET_MARGIN), float(np.abs(ends).max()) * 2.0**-24)
    key = (ends // side) @ _BUCKET_KEY  # (links, 2): transmitter's, receiver's
    # Each transmitter is entered under its own bucket and the 8 around it,
    # so a receiver's candidates are one run of entries under its bucket,
    # in ascending link order (the sort is stable).
    entry = (key[:, :1] + _NEIGHBOURS).ravel()
    order = entry.argsort(kind="stable")
    bounds = entry[order].searchsorted(key[:, 1:] + _RUN)
    count = bounds[:, 1] - bounds[:, 0]
    run_end = count.cumsum()
    shift = bounds[:, 0] - run_end + count  # flat candidate index -> sorted entry
    source = order // len(_NEIGHBOURS)  # link of each sorted entry

    violations: list[Violation] = []
    lo = 0  # first receiver of the block
    while lo < len(links):
        # Whole runs: up to _PAIR_BLOCK candidate pairs, or else one receiver's.
        start = int(run_end[lo] - count[lo])
        hi = max(lo + 1, int(run_end.searchsorted(start + _PAIR_BLOCK, side="right")))
        size = count[lo:hi]
        i = np.arange(lo, hi).repeat(size)
        j = source[np.arange(start, start + len(i)) + shift[lo:hi].repeat(size)]
        d_int = _distances(rx_pos[i] - tx_pos[j])
        hit = ((d_int < threshold[i]) & (tx[j] != tx[i])).nonzero()[0]
        lo = hi
        if not hit.size:
            continue
        i, j, d_int = i[hit], j[hit], d_int[hit]
        tx_ids, rx_ids = tx.tolist(), rx.tolist()
        violations += [
            Violation(
                receiver=rx_ids[link],
                transmitter=tx_ids[link],
                interferer=tx_ids[other],
                d_own=d_i,
                d_interferer=d_k,
                margin=d_k - t,
            )
            for link, other, d_i, d_k, t in zip(
                i.tolist(), j.tolist(), d_own[i].tolist(), d_int.tolist(), threshold[i].tolist()
            )
        ]
    return violations


@dataclass(frozen=True)
class _FarthestPairs:
    """Each shared cell's farthest-apart node pair, for given cells and positions."""

    cells: np.ndarray  # ascending ids of the cells holding 2+ nodes
    pairs: np.ndarray  # (cells, 2): each one's farthest pair of node ids

    @classmethod
    def build(cls, cell_of: np.ndarray, positions: np.ndarray) -> "_FarthestPairs":
        # Stable, so each cell's members come in ascending node id.
        order = cell_of.argsort(kind="stable")
        sorted_cells = cell_of[order]
        starts = np.diff(sorted_cells, prepend=sorted_cells[:1] - 1).nonzero()[0]
        sizes = np.diff(starts, append=len(order))
        shared = sizes >= 2
        starts, sizes = starts[shared], sizes[shared]
        coords = positions[order].T.copy()  # x row, y row, in sorted order
        pairs = np.empty((len(starts), 2), dtype=order.dtype)  # indices into order
        # Cells in ascending occupancy, in blocks padded to the block's
        # largest occupancy k: up to _PAIR_BLOCK node pairs, or else one cell.
        by_size = sizes.argsort(kind="stable")
        lo = 0
        while lo < len(by_size):
            fit = max(1, _PAIR_BLOCK // int(sizes[by_size[lo]]) ** 2)
            largest = int(sizes[by_size[min(lo + fit, len(by_size)) - 1]])
            hi = lo + max(1, min(fit, _PAIR_BLOCK // largest**2))
            block = by_size[lo:hi]
            k = int(sizes[block[-1]])
            # Padding repeats a cell's last member.  Each padded entry of the
            # distance matrix equals an earlier one in row-major order, so
            # argmax never picks it.
            members = starts[block, None] + np.minimum(np.arange(k), sizes[block, None] - 1)
            diff = np.empty((len(block), k, k, 2))
            for axis, c in enumerate(coords[:, members]):
                np.subtract(c[:, :, None], c[:, None, :], out=diff[..., axis])
            dist = _distances(diff)
            i, j = np.divmod(dist.reshape(len(block), k * k).argmax(axis=1), k)
            cell = np.arange(len(block))
            pairs[block, 0], pairs[block, 1] = members[cell, i], members[cell, j]
            lo = hi
        return cls(sorted_cells[starts], order[pairs])


def same_cell_transmissions(
    topology: Topology, cells: tuple[int, ...] | list[int]
) -> list[tuple[int, int]]:
    """One worst-case in-cell link per listed cell, in list order.

    For each cell holding at least two nodes, picks the farthest-apart node
    pair (the longest own-link the protocol model could face); of equally
    far pairs, the first in row-major order of the cell's distance matrix
    over ascending node ids.  Cells with fewer than two nodes are skipped.
    The first call finds every cell's pair and keeps the table on the
    topology; later calls look cells up in it (arrays edited in place are
    not noticed).
    """
    if topology.cell_of is None:
        raise ValueError("topology has no cell assignment")
    table = topology._farthest
    if not table.cells.size:
        return []
    wanted = np.asarray(cells, dtype=table.cells.dtype)
    at = np.minimum(table.cells.searchsorted(wanted), table.cells.size - 1)
    return list(map(tuple, table.pairs[at[table.cells[at] == wanted]].tolist()))


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
