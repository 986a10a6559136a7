"""Placement, cells, pairing, 9-TDMA grouping, and the protocol model."""

import itertools
import math
import re
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy import stats

from aoilab import geometry
from aoilab.geometry import (
    GUARD_ZONE_LIMIT,
    CellGrid,
    Topology,
    Violation,
    assign_pairs,
    build_cells,
    cell_index,
    check_protocol_model,
    corner_case_witness,
    place_nodes,
    same_cell_transmissions,
    tdma_groups,
)
from aoilab.expcli import write_topology_csv, write_violations_csv
from aoilab.sampling import StreamSpec, make_stream


def _topology(n=100, m=4, area=1.0, seed=0, stream=None):
    stream = stream or make_stream(StreamSpec(seed, 0))
    grid = build_cells(n, m, area)
    return place_nodes(n, area, stream).with_cells(grid), stream


def _assert_admissible(pairing, cell_of):
    nodes = np.arange(len(cell_of))
    assert np.array_equal(np.sort(pairing), nodes)
    assert not np.any(pairing == nodes)
    assert not np.any(cell_of[pairing] == cell_of)


def _pair_distance_ks_pvalue(topo, stream, draws):
    """KS p-value of paired-node distances against all different-cell pairs."""
    observed = []
    for _ in range(draws):
        pairing, _ = assign_pairs(topo, stream)
        observed.append(
            np.linalg.norm(topo.positions - topo.positions[pairing], axis=1)
        )
    observed = np.concatenate(observed)
    diffs = topo.positions[:, None, :] - topo.positions[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)
    cross_cell = topo.cell_of[:, None] != topo.cell_of[None, :]
    reference = dist[cross_cell & (dist > 0)]
    return stats.ks_2samp(observed, reference).pvalue


def _labelled(pattern):
    """Topology whose cells hold the given numbers of nodes; positions unused."""
    cell_of = np.repeat(np.arange(len(pattern)), pattern)
    return Topology(area_side=1.0, positions=np.zeros((cell_of.size, 2)), cell_of=cell_of)


def _occupancy_patterns(n, largest):
    """Partitions of n into parts of at most ``largest``, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _occupancy_patterns(n - part, part):
            yield (part,) + rest


# Test-only references: the per-pair loop and the per-cell scan that the
# vectorized code replaced.  The vectorized results must equal them exactly.
def _reference_check_protocol_model(topology, transmissions, gamma):
    pos = topology.positions
    violations = []
    for tx, rx in transmissions:
        if tx == rx:
            raise ValueError(f"transmitter and receiver coincide: node {tx}")
        d_own = float(np.linalg.norm(pos[rx] - pos[tx]))
        threshold = (1.0 + gamma) * d_own
        for other_tx, _ in transmissions:
            if other_tx == tx:
                continue
            d_int = float(np.linalg.norm(pos[rx] - pos[other_tx]))
            if d_int < threshold:
                violations.append(
                    Violation(
                        receiver=rx,
                        transmitter=tx,
                        interferer=other_tx,
                        d_own=d_own,
                        d_interferer=d_int,
                        margin=d_int - threshold,
                    )
                )
    return violations


def _reference_same_cell_transmissions(topology, cells):
    out = []
    for cell in cells:
        members = np.flatnonzero(topology.cell_of == cell)
        if members.size < 2:
            continue
        pts = topology.positions[members]
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        i, j = np.unravel_index(np.argmax(dist), dist.shape)
        out.append((int(members[i]), int(members[j])))
    return out


def _reference_assign_pairs(topology, stream, forbid_same_cell=True):
    """The node-level walk whose label projection assign_pairs runs.

    Same start, moves and draws per sweep; it stops before the final
    shuffle that matches each cell's senders to its members.
    """
    n = topology.n
    label = np.asarray(topology.cell_of) if forbid_same_cell else np.arange(n)
    largest = int(np.unique(label, return_counts=True)[1].max())
    order = np.argsort(label, kind="stable")
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.roll(order, -largest)
    moves = [(size, (np.arange(size) + 1) % size) for size in (2, 3)]
    rejected = 0
    for _ in range(3 * max(n - 1, 0).bit_length() + 32):
        shuffle = stream.permutation(n)
        coins = stream.integers(0, 2, n // 2 + n // 3, dtype=bool)
        for size, rotate in moves:
            groups = n // size
            nodes = shuffle[: groups * size].reshape(size, groups)
            dest = perm[nodes]
            moved = dest[rotate]
            admissible = np.logical_and.reduce(label[moved] != label[nodes])
            ok, coins = admissible & coins[:groups], coins[groups:]
            perm[nodes] = np.where(ok, moved, dest)
            rejected += groups - int(np.count_nonzero(ok))
    return perm, rejected


def _reference_tdma_groups(grid):
    per_side = grid.cells_per_side
    buckets = [[] for _ in range(9)]
    for row in range(per_side):
        for col in range(per_side):
            buckets[(row % 3) * 3 + (col % 3)].append(row * per_side + col)
    return tuple(tuple(b) for b in buckets)


def _same_violations(got, want):
    # Violation equality compares floats with ==, which is bit equality here
    # (no NaNs); the types must also be plain ints and floats.
    assert got == want
    for v in got:
        assert all(type(getattr(v, f)) is int for f in ("receiver", "transmitter", "interferer"))
        assert all(type(getattr(v, f)) is float for f in ("d_own", "d_interferer", "margin"))


class TestPlacement:
    def test_all_points_in_bounds(self):
        stream = make_stream(StreamSpec(1, 0))
        for _ in range(1000):
            topo = place_nodes(20, 4.0, stream)
            assert np.all(topo.positions >= 0.0)
            assert np.all(topo.positions <= topo.area_side)

    def test_occupancy_mean_and_variance(self):
        n, m = 100, 4
        stream = make_stream(StreamSpec(2, 0))
        grid = build_cells(n, m, 1.0)
        counts = []
        for _ in range(2000):
            topo = place_nodes(n, 1.0, stream).with_cells(grid)
            counts.append(np.bincount(topo.cell_of, minlength=grid.num_cells))
        counts = np.concatenate(counts).astype(float)
        se_mean = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - m) < 4 * se_mean
        binom_var = m * (1 - m / n)
        sq = (counts - counts.mean()) ** 2
        assert abs(counts.var(ddof=1) - binom_var) < 4 * (sq.std(ddof=1) / np.sqrt(sq.size))

    def test_validation(self):
        stream = make_stream(StreamSpec(0, 0))
        with pytest.raises(ValueError):
            place_nodes(0, 1.0, stream)
        with pytest.raises(ValueError):
            place_nodes(5, -1.0, stream)

    def test_numpy_integer_n_places_as_int(self):
        topo = place_nodes(np.int32(5), 1.0, make_stream(StreamSpec(0, 0)))
        same = place_nodes(5, 1.0, make_stream(StreamSpec(0, 0)))
        assert np.array_equal(topo.positions, same.positions)

    @pytest.mark.parametrize("n", [True, 5.0, np.float64(5)])
    def test_bools_and_floats_refused(self, n):
        message = rf"^n must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            place_nodes(n, 1.0, make_stream(StreamSpec(0, 0)))

    @pytest.mark.parametrize("area", [math.inf, math.nan, 0.0])
    def test_refuses_area_not_finite_and_positive(self, area):
        stream = make_stream(StreamSpec(0, 0))
        reason = f"area must be finite and > 0, got {area}"
        with pytest.raises(ValueError, match=reason):
            place_nodes(5, area, stream)
        with pytest.raises(ValueError, match=reason):
            build_cells(100, 4, area)

    def test_refuses_area_whose_squared_distances_overflow(self):
        # Points across the square lie up to sqrt(2 area) apart.
        half_max = sys.float_info.max / 2
        stream = make_stream(StreamSpec(0, 0))
        assert place_nodes(5, half_max, stream).area_side == math.sqrt(half_max)
        assert build_cells(16, 16, half_max).area_side == math.sqrt(half_max)
        for area in (math.nextafter(half_max, math.inf), sys.float_info.max):
            with pytest.raises(ValueError, match="area must be at most"):
                place_nodes(5, area, stream)
            with pytest.raises(ValueError, match="area must be at most"):
                build_cells(16, 16, area)


class TestBuildCells:
    def test_refuses_cells_below_the_smallest_normal_area(self):
        tiny = sys.float_info.min
        assert build_cells(400, 4, 100 * tiny).num_cells == 100
        with pytest.raises(ValueError, match="gives each cell an area below"):
            build_cells(400, 4, math.nextafter(100 * tiny, 0.0))
        with pytest.raises(ValueError, match="gives each cell an area below"):
            build_cells(400, 4, 1e-316)

    def test_reference_grid(self):
        grid = build_cells(100, 4, 1.0)
        assert grid.num_cells == 25
        assert grid.cell_len == pytest.approx(0.2, rel=1e-15)

    def test_single_cell(self):
        grid = build_cells(16, 16, 2.0)
        assert grid.num_cells == 1
        assert grid.cell_len == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_area_four(self):
        grid = build_cells(64, 4, 4.0)
        assert grid.num_cells == 16
        assert grid.cell_len == pytest.approx(0.5, rel=1e-15)

    def test_rejects_non_square_cell_count(self):
        with pytest.raises(ValueError, match="perfect square"):
            build_cells(1024, 8, 1.0)  # 128 cells

    def test_tiling_conservation(self):
        for n, m, area in [(100, 4, 1.0), (64, 4, 4.0), (144, 16, 2.5)]:
            grid = build_cells(n, m, area)
            assert grid.cell_len**2 * grid.num_cells == pytest.approx(area, rel=1e-12)

    def test_boundary_points_clipped_into_grid(self):
        grid = CellGrid(area_side=1.0, cells_per_side=5)
        idx = cell_index(grid, np.array([[1.0, 1.0], [0.0, 0.0], [0.2, 0.999]]))
        assert idx.tolist() == [24, 0, 21]


class TestAssignPairs:
    def test_is_permutation_without_fixed_points(self):
        topo, stream = _topology(seed=3)
        pairing, _ = assign_pairs(topo, stream)
        assert np.array_equal(np.sort(pairing), np.arange(topo.n))
        assert not np.any(pairing == np.arange(topo.n))

    def test_inverse_composition_is_identity(self):
        topo, stream = _topology(seed=4)
        pairing, _ = assign_pairs(topo, stream)
        inverse = np.argsort(pairing)
        assert np.array_equal(pairing[inverse], np.arange(topo.n))

    def test_no_same_cell_pairs_across_many_assignments(self):
        topo, stream = _topology(seed=5)
        for _ in range(1000):
            pairing, _ = assign_pairs(topo, stream)
            assert not np.any(topo.cell_of[pairing] == topo.cell_of)

    def test_infeasible_constraints_raise(self):
        # single cell: every pair is same-cell
        grid = build_cells(8, 8, 1.0)
        stream = make_stream(StreamSpec(6, 0))
        topo = place_nodes(8, 1.0, stream).with_cells(grid)
        with pytest.raises(RuntimeError, match="cell 0 holds 8 of 8 nodes"):
            assign_pairs(topo, stream)

    def test_pair_distances_match_conditional_uniform_prediction(self):
        # The walk should leave pair distances distributed like a uniformly
        # random admissible (different-cell) pair.
        topo, stream = _topology(seed=7)
        assert _pair_distance_ks_pvalue(topo, stream, draws=300) > 0.01

    def test_pair_distances_uniform_at_quarter_exponent_cells(self):
        # The same check at (256, 16), where rejection sampling gave up.
        topo, stream = _topology(n=256, m=16, seed=17)
        assert _pair_distance_ks_pvalue(topo, stream, draws=100) > 0.01

    @pytest.mark.parametrize("n,m", [(144, 9), (256, 16), (1024, 16)])
    def test_former_rejection_failures_pair(self, n, m):
        topo, stream = _topology(n=n, m=m, seed=18)
        pairing, _ = assign_pairs(topo, stream)
        _assert_admissible(pairing, topo.cell_of)

    def test_class_of_exactly_half_pairs(self):
        topo = _labelled((4, 1, 1, 2))
        stream = make_stream(StreamSpec(19, 0))
        for _ in range(50):
            pairing, _ = assign_pairs(topo, stream)
            _assert_admissible(pairing, topo.cell_of)
            # Hall's condition is tight: every node outside cell 0 must
            # send to cell 0, or some node of cell 0 would have no sender.
            assert np.all(topo.cell_of[pairing[4:]] == 0)

    def test_class_over_half_raises_with_reason(self):
        stream = make_stream(StreamSpec(20, 0))
        with pytest.raises(RuntimeError, match="cell 1 holds 5 of 9 nodes, more than n/2"):
            assign_pairs(_labelled((2, 5, 2)), stream)

    def test_single_node_derangement_raises(self):
        topo = Topology(area_side=1.0, positions=np.zeros((1, 2)))
        stream = make_stream(StreamSpec(21, 0))
        with pytest.raises(RuntimeError, match="node 0 holds 1 of 1 nodes"):
            assign_pairs(topo, stream, forbid_same_cell=False)

    def test_derangement_without_cells(self):
        topo = Topology(area_side=1.0, positions=np.zeros((5, 2)))
        stream = make_stream(StreamSpec(22, 0))
        for _ in range(20):
            pairing, _ = assign_pairs(topo, stream, forbid_same_cell=False)
            _assert_admissible(pairing, np.arange(5))

    def test_draws_only_permutations_and_uniforms(self):
        class Recorder:
            def __init__(self, gen):
                self.gen, self.calls = gen, []

            def permutation(self, n):
                self.calls.append("permutation")
                return self.gen.permutation(n)

            def integers(self, low, high, size, dtype):
                self.calls.append("integers")
                return self.gen.integers(low, high, size, dtype=dtype)

        topo, stream = _topology(seed=23)
        recorder = Recorder(stream)
        pairing, rejected = assign_pairs(topo, recorder)
        _assert_admissible(pairing, topo.cell_of)
        sweeps = 3 * math.ceil(math.log2(topo.n)) + 32
        # Per sweep one shuffle and one draw of both steps' coins; then one
        # shuffle matches each cell's senders to its members.
        assert recorder.calls == ["permutation", "integers"] * sweeps + ["permutation"]
        assert 0 < rejected < sweeps * (topo.n // 2 + topo.n // 3)

    @pytest.mark.parametrize(
        "make, forbid_same_cell",
        [
            (lambda: _topology(100, 4, seed=25)[0], True),
            (lambda: _topology(256, 16, seed=25)[0], True),
            (lambda: _topology(1024, 16, seed=25)[0], True),
            (lambda: _labelled((4, 1, 1, 2)), True),
            (lambda: Topology(area_side=1.0, positions=np.zeros((5, 2))), False),
            (lambda: Topology(area_side=1.0, positions=np.zeros((1000, 2))), False),
        ],
        ids=["100-4", "256-16", "1024-16", "hall-tight", "derangement-5", "derangement-1000"],
    )
    def test_label_walk_is_exact_projection_of_node_walk(self, make, forbid_same_cell):
        # Seeded alike, the node-level walk and assign_pairs send every node
        # to the same cell (to the same node, for derangements) and reject
        # the same proposals.
        topo = make()
        label = topo.cell_of if forbid_same_cell else np.arange(topo.n)
        for index in range(3):
            pairing, rejected = assign_pairs(
                topo, make_stream(StreamSpec(26, index)), forbid_same_cell
            )
            reference, reference_rejected = _reference_assign_pairs(
                topo, make_stream(StreamSpec(26, index)), forbid_same_cell
            )
            _assert_admissible(pairing, label)
            assert np.array_equal(label[pairing], label[reference])
            assert rejected == reference_rejected

    @pytest.mark.parametrize(
        "pattern",
        [p for n in range(3, 8) for p in _occupancy_patterns(n, n // 2)],
        ids=lambda p: "-".join(map(str, p)),
    )
    def test_exactly_uniform_over_admissible_pairings(self, pattern):
        # Every admissible pairing of a small occupancy pattern is drawn
        # equally often; a walk that cannot reach some pairings, or has not
        # forgotten its start, fails the chi-square test.  Each sweep runs
        # its swaps before its 3-cycles on one shared shuffle; the proof
        # that the law is uniform needs that order (see assign_pairs).
        topo = _labelled(pattern)
        n = topo.n
        admissible = [
            p for p in itertools.permutations(range(n))
            if all(topo.cell_of[p[i]] != topo.cell_of[i] for i in range(n))
        ]
        index = {p: k for k, p in enumerate(admissible)}
        stream = make_stream(StreamSpec(24, int("".join(map(str, pattern)))))
        counts = np.zeros(len(admissible))
        for _ in range(1000):
            pairing, _ = assign_pairs(topo, stream)
            counts[index[tuple(pairing.tolist())]] += 1
        assert stats.chisquare(counts).pvalue > 1e-3


class TestTdmaGroups:
    def test_partition_25_cells(self):
        groups = tdma_groups(build_cells(100, 4, 1.0))
        sizes = sorted(len(g) for g in groups.groups)
        # 5x5 grid: row/col residue classes have sizes (2, 2, 1)
        assert sizes == [1, 2, 2, 2, 2, 4, 4, 4, 4]
        all_cells = sorted(c for g in groups.groups for c in g)
        assert all_cells == list(range(25))

    @pytest.mark.parametrize("per_side", [*range(1, 11), 50])
    def test_matches_loop_reference(self, per_side):
        grid = CellGrid(area_side=1.0, cells_per_side=per_side)
        got = tdma_groups(grid).groups
        assert got == _reference_tdma_groups(grid)
        assert all(type(cell) is int for group in got for cell in group)

    def test_nine_cells_gives_singletons(self):
        groups = tdma_groups(build_cells(36, 4, 1.0))  # 3x3 grid
        assert sorted(len(g) for g in groups.groups) == [1] * 9

    def test_groups_disjoint_and_exhaustive(self):
        grid = build_cells(400, 4, 1.0)  # 10x10
        groups = tdma_groups(grid)
        seen = [c for g in groups.groups for c in g]
        assert len(seen) == len(set(seen)) == grid.num_cells

    def test_same_group_cells_are_three_apart(self):
        grid = build_cells(400, 4, 1.0)
        per_side = grid.cells_per_side
        for group in tdma_groups(grid).groups:
            for a in group:
                for b in group:
                    if a == b:
                        continue
                    dr = abs(a // per_side - b // per_side)
                    dc = abs(a % per_side - b % per_side)
                    assert dr % 3 == 0 and dc % 3 == 0
                    assert max(dr, dc) >= 3  # at least two inactive cells between


class TestProtocolModel:
    def test_single_transmission_never_violates(self):
        topo, stream = _topology(seed=8)
        tx, rx = 0, 1
        assert check_protocol_model(topo, [(tx, rx)], gamma=10.0) == []

    @pytest.mark.parametrize("n,m", [(64, 4), (100, 4), (400, 16), (64, 16)])
    def test_same_cell_tdma_admissible_at_guard_limit(self, n, m):
        stream = make_stream(StreamSpec(9, 0))
        grid = build_cells(n, m, 1.0)
        for _ in range(50):
            topo = place_nodes(n, 1.0, stream).with_cells(grid)
            for group in tdma_groups(grid).groups:
                transmissions = same_cell_transmissions(topo, group)
                assert check_protocol_model(topo, transmissions, GUARD_ZONE_LIMIT) == []

    def test_corner_witness_on_both_sides_of_limit(self):
        topo, transmissions = corner_case_witness()
        assert check_protocol_model(topo, transmissions, GUARD_ZONE_LIMIT) == []
        violations = check_protocol_model(topo, transmissions, GUARD_ZONE_LIMIT + 0.05)
        assert len(violations) >= 1
        assert all(v.margin < 0 for v in violations)

    def test_refuses_nan_gamma(self):
        # A NaN threshold compares false everywhere and would report nothing.
        topo, transmissions = corner_case_witness()
        assert len(check_protocol_model(topo, transmissions, 0.5)) == 1
        with pytest.raises(ValueError, match="gamma must be >= 0, got nan"):
            check_protocol_model(topo, transmissions, float("nan"))

    def test_margin_fields(self):
        topo, transmissions = corner_case_witness()
        violations = check_protocol_model(topo, transmissions, GUARD_ZONE_LIMIT + 0.05)
        v = violations[0]
        pos = topo.positions
        assert v.d_own == pytest.approx(np.linalg.norm(pos[v.receiver] - pos[v.transmitter]))
        assert v.d_interferer == pytest.approx(
            np.linalg.norm(pos[v.receiver] - pos[v.interferer])
        )

    @pytest.mark.parametrize("gamma", [GUARD_ZONE_LIMIT, 0.6, 1.5, 3.0])
    def test_matches_reference_on_random_topologies(self, gamma):
        stream = make_stream(StreamSpec(11, 0))
        shapes = [(36, 4), (64, 4), (100, 4), (144, 16)]
        found = 0
        for k in range(1000):
            n, m = shapes[k % len(shapes)]
            grid = build_cells(n, m, 1.0)
            topo = place_nodes(n, 1.0, stream).with_cells(grid)
            groups = tdma_groups(grid).groups
            link_sets = [same_cell_transmissions(topo, g) for g in groups]
            if k % 10 == 0:
                # Every cell at once: adjacent cells interfere.
                link_sets.append(same_cell_transmissions(topo, range(grid.num_cells)))
            for links in link_sets:
                got = check_protocol_model(topo, links, gamma)
                _same_violations(got, _reference_check_protocol_model(topo, links, gamma))
                found += len(got)
        assert found > 0

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_matches_reference_on_links_with_repeated_transmitters(self, monkeypatch, block):
        # Random (tx, rx) lists drawn with replacement repeat transmitters and
        # receivers; block sizes that split a row or leave one short block
        # must not change the order.
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        stream = make_stream(StreamSpec(12, 0))
        topo = place_nodes(40, 1.0, stream)
        for size in [1, 2, 3, 17, 90]:
            for _ in range(5):
                tx = stream.integers(0, 40, size)
                rx = (tx + stream.integers(1, 40, size)) % 40
                links = list(zip(tx.tolist(), rx.tolist()))
                for gamma in [0.0, GUARD_ZONE_LIMIT, 3.0]:
                    got = check_protocol_model(topo, links, gamma)
                    _same_violations(got, _reference_check_protocol_model(topo, links, gamma))

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_edge_cases_match_reference(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        # Bucket side for a largest threshold of 2 (gamma = 1, own links of
        # length 1): nodes at multiples of it sit exactly on bucket edges.
        side = 2.0 * (1.0 + geometry._BUCKET_MARGIN)
        y = 0.25
        on_edges = Topology(
            area_side=4.0 * side,
            positions=np.array(
                [
                    [side - 1.5, y], [side - 0.5, y],  # link 0: own link 1, threshold 2
                    [side, y], [side + 0.25, y],  # link 1: on an edge, 0.5 from rx 0
                    [side + 1.5, y], [side + 1.75, y],  # link 2: exactly 2 from rx 0
                    [2.0 * side, y], [2.0 * side, y + 1.0],  # link 3: two buckets over
                    [side - 0.5, side], [side - 0.5, side - 1.0],  # link 4: on a row edge
                ]
            ),
        )
        links = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        got = check_protocol_model(on_edges, links, 1.0)
        _same_violations(got, _reference_check_protocol_model(on_edges, links, 1.0))
        hits = {(v.transmitter, v.interferer) for v in got}
        assert (0, 2) in hits  # interferer on the edge of the next bucket
        assert (0, 8) in hits  # interferer on the edge of the next bucket row
        assert (0, 4) not in hits  # d_int == threshold: strict, so admissible

        # d_int == threshold exactly, and one ulp inside it.
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [3.0, 1.0],
                        [np.nextafter(3.0, 0.0), 0.0], [np.nextafter(3.0, 0.0), 0.5]])
        line = Topology(area_side=4.0, positions=pos)
        for links, expected in [([(0, 1), (2, 3)], 0), ([(0, 1), (4, 5)], 1)]:
            got = check_protocol_model(line, links, 1.0)
            _same_violations(got, _reference_check_protocol_model(line, links, 1.0))
            assert sum(v.transmitter == 0 for v in got) == expected

        # A gamma so large that every link shares one bucket: all pairs of
        # distinct transmitters violate.
        stream = make_stream(StreamSpec(25, 0))
        spread = place_nodes(60, 1.0, stream)
        links = [(k, k + 30) for k in range(30)]
        got = check_protocol_model(spread, links, 1e9)
        _same_violations(got, _reference_check_protocol_model(spread, links, 1e9))
        assert len(got) == 30 * 29

        # Nodes at one position: own links of length 0 never fail, and a
        # receiver on top of another transmitter always does.
        pos = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.5], [0.5, 0.5], [0.75, 0.75]])
        stacked = Topology(area_side=1.0, positions=pos)
        for links in [[(0, 1), (2, 3)], [(0, 1)], [(0, 1), (1, 0)], [(2, 3), (4, 0), (1, 2)]]:
            for gamma in [0.0, GUARD_ZONE_LIMIT, 3.0]:
                got = check_protocol_model(stacked, links, gamma)
                _same_violations(got, _reference_check_protocol_model(stacked, links, gamma))
        assert check_protocol_model(stacked, [(0, 1), (1, 0)], 3.0) == []
        assert len(check_protocol_model(stacked, [(2, 3), (0, 4)], 0.0)) == 1

    def test_empty_link_list(self):
        topo, _ = _topology(seed=13)
        assert check_protocol_model(topo, [], 3.0) == []

    def test_corner_witness_matches_reference(self):
        topo, transmissions = corner_case_witness()
        for gamma in [GUARD_ZONE_LIMIT, GUARD_ZONE_LIMIT + 0.05, 3.0]:
            _same_violations(
                check_protocol_model(topo, transmissions, gamma),
                _reference_check_protocol_model(topo, transmissions, gamma),
            )

    def test_coinciding_link_error_names_first_such_link(self):
        topo, _ = _topology(seed=14)
        links = [(1, 2), (5, 5), (3, 3)]
        with pytest.raises(ValueError) as want:
            _reference_check_protocol_model(topo, links, 0.5)
        with pytest.raises(ValueError, match="transmitter and receiver coincide: node 5") as got:
            check_protocol_model(topo, links, 0.5)
        assert str(got.value) == str(want.value)

    def test_same_cell_transmissions_match_reference(self):
        stream = make_stream(StreamSpec(15, 0))
        sparse_cells = 0
        for n, m in [(36, 4), (64, 4), (16, 1), (144, 16)]:
            grid = build_cells(n, m, 1.0)
            for _ in range(50):
                topo = place_nodes(n, 1.0, stream).with_cells(grid)
                counts = np.bincount(topo.cell_of, minlength=grid.num_cells)
                sparse_cells += int(np.count_nonzero(counts < 2))
                everything = list(range(grid.num_cells))
                # Empty and single-node cells, repeats, and an id past the grid.
                cell_lists = [g for g in tdma_groups(grid).groups]
                cell_lists += [everything, everything[::-1] + [0, grid.num_cells], []]
                for cells in cell_lists:
                    assert same_cell_transmissions(topo, cells) == (
                        _reference_same_cell_transmissions(topo, cells)
                    )
        assert sparse_cells > 0

    @pytest.mark.parametrize("n, m", [(10_000, 4), (10_000, 16), (400, 100)])
    def test_same_cell_transmissions_match_reference_at_scale(self, n, m):
        # Every TDMA group at n = 10^4; (400, 100) puts about 100 nodes in
        # each cell, one cell per block of node pairs.
        topo, _ = _topology(n=n, m=m, seed=16)
        for group in tdma_groups(build_cells(n, m, 1.0)).groups:
            got = same_cell_transmissions(topo, group)
            assert got == _reference_same_cell_transmissions(topo, group)
            assert all(type(node) is int for link in got for node in link)

    def test_same_cell_transmissions_follow_replaced_cells_and_positions(self):
        # The farthest-pair table is kept on the topology; re-celled copies,
        # copies with replaced arrays and hand-built topologies must not see
        # a stale one, and a topology's arrays cannot be swapped under it.
        topo, stream = _topology(n=400, m=4, seed=26)
        coarse = build_cells(400, 16, 1.0)
        everything = list(range(coarse.num_cells))
        cell_lists = list(tdma_groups(coarse).groups)
        cell_lists += [everything + everything[:5], [3, 3, coarse.num_cells + 7, 0], []]

        def check(t, lists):
            for cells in lists:
                got = same_cell_transmissions(t, cells)
                assert got == _reference_same_cell_transmissions(t, cells)
                assert all(type(node) is int for link in got for node in link)

        fine_lists = list(tdma_groups(build_cells(400, 4, 1.0)).groups)
        check(topo, fine_lists)
        recelled = topo.with_cells(coarse)
        check(recelled, cell_lists)
        check(topo, fine_lists)  # the original keeps its own table

        moved = recelled.positions[::-1].copy()
        with pytest.raises(FrozenInstanceError):
            recelled.positions = moved
        recelled = replace(recelled, positions=moved)
        check(recelled, cell_lists)
        recelled = replace(recelled, cell_of=cell_index(coarse, moved))
        check(recelled, cell_lists)

        # Built directly, as _labelled builds one, but with distinct positions.
        pattern = (5, 1, 0, 3, 2, 7)
        labelled = Topology(
            area_side=1.0,
            positions=stream.random((sum(pattern), 2)),
            cell_of=np.repeat(np.arange(len(pattern)), pattern),
        )
        check(labelled, [range(len(pattern)), [5, 5, 0, 1, 2, 9], [4, 3], []])

    def test_rejects_negative_gamma(self):
        topo, transmissions = corner_case_witness()
        with pytest.raises(ValueError):
            check_protocol_model(topo, transmissions, -0.1)


class TestTopologyCsv:
    def test_round_trip(self, tmp_path, read_topology_csv):
        topo, stream = _topology(seed=10)
        pairing, _ = assign_pairs(topo, stream)
        topo = replace(topo, pairing=pairing)
        path = tmp_path / "topology.csv"
        write_topology_csv(topo, path)
        loaded = read_topology_csv(path, area_side=topo.area_side)
        assert np.array_equal(loaded.positions, topo.positions)
        assert np.array_equal(loaded.cell_of, topo.cell_of)
        assert np.array_equal(loaded.pairing, topo.pairing)

    def test_empty_columns_and_float_cells(self, tmp_path):
        # No cells or pairing: empty cells.  Floats are written by repr.
        topo = Topology(area_side=1.0, positions=np.array([[0.1, 1 / 3], [2.0**-1074, 1.0]]))
        path = tmp_path / "topology.csv"
        write_topology_csv(topo, path)
        assert path.read_text() == (
            "node_id,x,y,cell_id,dest_id\n0,0.1,0.3333333333333333,,\n1,5e-324,1.0,,\n"
        )
        violation = Violation(3, 1, 2, d_own=0.5, d_interferer=0.6, margin=-0.1 / 3)
        path = tmp_path / "violations.csv"
        write_violations_csv([violation], 0.25, path)
        assert path.read_text() == (
            "receiver,transmitter,interferer,d_ji,d_jk,gamma,margin\n"
            "3,1,2,0.5,0.6,0.25,-0.03333333333333333\n"
        )
