import itertools
import math

import numpy as np
import pytest

from emberwatch.errors import InvalidSplit
from emberwatch.routing import (
    Tour,
    build_mst,
    distance_matrix,
    k_opt_improve,
    split_sequence,
    steiner_reduce,
    tour_from_mst,
    tour_length,
)
from oracles import (
    cycle_length,
    exact_mst_prufer,
    exact_tsp_held_karp,
    kruskal_reference,
    two_opt_reference,
)


def layouts():
    """Seeded random, ring and square-grid node sets; the grid has exact distance ties."""
    rng = np.random.default_rng(109)
    for n in (4, 5, 9, 17, 30, 58):
        yield f"random-{n}", rng.uniform(0.0, 3000.0, size=(n, 2))
    for n in (4, 7, 24):
        angles = 2 * math.pi * np.arange(n) / n
        yield f"ring-{n}", np.column_stack([500.0 + 300.0 * np.cos(angles), 500.0 + 300.0 * np.sin(angles)])
    for side in (2, 3, 5, 7):
        yield f"grid-{side}", np.array([(50.0 * x, 50.0 * y) for y in range(side) for x in range(side)])


LAYOUTS = list(layouts())
LAYOUT_IDS = [name for name, _ in LAYOUTS]


class TestDistanceMatrix:
    @pytest.mark.parametrize("name, nodes", LAYOUTS, ids=LAYOUT_IDS)
    def test_equals_per_pair_norm_bit_for_bit(self, name, nodes):
        n = len(nodes)
        expected = [[float(np.linalg.norm(nodes[i] - nodes[j])) for j in range(n)] for i in range(n)]
        assert distance_matrix(nodes).tolist() == expected


class TestMatchesReference:
    @pytest.mark.parametrize("name, nodes", LAYOUTS, ids=LAYOUT_IDS)
    def test_build_mst_same_edges_as_tuple_sort_kruskal(self, name, nodes):
        assert build_mst(nodes) == kruskal_reference(nodes)

    @pytest.mark.parametrize("name, nodes", LAYOUTS, ids=LAYOUT_IDS)
    def test_k_opt_improve_same_order_as_per_pair_scan(self, name, nodes):
        rng = np.random.default_rng(len(nodes))
        edges, _ = build_mst(nodes)
        starts = [
            tour_from_mst(nodes, edges).order,
            tuple(range(len(nodes))),
            tuple(int(k) for k in rng.permutation(len(nodes))),
        ]
        for start in starts:
            out = k_opt_improve(Tour(order=start, length=tour_length(nodes, start)), nodes)
            assert out.order == two_opt_reference(start, nodes)


def small_layouts():
    """Two- and three-node sets, random at many scales and with exact ties."""
    rng = np.random.default_rng(113)
    for k in range(400):
        yield rng.uniform(-1.0, 1.0, size=(2 + k % 2, 2)) * 10.0 ** rng.uniform(-6, 6)
    yield from (
        np.array(nodes, dtype=float)
        for nodes in (
            [(0, 0), (0, 0)],
            [(0, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 0), (1, 0)],
            [(1, 0), (0, 0), (0, 0)],
            [(0, 0), (1, 0), (2, 0)],
            [(0, 0), (2, 0), (1, 0)],
            [(2, 0), (0, 0), (1, 0)],
            [(0, 0), (1, 0), (0, 1)],
            [(1, 1), (0, 1), (1, 0)],
            [(0, 0), (3, 4), (0, 0)],
            [(0, 0), (3, 4), (6, 0)],
        )
    )


def _ranked_by_argsort(nodes):
    """The many-node path's ranking, a stable argsort of the condensed pair distances, taken to n - 1 edges."""
    n = len(nodes)
    rows, cols = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    weights = distance_matrix(nodes)[rows, cols]
    ranked = np.argsort(weights, kind="stable")[: n - 1]
    total = 0.0
    for k in ranked:
        total += float(weights[k])
    return [(int(rows[k]), int(cols[k])) for k in ranked], total


class TestSmallMst:
    def test_two_and_three_nodes_match_kruskal_bit_for_bit(self):
        for nodes in small_layouts():
            tree, total = build_mst(nodes)
            assert (tree, total) == kruskal_reference(nodes)
            assert (tree, total) == _ranked_by_argsort(nodes)
            assert all(type(i) is int and type(j) is int for i, j in tree)
            assert type(total) is float

    def test_nan_distances_rank_last_as_argsort_does(self):
        nodes = np.array([(0.0, 0.0), (math.nan, 0.0), (1.0, 0.0)])
        tree, total = build_mst(nodes)
        expected_tree, expected_total = _ranked_by_argsort(nodes)
        assert tree == expected_tree == [(0, 2), (0, 1)]
        assert math.isnan(total) and math.isnan(expected_total)


class TestBuildMst:
    def test_single_node(self):
        edges, total = build_mst([(3.0, 3.0)])
        assert edges == []
        assert total == 0.0

    def test_collinear_chain(self):
        edges, total = build_mst([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert total == pytest.approx(2.0)
        assert sorted(edges) == [(0, 1), (1, 2)]

    def test_matches_prufer_enumeration(self):
        rng = np.random.default_rng(71)
        for n in range(2, 9):
            for _ in range(2):
                nodes = rng.uniform(0, 100, size=(n, 2))
                _, total = build_mst(nodes)
                assert total == pytest.approx(exact_mst_prufer(nodes), rel=1e-9)

    def test_deterministic_tie_break(self):
        # unit square: four tied edges of length 1, tree must pick by node order
        nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        edges, total = build_mst(nodes)
        assert total == pytest.approx(3.0)
        assert edges == [(0, 1), (0, 2), (1, 3)]


class TestTourFromMst:
    def test_single_node(self):
        tour = tour_from_mst([(5.0, 5.0)], [])
        assert tour.order == (0,)
        assert tour.length == 0.0

    def test_collinear_double_tree(self):
        nodes = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        edges, mst_len = build_mst(nodes)
        tour = tour_from_mst(nodes, edges)
        assert tour.length == pytest.approx(2 * mst_len)
        assert tour.length == pytest.approx(4.0)

    def test_double_tree_bound_on_random_instances(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            nodes = rng.uniform(0, 500, size=(n, 2))
            edges, mst_len = build_mst(nodes)
            tour = tour_from_mst(nodes, edges)
            assert sorted(tour.order) == list(range(n))
            assert tour.length <= 2 * mst_len + 1e-9

    def test_length_field_consistent(self):
        rng = np.random.default_rng(79)
        nodes = rng.uniform(0, 100, size=(12, 2))
        edges, _ = build_mst(nodes)
        tour = tour_from_mst(nodes, edges)
        assert tour.length == pytest.approx(tour_length(nodes, tour.order), abs=1e-9)


class TestKOpt:
    def test_optimal_square_unchanged(self):
        nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        tour = Tour(order=(0, 1, 2, 3), length=tour_length(nodes, (0, 1, 2, 3)))
        out = k_opt_improve(tour, nodes)
        assert out.order == (0, 1, 2, 3)
        assert out.length == pytest.approx(4.0)

    def test_uncrosses_square(self):
        nodes = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
        crossed = Tour(order=(0, 1, 2, 3), length=tour_length(nodes, (0, 1, 2, 3)))
        out = k_opt_improve(crossed, nodes)
        assert out.length == pytest.approx(4.0)
        # brute force over all 4-node tours agrees
        best = min(
            cycle_length(nodes, (0,) + perm) for perm in itertools.permutations((1, 2, 3))
        )
        assert out.length == pytest.approx(best)

    def test_never_increases_and_bounded_by_optimum(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            n = int(rng.integers(4, 10))
            nodes = rng.uniform(0, 100, size=(n, 2))
            edges, _ = build_mst(nodes)
            start = tour_from_mst(nodes, edges)
            out = k_opt_improve(start, nodes)
            optimum = exact_tsp_held_karp(nodes)
            assert out.length <= start.length + 1e-9
            assert out.length >= optimum - 1e-9

    def test_idempotent_at_local_optimum(self):
        rng = np.random.default_rng(97)
        nodes = rng.uniform(0, 100, size=(15, 2))
        edges, _ = build_mst(nodes)
        once = k_opt_improve(tour_from_mst(nodes, edges), nodes)
        twice = k_opt_improve(once, nodes)
        assert twice.order == once.order


class TestSteinerReduce:
    def test_coincident_pair_merges(self):
        wps = steiner_reduce([(2.0, 2.0), (2.0, 2.0)], fov_width=10.0)
        assert len(wps) == 1
        assert wps[0].members == (0, 1)
        assert wps[0].position == pytest.approx((2.0, 2.0))

    def test_distant_pair_stays_apart(self):
        wps = steiner_reduce([(0.0, 0.0), (50.0, 0.0)], fov_width=10.0)
        assert len(wps) == 2
        assert [w.members for w in wps] == [(0,), (1,)]

    def test_small_cluster_merges_to_circle_center(self):
        from oracles import naive_enclosing_circle

        pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]
        g = 16.0  # cluster diameter 4 < g/2
        wps = steiner_reduce(pts, fov_width=g)
        assert len(wps) == 1
        center, radius = naive_enclosing_circle(pts)
        assert radius <= g / 2
        assert wps[0].position == pytest.approx(center, abs=1e-9)

    def test_every_member_within_half_width(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(1, 25))
            pts = rng.uniform(0, 200, size=(n, 2))
            g = float(rng.uniform(10, 80))
            wps = steiner_reduce(pts, fov_width=g)
            covered = sorted(m for w in wps for m in w.members)
            assert covered == list(range(n))  # exactly one waypoint per point
            for w in wps:
                for m in w.members:
                    assert np.linalg.norm(pts[m] - w.position) <= g / 2 + 1e-9

    def test_vanishing_width_keeps_all_points(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        wps = steiner_reduce(pts, fov_width=1e-9)
        assert len(wps) == 3

    def test_max_members_cap(self):
        pts = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (0.3, 0.0)]
        wps = steiner_reduce(pts, fov_width=50.0, max_members=2)
        assert all(len(w.members) <= 2 for w in wps)
        assert sorted(m for w in wps for m in w.members) == [0, 1, 2, 3]

    def test_custom_ids(self):
        wps = steiner_reduce([(0.0, 0.0), (0.5, 0.0)], fov_width=10.0, ids=[42, 17])
        assert wps[0].members == (17, 42)


class TestPartitionPath:
    def test_two_nodes_two_parts(self):
        nodes = [(0.0, 0.0), (5.0, 0.0)]
        tour = Tour(order=(0, 1), length=10.0)
        assert split_sequence(list(tour.order), nodes, 2, cyclic=True) == [[0], [1]]

    def test_uniform_ring_splits_evenly(self):
        nodes = [
            (math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)) for k in range(8)
        ]
        tour = Tour(order=tuple(range(8)), length=tour_length(nodes, range(8)))
        halves = split_sequence(list(tour.order), nodes, 2, cyclic=True)
        assert [len(h) for h in halves] == [4, 4]

    def test_segments_cover_cycle_exactly_once(self):
        rng = np.random.default_rng(103)
        nodes = rng.uniform(0, 100, size=(20, 2))
        edges, _ = build_mst(nodes)
        tour = tour_from_mst(nodes, edges)
        for parts in (2, 3, 5):
            segments = split_sequence(list(tour.order), nodes, parts, cyclic=True)
            flattened = [i for seg in segments for i in seg]
            assert flattened == list(tour.order)
            assert all(seg for seg in segments)

    def test_balanced_length_property(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            nodes = rng.uniform(0, 100, size=(20, 2))
            edges, _ = build_mst(nodes)
            tour = tour_from_mst(nodes, edges)
            parts = int(rng.integers(2, 6))
            order = list(tour.order)
            cycle_edges = [
                float(np.linalg.norm(nodes[order[i]] - nodes[order[(i + 1) % 20]]))
                for i in range(20)
            ]
            total = sum(cycle_edges)
            longest = max(cycle_edges)
            for seg in split_sequence(list(tour.order), nodes, parts, cyclic=True):
                seg_len = sum(
                    float(np.linalg.norm(nodes[seg[i]] - nodes[seg[i + 1]]))
                    for i in range(len(seg) - 1)
                )
                assert seg_len <= total / parts + longest + 1e-9

    def test_too_many_parts_rejected(self):
        tour = Tour(order=(0, 1), length=2.0)
        with pytest.raises(InvalidSplit):
            split_sequence(list(tour.order), [(0.0, 0.0), (1.0, 0.0)], 3, cyclic=True)
