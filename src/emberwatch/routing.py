"""Waypoint graphs, MST tours, 2-opt improvement, and waypoint reduction.

Everything here is deterministic for a fixed input ordering: MST ties
break on (weight, node pair), tour construction visits children in id
order, and the 2-opt scan order is fixed. Each kernel builds the pairwise
distances of its nodes once, with `distance_matrix`, and reads them from
then on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSplit
from .geometry import row_norms, smallest_enclosing_circle

_IMPROVE_EPS = 1e-12
MAX_TWO_OPT_PASSES = 50

# build_mst takes the tree of at most this many nodes straight from their
# pair distances; _SMALL_PAIRS[n] lists those pairs in row order as (rows, cols),
# and _SMALL_INDEX[n] holds the same as index arrays.
_SMALL_MST = 3
_SMALL_PAIRS = {2: ([0], [1]), 3: ([0, 0, 1], [1, 2, 2])}
_SMALL_INDEX = {n: (np.array(rows), np.array(cols)) for n, (rows, cols) in _SMALL_PAIRS.items()}


@dataclass(frozen=True)
class Tour:
    """A closed cycle over node indices with its Euclidean length."""

    order: tuple[int, ...]
    length: float


@dataclass(frozen=True)
class SteinerWaypoint:
    """One reduced waypoint covering the member fire points."""

    position: np.ndarray  # (2,)
    members: tuple[int, ...]  # covered fire ids


def tour_length(nodes: np.ndarray, order) -> float:
    """Length of the closed cycle visiting `order`."""
    nodes = np.asarray(nodes, dtype=float)
    if len(order) < 2:
        return 0.0
    pts = nodes[list(order)]
    return float(np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1).sum())


def distance_matrix(nodes) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of `nodes`."""
    nodes = np.asarray(nodes, dtype=float)
    return row_norms(nodes[:, None, :] - nodes[None, :, :])


def build_mst(nodes) -> tuple[list[tuple[int, int]], float]:
    """Minimum spanning tree by Kruskal with (weight, i, j) tie-breaking."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if n == 0:
        raise ValueError("need at least one node")
    if n == 1:
        return [], 0.0

    if n <= _SMALL_MST:
        # Any n - 1 of the pairs of two or three nodes span them, so the
        # tree is the n - 1 lightest pairs, summed in Kruskal's order. They
        # are ranked in Python, below numpy's fixed cost per call: a stable
        # sort with NaN last, as `argsort` places it, over the pairs in row
        # order ranks them by (weight, i, j).
        rows, cols = _SMALL_PAIRS[n]
        first, second = _SMALL_INDEX[n]
        weights = row_norms(nodes[first] - nodes[second]).tolist()
        lightest = sorted(zip(weights, rows, cols), key=lambda e: (e[0] != e[0], e[0]))[: n - 1]
        total = 0.0
        for w, _, _ in lightest:
            total += w
        return [(i, j) for _, i, j in lightest], total

    # A stable sort of the upper triangle, listed row by row, ranks the
    # edges by (weight, i, j).
    upper = np.arange(n)[:, None] < np.arange(n)
    rows, cols = np.nonzero(upper)
    weights = distance_matrix(nodes)[upper]
    ranked = np.argsort(weights, kind="stable")
    edges = zip(weights[ranked].tolist(), rows[ranked].tolist(), cols[ranked].tolist())

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: list[tuple[int, int]] = []
    total = 0.0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j))
            total += w
            if len(tree) == n - 1:
                break
    return tree, total


def tour_from_mst(nodes, mst_edges) -> Tour:
    """Preorder depth-first walk of the MST from node 0 with shortcutting.

    The resulting cycle is at most twice the MST length.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if n == 1:
        return Tour(order=(0,), length=0.0)

    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in mst_edges:
        adj[i].append(j)
        adj[j].append(i)
    for neighbors in adj.values():
        neighbors.sort()

    order: list[int] = []
    seen = [False] * n
    stack = [0]
    while stack:
        node = stack.pop()
        if seen[node]:
            continue
        seen[node] = True
        order.append(node)
        for neighbor in reversed(adj[node]):
            if not seen[neighbor]:
                stack.append(neighbor)
    return Tour(order=tuple(order), length=tour_length(nodes, order))


def k_opt_improve(tour: Tour, nodes) -> Tour:
    """2-opt local search to convergence (at most MAX_TWO_OPT_PASSES passes).

    First-improvement with a fixed scan order; the length never increases.
    """
    nodes = np.asarray(nodes, dtype=float)
    order = list(tour.order)
    if len(order) >= 4:
        _two_opt(order, distance_matrix(nodes).tolist())
    return Tour(order=tuple(order), length=tour_length(nodes, order))


def _two_opt(order: list[int], dist: list[list[float]]) -> None:
    n = len(order)
    for _ in range(MAX_TWO_OPT_PASSES):
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                if i == 1 and j == n - 1:
                    continue  # reverses the whole cycle
                a, b = order[i - 1], order[i]
                c, d = order[j], order[(j + 1) % n]
                delta = dist[a][c] + dist[b][d] - dist[a][b] - dist[c][d]
                if delta < -_IMPROVE_EPS:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
        if not improved:
            return


def steiner_reduce(points, fov_width: float, ids=None, max_members: int | None = None) -> list[SteinerWaypoint]:
    """Merge fire points into waypoints whose enclosing circle fits the footprint.

    Greedy in id order: each unassigned point seeds a group, then the
    remaining unassigned points are tried nearest-first and kept while the
    group's smallest enclosing circle stays within radius fov_width / 2.
    The waypoint sits at that circle's center, so every member is within
    fov_width / 2 of it. `max_members` optionally caps the group size,
    which keeps worst-case traverse bounds splittable for dense clusters.
    """
    if fov_width <= 0:
        raise ValueError(f"fov_width must be > 0, got {fov_width}")
    points = np.asarray(points, dtype=float)
    n = len(points)
    if ids is None:
        ids = list(range(n))
    ids = list(ids)
    order = sorted(range(n), key=lambda k: ids[k])

    radius_limit = fov_width / 2.0
    dist = distance_matrix(points).tolist() if n else []
    assigned = [False] * n
    waypoints: list[SteinerWaypoint] = []
    for seed in order:
        if assigned[seed]:
            continue
        group = [seed]
        assigned[seed] = True
        row = dist[seed]
        candidates = [k for k in order if not assigned[k] and row[k] <= fov_width]
        candidates.sort(key=lambda k: (row[k], ids[k]))
        center, radius = points[seed], 0.0
        for cand in candidates:
            if max_members is not None and len(group) >= max_members:
                break
            trial = group + [cand]
            trial_center, trial_radius = smallest_enclosing_circle(points[trial])
            if trial_radius <= radius_limit:
                group = trial
                assigned[cand] = True
                center, radius = trial_center, trial_radius
        waypoints.append(
            SteinerWaypoint(
                position=np.asarray(center, dtype=float),
                members=tuple(ids[k] for k in group),
            )
        )
    return waypoints


def split_sequence(order: list[int], nodes, parts: int, cyclic: bool = False) -> list[list[int]]:
    """Greedy near-equal-length split of a node sequence into open paths."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(order)
    if parts < 1:
        raise InvalidSplit(f"parts must be >= 1, got {parts}")
    if parts > n:
        raise InvalidSplit(f"cannot split {n} nodes into {parts} parts")
    if parts == 1:
        return [list(order)]

    dist = distance_matrix(nodes).tolist()
    count = n if cyclic else n - 1
    total = sum(dist[order[i]][order[(i + 1) % n]] for i in range(count))
    target = total / parts

    segments: list[list[int]] = []
    current = [order[0]]
    walked = 0.0
    for i in range(1, n):
        walked += dist[order[i - 1]][order[i]]
        remaining_nodes = n - i
        remaining_segments = parts - len(segments) - 1
        must_close = remaining_nodes == remaining_segments
        may_close = (
            remaining_segments >= 1
            and walked >= (len(segments) + 1) * target - 1e-12
        )
        if must_close or may_close:
            segments.append(current)
            current = []
        current.append(order[i])
    segments.append(current)
    return segments
