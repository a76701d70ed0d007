"""Independent reference implementations used to check the library.

Nothing in here may call into emberwatch's routing/tracking internals;
these are deliberately brute-force or textbook methods.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def cycle_length(nodes, order) -> float:
    total = 0.0
    for i in range(len(order)):
        a = nodes[order[i]]
        b = nodes[order[(i + 1) % len(order)]]
        total += math.hypot(a[0] - b[0], a[1] - b[1])
    return total


def exact_tsp_held_karp(nodes) -> float:
    """Exact shortest closed tour length by Held-Karp dynamic programming."""
    n = len(nodes)
    if n <= 2:
        return cycle_length(nodes, list(range(n)))
    dist = [[math.hypot(nodes[i][0] - nodes[j][0], nodes[i][1] - nodes[j][1]) for j in range(n)] for i in range(n)]
    size = 1 << (n - 1)
    dp = [[math.inf] * (n - 1) for _ in range(size)]
    for j in range(n - 1):
        dp[1 << j][j] = dist[n - 1][j]
    for mask in range(size):
        for j in range(n - 1):
            cur = dp[mask][j]
            if not math.isfinite(cur) or not mask & (1 << j):
                continue
            for k in range(n - 1):
                if mask & (1 << k):
                    continue
                nxt = mask | (1 << k)
                cand = cur + dist[j][k]
                if cand < dp[nxt][k]:
                    dp[nxt][k] = cand
    full = size - 1
    return min(dp[full][j] + dist[j][n - 1] for j in range(n - 1))


def exact_mst_prufer(nodes) -> float:
    """Minimum spanning tree length by enumerating all labeled trees.

    Every Prufer sequence of length n-2 decodes to a distinct spanning
    tree of the complete graph, so scanning them all is exhaustive.
    Tractable up to n = 8.
    """
    n = len(nodes)
    if n == 1:
        return 0.0
    dist = [[math.hypot(nodes[i][0] - nodes[j][0], nodes[i][1] - nodes[j][1]) for j in range(n)] for i in range(n)]
    if n == 2:
        return dist[0][1]
    best = math.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        total = 0.0
        for a, b in _prufer_decode(seq, n):
            total += dist[a][b]
            if total >= best:
                break
        best = min(best, total)
    return best


def _prufer_decode(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    import heapq

    heap = leaves[:]
    heapq.heapify(heap)
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((a, b))
    return edges


def _pair_distance(nodes, a, b) -> float:
    return float(np.linalg.norm(nodes[a] - nodes[b]))


def kruskal_reference(nodes) -> tuple[list[tuple[int, int]], float]:
    """Kruskal over a tuple sort of (weight, i, j), one np.linalg.norm per pair."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    edges = sorted((_pair_distance(nodes, i, j), i, j) for i in range(n) for j in range(i + 1, n))
    component = list(range(n))
    tree: list[tuple[int, int]] = []
    total = 0.0
    for w, i, j in edges:
        ci, cj = component[i], component[j]
        if ci != cj:
            component = [cj if c == ci else c for c in component]
            tree.append((i, j))
            total += w
    return tree, total


def two_opt_reference(order, nodes, max_passes=50, eps=1e-12) -> tuple[int, ...]:
    """First-improvement 2-opt in k_opt_improve's scan order, one np.linalg.norm per edge lookup."""
    nodes = np.asarray(nodes, dtype=float)
    order = list(order)
    n = len(order)
    if n < 4:
        return tuple(order)
    for _ in range(max_passes):
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                if i == 1 and j == n - 1:
                    continue  # reverses the whole cycle
                a, b = order[i - 1], order[i]
                c, d = order[j], order[(j + 1) % n]
                delta = (
                    _pair_distance(nodes, a, c)
                    + _pair_distance(nodes, b, d)
                    - _pair_distance(nodes, a, b)
                    - _pair_distance(nodes, c, d)
                )
                if delta < -eps:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
        if not improved:
            break
    return tuple(order)


def naive_enclosing_circle(points) -> tuple[tuple[float, float], float]:
    """Smallest enclosing circle by trying all pairs and triples."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) == 1:
        return (pts[0][0], pts[0][1]), 0.0

    def covers(cx, cy, r):
        return all(math.hypot(x - cx, y - cy) <= r * (1 + 1e-12) for x, y in pts)

    best = None
    for a, b in itertools.combinations(pts, 2):
        cx, cy = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
        r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
        if covers(cx, cy, r) and (best is None or r < best[2]):
            best = (cx, cy, r)
    for a, b, c in itertools.combinations(pts, 3):
        circ = _circumcircle(a, b, c)
        if circ is None:
            continue
        cx, cy, r = circ
        if covers(cx, cy, r) and (best is None or r < best[2]):
            best = (cx, cy, r)
    assert best is not None
    return (best[0], best[1]), best[2]


def _circumcircle(a, b, c):
    d = (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1])) * 2.0
    if d == 0.0:
        return None
    ux = (
        (a[0] ** 2 + a[1] ** 2) * (b[1] - c[1])
        + (b[0] ** 2 + b[1] ** 2) * (c[1] - a[1])
        + (c[0] ** 2 + c[1] ** 2) * (a[1] - b[1])
    ) / d
    uy = (
        (a[0] ** 2 + a[1] ** 2) * (c[0] - b[0])
        + (b[0] ** 2 + b[1] ** 2) * (a[0] - c[0])
        + (c[0] ** 2 + c[1] ** 2) * (b[0] - a[0])
    ) / d
    r = max(math.hypot(ux - p[0], uy - p[1]) for p in (a, b, c))
    return ux, uy, r


def finite_difference_jacobian(func, x, h=1e-6):
    """Central-difference Jacobian of func at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x))
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2 * h)
    return jac


def jacobian_mismatch(analytic, numeric) -> float:
    """Max entrywise error, relative for large entries, absolute near zero."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def chase_moving_targets(start, targets, velocities, speed, capture_radius, dt=0.05, max_time=1e5):
    """Simulate a pursuit of moving targets in order; returns total time.

    The pursuer flies straight at each target's current position until
    within the capture radius, then switches to the next target.
    """
    pos = np.asarray(start, dtype=float).copy()
    t = 0.0
    for target0, vel in zip(targets, velocities):
        target0 = np.asarray(target0, dtype=float)
        vel = np.asarray(vel, dtype=float)
        while t < max_time:
            target = target0 + vel * t
            delta = target - pos
            dist = float(np.linalg.norm(delta))
            if dist <= capture_radius:
                break
            step = min(speed * dt, dist)
            pos += delta / dist * step
            t += dt
        else:
            return math.inf
    return t
