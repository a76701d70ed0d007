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


def reference_tour_length(nodes, order) -> float:
    """Closed-cycle length in the library's first form: np.roll and np.linalg.norm."""
    nodes = np.asarray(nodes, dtype=float)
    if len(order) < 2:
        return 0.0
    pts = nodes[list(order)]
    return float(np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1).sum())


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


# ---------------------------------------------------------------------------
# Frozen references for the per-track filter and per-front fire step.
#
# Each is the straightforward form of the library's arithmetic, in the
# order it was first written: the spread model evaluated once for the
# velocity and again for its Jacobian, the velocity evaluated once per
# front, H @ P formed twice and np.outer for the adaptation products.
# The library must agree with them bit for bit and raise the same
# exception types on the same inputs. They take and return plain arrays;
# only the error types and the keyed-RNG primitive come from emberwatch.

_LB_TOLERANCE = 1e-9
_GB_FLOOR = 1e-12
_COND_LIMIT = 1e12
_LINEAGE_SHIFT = 32


def _ref_length_to_breadth(params, wind_speed):
    return (
        params.a * math.exp(params.b * wind_speed)
        + params.c * math.exp(-params.d * wind_speed)
        + params.l
    )


def _ref_spread_coefficient(rate, wind_speed, params):
    from emberwatch.errors import DomainError

    rate = max(rate, 0.0)
    u = max(wind_speed, 0.0)
    lb = _ref_length_to_breadth(params, u)
    if lb < 1.0 - _LB_TOLERANCE:
        raise DomainError("ellipse", f"length-to-breadth ratio {lb!r} < 1 at wind speed {u!r}")
    gb = max(lb * lb - 1.0, 0.0)
    return rate * (1.0 - lb / (lb + math.sqrt(gb)))


def _ref_velocity_jacobian(rate, wind_speed, azimuth, params):
    from emberwatch.errors import DomainError

    clamped_rate = rate < 0
    clamped_wind = wind_speed < 0
    r = max(rate, 0.0)
    u = max(wind_speed, 0.0)
    lb = _ref_length_to_breadth(params, u)
    if lb < 1.0 - _LB_TOLERANCE:
        raise DomainError("ellipse", f"length-to-breadth ratio {lb!r} < 1 at wind speed {u!r}")
    gb = max(lb * lb - 1.0, 0.0)
    sq = math.sqrt(gb)
    factor = 1.0 - lb / (lb + sq)
    c = r * factor
    dc_dr = 0.0 if clamped_rate else factor
    if clamped_wind or gb <= _GB_FLOOR or r == 0.0:
        dc_du = 0.0
    else:
        lb_prime = params.a * params.b * math.exp(params.b * u) - params.c * params.d * math.exp(-params.d * u)
        dc_du = r * lb_prime / (sq * (lb + sq) ** 2)
    s, co = math.sin(azimuth), math.cos(azimuth)
    return np.array([[dc_dr * s, dc_du * s, c * co], [dc_dr * co, dc_du * co, -c * s]])


def _ref_state_velocity(state, params):
    c = _ref_spread_coefficient(state[5], state[6], params)
    azimuth = state[7] % (2 * math.pi)
    return np.array([c * math.sin(azimuth), c * math.cos(azimuth)])


def _ref_symmetrize(matrix):
    return (matrix + matrix.T) / 2.0


def reference_predict(mean, P, Q, dt, params, uav_pose=None):
    """(mean, P, F) of one EKF time update."""
    F = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    F[0:2, 5:] = _ref_velocity_jacobian(mean[5], mean[6], mean[7], params) * dt
    out = np.array(mean, dtype=float)
    out[0:2] += _ref_state_velocity(mean, params) * dt
    if uav_pose is not None:
        out[2:5] = uav_pose
    return out, _ref_symmetrize(F @ P @ F.T + Q), F


def _ref_observe(state):
    from emberwatch.errors import DomainError

    pz = state[4]
    if pz <= 0:
        raise DomainError("uav_z", f"uav_z must be > 0 to observe, got {pz}")
    return np.array(
        [
            math.atan((state[0] - state[2]) / pz),
            math.atan((state[1] - state[3]) / pz),
            state[5],
            state[6],
            state[7],
        ]
    )


def _ref_observation_jacobian(state):
    from emberwatch.errors import DomainError

    pz = state[4]
    if pz <= 0:
        raise DomainError("uav_z", f"uav_z must be > 0 to observe, got {pz}")
    H = np.zeros((5, 8))
    for row, (qcol, pcol) in enumerate([(0, 2), (1, 3)]):
        q = state[qcol] - state[pcol]
        u = q / pz
        w = 1.0 / (1.0 + u * u)
        H[row, qcol] = w / pz
        H[row, pcol] = -w / pz
        H[row, 4] = -w * q / (pz * pz)
    H[2, 5] = 1.0
    H[3, 6] = 1.0
    H[4, 7] = 1.0
    return H


def reference_innovation_cov(P, H, R):
    """The current residual covariance H P H^T + R."""
    return _ref_symmetrize(H @ P @ H.T + R)


def reference_residual_cov(F, H, P, R, steps):
    """Residual covariance forecast `steps` ahead by matrix power: H F^(r-1) P (H F^(r-1))^T + R."""
    if steps < 1 or steps != int(steps):
        raise ValueError(f"steps must be a positive integer, got {steps}")
    M = H @ np.linalg.matrix_power(F, int(steps) - 1)
    return _ref_symmetrize(M @ P @ M.T + R)


def _ref_residual(z, state):
    d = z - _ref_observe(state)
    d[4] = (d[4] + math.pi) % (2 * math.pi) - math.pi
    return d


def _ref_kalman_gain(P, H, S):
    from emberwatch.errors import SingularResidual

    try:
        vals = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise SingularResidual("residual covariance is not finite") from exc
    lo, hi = vals[0], vals[-1]
    if not (lo > 0 and hi <= _COND_LIMIT * lo):
        raise SingularResidual(f"residual covariance condition number exceeds {_COND_LIMIT:g}")
    return np.linalg.solve(S, H @ P).T


def _ref_floor_psd(matrix):
    sym = _ref_symmetrize(matrix)
    try:
        np.linalg.cholesky(sym)
        return sym
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() >= 0.0:
        return sym
    vals = np.maximum(vals, 0.0)
    return _ref_symmetrize((vecs * vals) @ vecs.T)


def reference_update(mean, P, Q, R, z, alpha):
    """(mean, P, Q, R) of one measurement update with forgetting-factor adaptation."""
    H = _ref_observation_jacobian(mean)
    innovation = _ref_residual(z, mean)
    HPHt = H @ P @ H.T
    K = _ref_kalman_gain(P, H, _ref_symmetrize(HPHt + R))
    new_mean = mean + K @ innovation
    kd = K @ _ref_residual(z, new_mean)
    return (
        new_mean,
        _ref_floor_psd((np.eye(8) - K @ H) @ P),
        _ref_symmetrize(alpha * Q + (1 - alpha) * np.outer(kd, kd)),
        _ref_symmetrize(alpha * R + (1 - alpha) * (np.outer(innovation, innovation) + HPHt)),
    )


def reference_worst_case_speed(means, covariances, z, params):
    """Worst-case fire speed over tracks given by their means and P, with quantile z."""
    x_bound = 0.0
    y_bound = 0.0
    for mean, P in zip(means, covariances):
        jac = _ref_velocity_jacobian(*mean[5:], params)
        vel_cov = jac @ P[5:, 5:] @ jac.T
        vel = _ref_state_velocity(mean, params)
        x_bound = max(x_bound, abs(vel[0]) + z * math.sqrt(max(vel_cov[0, 0], 0.0)))
        y_bound = max(y_bound, abs(vel[1]) + z * math.sqrt(max(vel_cov[1, 1], 0.0)))
    return math.hypot(x_bound, y_bound)


def reference_speed_terms(mean, P, params):
    """(|v_x|, |v_y|, std_x, std_y) of one track: the per-axis terms of `reference_worst_case_speed`."""
    jac = _ref_velocity_jacobian(*mean[5:], params)
    vel_cov = jac @ P[5:, 5:] @ jac.T
    vel = _ref_state_velocity(mean, params)
    return (
        float(abs(vel[0])),
        float(abs(vel[1])),
        math.sqrt(max(vel_cov[0, 0], 0.0)),
        math.sqrt(max(vel_cov[1, 1], 0.0)),
    )


def reference_residual_terms(prior_mean, P, F, R):
    """(tr(H P H^T), c0, c1, c2, tr R) of one predicted track, H at prior_mean.

    The closed form of the residual forecast evaluated one track at a time:
    r >= 2 steps ahead its trace is c0 + c1 k + c2 k^2 with k = r - 1, which
    is the trace of `reference_residual_cov` with R = 0 up to rounding.
    """
    H = _ref_observation_jacobian(prior_mean)
    current = float(((H @ P) * H).sum())
    a2 = H.diagonal()[0:2] ** 2
    G = F[0:2, 5:]
    GP = G @ P[5:]
    c0 = float(a2 @ P.diagonal()[0:2]) + float(P[5:, 5:].trace())
    c1 = 2.0 * float(a2 @ GP.diagonal()[0:2])
    c2 = float(a2 @ (GP[:, 5:] * G).sum(axis=1))
    return current, c0, c1, c2, float(R.trace())


def reference_simulate_step(fire_map, dt):
    """Fronts after one fire step, as (id, position, velocity, lineage) tuples.

    Reads the map's fields; evaluates the spread velocity once per front
    and once per spawned child, as the velocity of its wind state. Moves
    and spawns one front at a time, each from the single-id keyed draw of
    its own key: purpose 6 (motion) or 7 (spawns), then the step.
    """
    from emberwatch.errors import DomainError
    from emberwatch.fire import keyed_normal, keyed_uniform

    wf, params = fire_map.wind_fuel, fire_map.params

    def velocity():
        c = _ref_spread_coefficient(wf.spread_rate, wf.wind_speed, params)
        return np.array([c * math.sin(wf.wind_azimuth), c * math.cos(wf.wind_azimuth)])

    if dt <= 0:
        raise DomainError("dt", f"dt must be > 0, got {dt}")
    fronts = []
    for f in fire_map.fronts:
        v = velocity()
        position = f.position + f.velocity * dt
        if fire_map.noise_std > 0:
            position = position + fire_map.noise_std * keyed_normal(fire_map.rng_seed, (6, fire_map.step), [f.id], 2)[0]
        fronts.append((f.id, position, v, f.lineage))

    new_step = fire_map.step + 1
    if fire_map.case == 3 and new_step % fire_map.spawn_interval == 0:
        low = (1 << _LINEAGE_SHIFT) - 1
        counts: dict[int, int] = {}
        next_index: dict[int, int] = {}
        for fid, _, _, lineage in fronts:
            counts[lineage] = counts.get(lineage, 0) + 1
            if fid >> _LINEAGE_SHIFT == lineage:
                next_index[lineage] = max(next_index.get(lineage, 0), (fid & low) + 1)
        children = []
        cap = fire_map.max_per_lineage
        rate = fire_map.spawn_rate_max
        for fid, position, parent_velocity, lineage in fronts:
            if cap and counts[lineage] >= cap:
                continue
            base = (lineage << _LINEAGE_SHIFT) + next_index.get(lineage, 0)
            draws = keyed_uniform(fire_map.rng_seed, (7, fire_map.step), [fid], 1 + 2 * rate)[0]
            kids = []
            count = math.floor(draws[0] * (rate + 1))
            if count:
                half = np.abs(parent_velocity) * dt
                v = velocity()
                for k in range(count):
                    offset = (2.0 * draws[1 + 2 * k : 3 + 2 * k] - 1.0) * half
                    kids.append((base + k, position + offset, v, lineage))
            if cap:
                kids = kids[: max(cap - counts[lineage], 0)]
            counts[lineage] = counts.get(lineage, 0) + len(kids)
            next_index[lineage] = next_index.get(lineage, 0) + len(kids)
            children.extend(kids)
        fronts.extend(children)
    return fronts, new_step
