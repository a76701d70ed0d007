"""Safety and coverage coordination of the UAV fleet.

The safety side builds a close-enough tour over the fires near a human
team, checks every track's uncertainty ratio against the traverse-time
bound, and recruits additional UAVs (splitting the worst segment) until
the check passes or the pool runs dry. The coverage side clusters the
remaining tracked fires, assigns UAVs to clusters at minimum total
distance, and replans when a partition's traverse bound expires.

Agents read a snapshot and are updated in ascending id order, which keeps
whole runs deterministic without a communication model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import tracking
from .bounds import (
    RATIO_PASS_TOL,
    BoundInputs,
    FleetParams,
    fov_width,
    traverse_bound,
    uncertainty_ratio,
    worst_case_speed,
)
from .fire import EllipseParams
from .geometry import row_norms
from .routing import SteinerWaypoint, build_mst, k_opt_improve, split_sequence, steiner_reduce, tour_from_mst

# Steps between coverage replans when a bound is infeasible or far out.
REPLAN_FALLBACK = 25
REPLAN_CAP = 200

KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class HumanTeam:
    id: int
    position: np.ndarray  # (2,) float


@dataclass
class UavAgent:
    """One UAV with its pose, camera, role and current route.

    A UAV has one of two roles: "coverage" flies a share of the fire
    field, "safety" a share of one team's vicinity tour. A coverage UAV
    can be recruited for safety; a safety UAV keeps that role.
    """

    id: int
    pose: np.ndarray  # (3,): x, y, altitude
    speed: float
    half_angle: float
    mode: str  # coverage | safety
    route: list = field(default_factory=list)  # waypoint positions, (2,) each
    route_index: int = 0
    route_direction: int = 1
    replan_deadline: int = 0

    def __post_init__(self):
        self.pose = np.asarray(self.pose, dtype=float)

    def fleet(self) -> FleetParams:
        return FleetParams(speed=self.speed, altitude=float(self.pose[2]), half_angle=self.half_angle)


@dataclass
class SafetySegment:
    """A contiguous share of the vicinity tour owned by one UAV."""

    uav_id: int
    waypoints: list[SteinerWaypoint]
    fire_ids: list[int]


@dataclass
class MissionPlan:
    """Safety assignment for one team's vicinity fires."""

    segments: list[SafetySegment]
    uncertainty_ratios: dict[int, float]
    feasible: bool


def vicinity_fires(
    tracks: Mapping[int, tracking.TrackEstimate], teams: Sequence[HumanTeam], radius: float
) -> list[dict[int, tracking.TrackEstimate]]:
    """Per team, in order, the tracks whose estimated position lies within `radius` of it, in id order.

    The track positions are stacked once and every team is tested in one
    broadcast; each distance has the bits of that team's own `row_norms`.
    """
    fire_ids = sorted(tracks)
    positions = np.array([tracks[f].mean[:2] for f in fire_ids]).reshape(-1, 2)
    centres = np.array([team.position for team in teams]).reshape(-1, 1, 2)
    # nonzero lists the (team, track) pairs team by team, each team's in id order.
    team_rows, track_rows = np.nonzero(row_norms(positions - centres) <= radius)
    near: list[dict[int, tracking.TrackEstimate]] = [{} for _ in teams]
    for t, i in zip(team_rows.tolist(), track_rows.tolist()):
        near[t][fire_ids[i]] = tracks[fire_ids[i]]
    return near


def first_observers(agents: Sequence[UavAgent], points) -> list[UavAgent | None]:
    """For each planar point, the lowest-id agent whose square ground footprint holds it, or None.

    A footprint is the square of half-width altitude * tan(half_angle)
    centred under the agent; a point on its edge is inside.
    """
    agents = sorted(agents, key=lambda a: a.id)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if not agents:
        return [None] * len(points)
    poses = np.array([a.pose for a in agents])
    half = np.array([a.pose[2] * math.tan(a.half_angle) for a in agents])[:, None]
    covers = (np.abs(points[None, :, 0] - poses[:, None, 0]) <= half) & (
        np.abs(points[None, :, 1] - poses[:, None, 1]) <= half
    )
    # argmax finds the first True along the id-sorted agent axis.
    first = covers.argmax(axis=0).tolist()
    seen = covers.any(axis=0).tolist()
    return [agents[k] if hit else None for k, hit in zip(first, seen)]


# ---------------------------------------------------------------------------
# safety module


# Cap on fires per safety waypoint: a waypoint cannot be split further, so
# bounded group sizes keep the spreading-case bound recoverable by
# recruiting more UAVs.
SAFETY_MAX_GROUP = 3


def _segment(uav_id: int, waypoints: list[SteinerWaypoint]) -> SafetySegment:
    fire_ids = sorted(m for w in waypoints for m in w.members)
    return SafetySegment(uav_id=uav_id, waypoints=waypoints, fire_ids=fire_ids)


def _segment_report(
    segment: SafetySegment,
    terms: Mapping[int, tuple[tracking.SpeedTerms, tracking.ResidualTerms]],
    fleet: FleetParams,
    case: int,
    confidence_level: float,
    dt: float,
) -> tuple[bool, dict[int, float]]:
    """(passed, uncertainty ratio per fire) for one UAV's share of the tour."""
    if not segment.fire_ids:
        return True, {}
    centers = np.array([w.position for w in segment.waypoints])
    _, mst_length = build_mst(centers)
    inputs = BoundInputs(
        mst_length=mst_length,
        fire_count=len(segment.fire_ids),
        worst_speed=worst_case_speed([terms[f][0] for f in segment.fire_ids], confidence_level),
        fov_width=fov_width(fleet),
    )
    bound = traverse_bound(case, inputs, fleet)
    ratios = {f: uncertainty_ratio(terms[f][1], bound.seconds, dt) for f in segment.fire_ids}
    passed = bound.feasible and all(v <= 1.0 + RATIO_PASS_TOL for v in ratios.values())
    return passed, ratios


def plan_safety_tour(
    tracks: Mapping[int, tracking.TrackEstimate],
    assigned: list[UavAgent],
    case: int,
    confidence_level: float,
    dt: float,
    terms: Mapping[int, tuple[tracking.SpeedTerms, tracking.ResidualTerms]],
    team: HumanTeam,
    recruit: Callable[[np.ndarray], UavAgent | None],
) -> tuple[MissionPlan, list[UavAgent]]:
    """Build or rebuild a team's safety plan, recruiting as needed.

    `terms` holds the speed and residual terms of (at least) every fire in
    `tracks`, which the certificate reads instead of the tracks.

    `assigned` UAVs are kept (the tour is partitioned among them in
    order). With none assigned, the first UAV is `recruit(team.position)`;
    each further one is `recruit` at the first waypoint of its new
    segment, and None means no UAV is left. Returns the plan and the full
    list of UAVs now assigned; with no first UAV to take, the plan is
    infeasible and has no segments. Splitting stops when every failing
    segment is down to a single waypoint or no UAV can be recruited; the
    plan is then marked infeasible. With one assigned UAV and a recruiter
    that returns None, the plan answers whether that UAV alone can keep
    every track fresh.
    """
    fire_ids = sorted(tracks)
    if not fire_ids:
        return MissionPlan([], {}, True), list(assigned)

    assigned = list(assigned)
    if not assigned:
        first = recruit(team.position)
        if first is None:
            return MissionPlan([], {}, False), []
        assigned.append(first)

    fleet = assigned[0].fleet()
    g = fov_width(fleet)
    positions = np.array([tracks[f].mean[:2] for f in fire_ids])
    waypoints = steiner_reduce(positions, g, ids=fire_ids, max_members=SAFETY_MAX_GROUP)
    centers = np.array([w.position for w in waypoints])
    mst_edges, _ = build_mst(centers)
    tour = k_opt_improve(tour_from_mst(centers, mst_edges), centers)

    parts = min(len(assigned), len(waypoints))
    chunks = split_sequence(list(tour.order), centers, parts, cyclic=True)
    segments = [
        _segment(assigned[i].id, [waypoints[k] for k in chunk]) for i, chunk in enumerate(chunks)
    ]
    # Agents beyond the waypoint count hold with an empty share.
    segments += [_segment(agent.id, []) for agent in assigned[parts:]]

    feasible = True
    while True:
        reports = [
            _segment_report(seg, terms, fleet, case, confidence_level, dt)
            for seg in segments
        ]
        failing = [i for i, (passed, _) in enumerate(reports) if not passed]
        if not failing:
            break
        splittable = [i for i in failing if len(segments[i].waypoints) >= 2]
        if not splittable:
            feasible = False
            break
        worst = max(splittable, key=lambda i: (max(reports[i][1].values()), -i))
        seg = segments[worst]
        seg_centers = np.array([w.position for w in seg.waypoints])
        halves = split_sequence(list(range(len(seg.waypoints))), seg_centers, 2, cyclic=False)
        new_waypoints = [seg.waypoints[k] for k in halves[1]]
        agent = recruit(new_waypoints[0].position)
        if agent is None:
            feasible = False
            break
        assigned.append(agent)
        segments[worst] = _segment(seg.uav_id, [seg.waypoints[k] for k in halves[0]])
        segments.insert(worst + 1, _segment(agent.id, new_waypoints))

    uncertainty_ratios: dict[int, float] = {}
    for _, ratios in reports:
        uncertainty_ratios.update(ratios)
    return MissionPlan(segments, uncertainty_ratios, feasible), assigned


def apply_safety_plan(plan: MissionPlan, agents_by_id: Mapping[int, UavAgent]) -> None:
    """Write segment routes onto the assigned agents (ping-pong patrol)."""
    for segment in plan.segments:
        agent = agents_by_id[segment.uav_id]
        agent.mode = "safety"
        _assign_route(agent, [np.asarray(w.position, dtype=float) for w in segment.waypoints])


def _assign_route(agent: UavAgent, route: list[np.ndarray]) -> None:
    """Give the agent a new route, resumed at its nearest waypoint (lowest index on ties).

    Resuming there keeps a replan from resetting progress along a route
    that takes longer to fly than the replan interval.
    """
    agent.route = route
    agent.route_index = min(
        range(len(route)), key=lambda i: (float(np.linalg.norm(route[i] - agent.pose[:2])), i), default=0
    )
    agent.route_direction = 1


def patrol_step(agents: list[UavAgent], dt: float) -> None:
    """Advance every safety-mode agent along its segment (ping-pong)."""
    for agent in sorted((a for a in agents if a.mode == "safety"), key=lambda a: a.id):
        _follow_route(agent, dt)


def take_nearest(pool: list[UavAgent], position: np.ndarray) -> UavAgent | None:
    """Remove and return the pool's UAV nearest `position` (lowest id on ties), or None if it is empty."""
    if not pool:
        return None
    best = min(pool, key=lambda a: (float(np.linalg.norm(a.pose[:2] - position)), a.id))
    pool.remove(best)
    return best


# ---------------------------------------------------------------------------
# coverage module


def cluster_and_assign(
    points: np.ndarray, uavs: list[UavAgent], rng: np.random.Generator
) -> dict[int, list[int]]:
    """K-means partition of the points plus optimal UAV-to-cluster matching.

    k equals the UAV count (capped at the point count); seeding is
    k-means++ from the supplied generator, Lloyd iterations are capped,
    and the final one-to-one assignment minimizes total planar distance
    from each UAV to its cluster center.
    """
    points = np.asarray(points, dtype=float)
    uavs = sorted(uavs, key=lambda a: a.id)
    if not uavs:
        raise ValueError("need at least one UAV")
    if len(points) == 0:
        raise ValueError("need at least one point")
    k = min(len(uavs), len(points))

    centers = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(len(points), dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = np.argmin(dists, axis=1)
        for c in range(k):
            members = points[new_labels == c]
            if len(members) > 0:
                centers[c] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its center.
                far = int(np.argmax(dists[np.arange(len(points)), new_labels]))
                centers[c] = points[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    cost = [[float(np.linalg.norm(a.pose[:2] - centers[c])) for c in range(k)] for a in uavs]
    rows, cols = _linear_sum_assignment(cost)
    result: dict[int, list[int]] = {a.id: [] for a in uavs}
    for r, c in zip(rows, cols):
        result[uavs[r].id] = [int(i) for i in np.nonzero(labels == c)[0]]
    return result


def _linear_sum_assignment(cost: list[list[float]]) -> tuple[list[int], list[int]]:
    """Minimum-cost one-to-one assignment of rows to columns of a non-empty
    cost matrix given as a list of rows, returned as (rows, cols).

    The shortest augmenting path method of Crouse ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016), ported
    step for step from SciPy's `linear_sum_assignment` so that ties and
    last bits come out the same: a tall matrix is solved transposed,
    columns are scanned last to first, on equal path cost an unassigned
    column wins, and the duals are updated in the same float order. Rows
    come back sorted. A NaN or -inf entry, or a matrix with no finite
    assignment, raises ValueError.
    """
    nr, nc = len(cost), len(cost[0])
    transpose = nc < nr
    if transpose:
        cost = [list(col) for col in zip(*cost)]
        nr, nc = nc, nr
    if any(c != c or c == -math.inf for row in cost for c in row):
        raise ValueError("matrix contains invalid numeric entries")

    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row to an unassigned column.
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        shortest = [math.inf] * nc
        rows_seen = [False] * nr
        cols_seen = [False] * nc
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            rows_seen[i] = True
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                best = shortest[j]
                if r < best:
                    path[j] = i
                    shortest[j] = best = r
                if best < lowest or (best == lowest and row4col[j] == -1):
                    lowest = best
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in range(nr):
            if rows_seen[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if cols_seen[j]:
                v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[i] for i in order], order
    return list(range(nr)), col4row


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [points[int(rng.integers(len(points)))]]
    while len(centers) < k:
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            remaining = [i for i in range(len(points)) if d2[i] == 0]
            centers.append(points[remaining[len(centers) % len(remaining)]])
            continue
        centers.append(points[int(rng.choice(len(points), p=d2 / total))])
    return np.array(centers, dtype=float)


def coverage_step(
    agents: list[UavAgent],
    tracks: Mapping[int, tracking.TrackEstimate],
    case: int,
    confidence_level: float,
    dt: float,
    params: EllipseParams,
    make_rng: Callable[[], np.random.Generator],
    step: int,
    force_replan: bool,
) -> None:
    """Advance every coverage UAV; replan partitions when deadlines expire.

    `make_rng` builds the generator of a replan's k-means seeding; it is
    called only on a step that replans. The caller applies sensing
    against ground truth.
    """
    cov = sorted((a for a in agents if a.mode == "coverage"), key=lambda a: a.id)
    if not cov:
        return

    fire_ids = sorted(tracks)
    needs_replan = force_replan or any(
        a.replan_deadline <= step or not a.route for a in cov
    )
    if fire_ids and needs_replan:
        _replan_coverage(cov, tracks, fire_ids, case, confidence_level, dt, params, make_rng(), step)

    for agent in cov:
        _follow_route(agent, dt)


def _replan_coverage(
    cov: list[UavAgent],
    tracks: Mapping[int, tracking.TrackEstimate],
    fire_ids: list[int],
    case: int,
    confidence_level: float,
    dt: float,
    params: EllipseParams,
    rng: np.random.Generator,
    step: int,
) -> None:
    g = fov_width(cov[0].fleet())
    positions = np.array([tracks[f].mean[:2] for f in fire_ids])
    waypoints = steiner_reduce(positions, g, ids=fire_ids)
    centers = np.array([w.position for w in waypoints])
    clusters = cluster_and_assign(centers, cov, rng)

    for agent in cov:
        idxs = clusters.get(agent.id, [])
        if not idxs:
            agent.route = []
            agent.replan_deadline = step + REPLAN_FALLBACK
            continue
        pts = centers[idxs]
        mst_edges, mst_length = build_mst(pts)
        tour = k_opt_improve(tour_from_mst(pts, mst_edges), pts)
        _assign_route(agent, [pts[i].copy() for i in tour.order])

        member_fires = sorted({m for i in idxs for m in waypoints[i].members})
        member_tracks = [tracks[f] for f in member_fires]
        speed = worst_case_speed(tracking.speed_terms(member_tracks, params), confidence_level)
        bound = traverse_bound(
            case,
            BoundInputs(
                mst_length=mst_length,
                fire_count=len(member_fires),
                worst_speed=speed,
                fov_width=g,
            ),
            agent.fleet(),
        )
        if bound.feasible and bound.seconds > 0:
            horizon = max(math.ceil(min(bound.seconds / dt, REPLAN_CAP)), 1)
        else:
            horizon = REPLAN_FALLBACK
        agent.replan_deadline = step + horizon


def _follow_route(agent: UavAgent, dt: float) -> None:
    """Move along the route at constant speed: a coverage agent loops it, any other ping-pongs.

    Only coverage routes are cycles, and a UAV recruited for safety never
    returns to coverage.
    """
    if not agent.route:
        return
    budget = agent.speed * dt
    guard = 2 * len(agent.route) + 2
    while budget > 1e-12 and guard > 0:
        guard -= 1
        target = agent.route[agent.route_index]
        delta = target - agent.pose[:2]
        dist = float(np.linalg.norm(delta))
        if dist <= budget:
            agent.pose[:2] = target
            budget -= dist
            if len(agent.route) == 1:
                break
            if agent.mode == "coverage":
                agent.route_index = (agent.route_index + 1) % len(agent.route)
            else:
                nxt = agent.route_index + agent.route_direction
                if nxt < 0 or nxt >= len(agent.route):
                    agent.route_direction *= -1
                    nxt = agent.route_index + agent.route_direction
                agent.route_index = nxt
        else:
            agent.pose[:2] += delta * (budget / dist)
            budget = 0.0
