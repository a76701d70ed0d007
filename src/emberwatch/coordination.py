"""Safety and coverage coordination of the UAV fleet.

Both roles split one close-enough tour into segments, one per UAV, and
bound each segment's traverse time the same way. The safety side tours
the fires near a human team, checks every track's uncertainty ratio
against its segment's bound, and recruits additional UAVs (splitting the
worst segment) until the check passes or the pool runs dry. The coverage
side tours all tracked fires, gives each segment to the free UAV nearest
its centroid, and replans the whole fleet when the earliest segment bound
expires. Every UAV then flies its route in one patrol step.

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
    TraverseBound,
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


@dataclass(frozen=True)
class HumanTeam:
    id: int
    position: np.ndarray  # (2,) float


@dataclass
class UavAgent:
    """One UAV with its pose, camera, role and current route.

    A UAV has one of two roles: "coverage" flies a segment of the tour
    over every tracked fire, "safety" a segment of one team's vicinity
    tour; either patrols its segment back and forth. A coverage UAV
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

    def __post_init__(self):
        self.pose = np.asarray(self.pose, dtype=float)

    def fleet(self) -> FleetParams:
        return FleetParams(speed=self.speed, altitude=float(self.pose[2]), half_angle=self.half_angle)


@dataclass
class Segment:
    """One UAV's contiguous share of a split tour: waypoints in tour order, their fires in id order."""

    uav_id: int
    waypoints: list[SteinerWaypoint]
    fire_ids: list[int]


@dataclass
class MissionPlan:
    """Safety assignment for one team's vicinity fires: a segment per assigned UAV,
    each fire's uncertainty ratio under its segment's bound, and whether all pass."""

    segments: list[Segment]
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


def _split_tour(centers: np.ndarray, parts: int) -> list[list[int]]:
    """One 2-opt-improved MST tour over the centers, split cyclically into `parts` near-equal open paths.

    This is the tour-splitting heuristic of Frederickson, Hecht and Kim
    (SIAM J. Comput., 1978), shared by the safety and coverage planners.
    """
    mst_edges, _ = build_mst(centers)
    tour = k_opt_improve(tour_from_mst(centers, mst_edges), centers)
    return split_sequence(list(tour.order), centers, parts, cyclic=True)


def _segment(uav_id: int, waypoints: list[SteinerWaypoint]) -> Segment:
    fire_ids = sorted(m for w in waypoints for m in w.members)
    return Segment(uav_id=uav_id, waypoints=waypoints, fire_ids=fire_ids)


def _segment_bound(
    segment: Segment,
    speeds: Sequence[tracking.SpeedTerms],
    fleet: FleetParams,
    case: int,
    confidence_level: float,
) -> TraverseBound:
    """The traverse-time bound of a segment with fires; `speeds` are their speed terms, in `fire_ids` order."""
    centers = np.array([w.position for w in segment.waypoints])
    _, mst_length = build_mst(centers)
    inputs = BoundInputs(
        mst_length=mst_length,
        fire_count=len(segment.fire_ids),
        worst_speed=worst_case_speed(speeds, confidence_level),
        fov_width=fov_width(fleet),
    )
    return traverse_bound(case, inputs, fleet)


def _segment_report(
    segment: Segment,
    terms: Mapping[int, tuple[tracking.SpeedTerms, tracking.ResidualTerms]],
    fleet: FleetParams,
    case: int,
    confidence_level: float,
    dt: float,
) -> tuple[bool, dict[int, float]]:
    """(passed, uncertainty ratio per fire) for one UAV's share of the tour."""
    if not segment.fire_ids:
        return True, {}
    bound = _segment_bound(segment, [terms[f][0] for f in segment.fire_ids], fleet, case, confidence_level)
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

    parts = min(len(assigned), len(waypoints))
    segments = [
        _segment(assigned[i].id, [waypoints[k] for k in chunk])
        for i, chunk in enumerate(_split_tour(centers, parts))
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
        _assign_route(agent, segment)


def _assign_route(agent: UavAgent, segment: Segment) -> None:
    """Route the agent over its segment's waypoints, resumed at the nearest one (lowest index on ties).

    Resuming there keeps a replan from resetting progress along a route
    that takes longer to fly than the replan interval.
    """
    agent.route = route = [np.asarray(w.position, dtype=float) for w in segment.waypoints]
    dists = row_norms(np.array(route) - agent.pose[:2]).tolist() if route else []
    agent.route_index = min(range(len(route)), key=lambda i: (dists[i], i), default=0)
    agent.route_direction = 1


def patrol_step(agents: list[UavAgent], dt: float) -> None:
    """Fly every agent that has a route, of either role, one step along it (ping-pong), in id order."""
    for agent in sorted(agents, key=lambda a: a.id):
        _follow_route(agent, dt)


def take_nearest(pool: list[UavAgent], position: np.ndarray) -> UavAgent | None:
    """Remove and return the pool's UAV nearest `position` (lowest id on ties), or None if it is empty."""
    if not pool:
        return None
    dists = row_norms(np.array([a.pose[:2] for a in pool]) - position).tolist()
    return pool.pop(min(range(len(pool)), key=lambda i: (dists[i], pool[i].id)))


# ---------------------------------------------------------------------------
# coverage module


def cluster_and_assign(points: np.ndarray, uavs: list[UavAgent]) -> dict[int, list[int]]:
    """Split one tour over the points into a segment per UAV, as a safety plan splits its tour.

    The tour is split cyclically into min(UAVs, points) near-equal
    segments. In tour order, each segment goes to the free UAV nearest its
    centroid (lowest id on ties); a UAV left over gets no points. Each
    segment lists its point indices in tour order.
    """
    points = np.asarray(points, dtype=float)
    free = list(uavs)
    segments: dict[int, list[int]] = {a.id: [] for a in uavs}
    for chunk in _split_tour(points, min(len(uavs), len(points))):
        segments[take_nearest(free, points[chunk].mean(axis=0)).id] = chunk
    return segments


def coverage_step(
    agents: list[UavAgent],
    tracks: Mapping[int, tracking.TrackEstimate],
    case: int,
    confidence_level: float,
    dt: float,
    params: EllipseParams,
    step: int,
    due: int,
) -> int:
    """Replan the coverage segments if the fleet's replan is `due` by `step`; return the step the next one is due.

    Only coverage UAVs are replanned, and none is moved: `patrol_step`
    flies them. Without a coverage UAV or a track nothing is planned and
    `due` comes back unchanged.
    """
    cov = sorted((a for a in agents if a.mode == "coverage"), key=lambda a: a.id)
    if not cov or not tracks or due > step:
        return due
    return _replan_coverage(cov, tracks, case, confidence_level, dt, params, step)


def _replan_coverage(
    cov: list[UavAgent],
    tracks: Mapping[int, tracking.TrackEstimate],
    case: int,
    confidence_level: float,
    dt: float,
    params: EllipseParams,
    step: int,
) -> int:
    """Give each coverage UAV its segment of one tour over the tracks; return the step the next replan is due.

    That is the earliest segment horizon: the bound in steps capped at
    `REPLAN_CAP`, or `REPLAN_FALLBACK` if the bound is infeasible or 0 s,
    and 1 for a UAV left without a segment.
    """
    fire_ids = sorted(tracks)
    fleet = cov[0].fleet()
    positions = np.array([tracks[f].mean[:2] for f in fire_ids])
    waypoints = steiner_reduce(positions, fov_width(fleet), ids=fire_ids)
    chunks = cluster_and_assign(np.array([w.position for w in waypoints]), cov)
    # One pass for every segment: a track's terms have the same bits in any batch.
    speeds = dict(zip(fire_ids, tracking.speed_terms([tracks[f] for f in fire_ids], params)))

    horizons = []
    for agent in cov:
        segment = _segment(agent.id, [waypoints[i] for i in chunks[agent.id]])
        _assign_route(agent, segment)
        if not segment.fire_ids:
            horizons.append(1)
            continue
        bound = _segment_bound(segment, [speeds[f] for f in segment.fire_ids], fleet, case, confidence_level)
        if bound.feasible and bound.seconds > 0:
            horizons.append(max(math.ceil(min(bound.seconds / dt, REPLAN_CAP)), 1))
        else:
            horizons.append(REPLAN_FALLBACK)
    return step + min(horizons)


def _follow_route(agent: UavAgent, dt: float) -> None:
    """Move along the route at constant speed, reversing at either end (ping-pong).

    Coverage and safety routes are both open segments of a split tour.
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
            nxt = agent.route_index + agent.route_direction
            if nxt < 0 or nxt >= len(agent.route):
                agent.route_direction *= -1
                nxt = agent.route_index + agent.route_direction
            agent.route_index = nxt
        else:
            agent.pose[:2] += delta * (budget / dist)
            budget = 0.0
