import inspect
import itertools
import math
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from emberwatch import coordination, harness
from emberwatch.bounds import BoundInputs, fov_width, traverse_bound, worst_case_speed
from emberwatch.config import load_config
from emberwatch.coordination import (
    REPLAN_CAP,
    HumanTeam,
    UavAgent,
    _assign_route,
    _follow_route,
    _segment,
    apply_safety_plan,
    cluster_and_assign,
    coverage_step,
    first_observers,
    patrol_step,
    plan_safety_tour,
    take_nearest,
    vicinity_fires,
)
from emberwatch.fire import DEFAULT_ELLIPSE, calibrate_spread_rate
from emberwatch.routing import SteinerWaypoint, build_mst, k_opt_improve, tour_from_mst
from emberwatch.tracking import TrackEstimate, _observation, predict, residual_terms, speed_terms
from oracles import reference_innovation_cov

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def make_agent(agent_id=0, xy=(0.0, 0.0), z=40.0, speed=10.0, mode="coverage"):
    return UavAgent(
        id=agent_id,
        pose=np.array([xy[0], xy[1], z]),
        speed=speed,
        half_angle=0.6,
        mode=mode,
    )


def make_track(
    pos,
    target_speed=0.0,
    azimuth=0.8,
    pos_var=1.0,
    pose_var=4.0,
    weather_var=(4e-4, 9e-4, 1e-4),
    predicted=True,
):
    rate = calibrate_spread_rate(target_speed, 5.0, DEFAULT_ELLIPSE)
    mean = np.array([pos[0], pos[1], pos[0], pos[1], 40.0, rate, 5.0, azimuth])
    track = TrackEstimate(
        mean=mean,
        covariance=np.diag(
            [pos_var, pos_var, pose_var, pose_var, pose_var, *weather_var]
        ),
        process_noise=np.diag([0.0025, 0.0025, 4.0, 4.0, 4.0, 4e-4, 9e-4, 1e-4]),
        observation_noise=np.diag([1e-4, 1e-4, 0.0025, 0.01, 4e-4]),
    )
    if predicted:
        track = predict(track, 1.0, DEFAULT_ELLIPSE)
    return track


def certificate(tracks):
    """Each fire's (speed terms, residual terms), as the closed loop hands them to a safety plan."""
    ids = sorted(tracks)
    rows = [tracks[f] for f in ids]
    return dict(zip(ids, zip(speed_terms(rows, DEFAULT_ELLIPSE), residual_terms(rows))))


class TestVicinity:
    def test_empty_when_all_far(self):
        team = HumanTeam(0, np.array([0.0, 0.0]))
        tracks = {1: make_track((500.0, 0.0)), 2: make_track((0.0, -900.0))}
        assert vicinity_fires(tracks, [team], 100.0) == [{}]

    def test_fire_at_team_position_included(self):
        team = HumanTeam(0, np.array([10.0, 10.0]))
        tracks = {5: make_track((10.0, 10.0))}
        assert [list(v) for v in vicinity_fires(tracks, [team], 100.0)] == [[5]]

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        team = HumanTeam(0, np.array([500.0, 500.0]))
        tracks = {}
        for fid in range(50):
            tracks[fid] = make_track(tuple(rng.uniform(0, 1000, size=2)), predicted=False)
        (got,) = vicinity_fires(tracks, [team], 200.0)
        expected = {
            fid
            for fid, tr in tracks.items()
            if np.linalg.norm(tr.mean[:2] - team.position) <= 200.0
        }
        assert set(got) == expected


def tour_order(points):
    """The cyclic tour that both planners split: an MST walk improved by 2-opt."""
    edges, _ = build_mst(points)
    return list(k_opt_improve(tour_from_mst(points, edges), points).order)


class TestClusterAndAssign:
    """Coverage splits one tour over the waypoints into a segment per UAV."""

    def test_single_uav_takes_everything(self):
        points = np.random.default_rng(5).uniform(0, 100, size=(9, 2))
        assert cluster_and_assign(points, [make_agent(0)]) == {0: tour_order(points)}

    def test_each_waypoint_is_in_exactly_one_segment(self):
        rng = np.random.default_rng(11)
        for n, k in [(9, 3), (12, 4), (5, 5), (18, 6), (30, 8)]:
            points = rng.uniform(0, 400, size=(n, 2))
            uavs = [make_agent(i, xy=tuple(rng.uniform(0, 400, size=2))) for i in range(k)]
            out = cluster_and_assign(points, uavs)
            assert sorted(out) == list(range(k))
            assert sorted(i for seg in out.values() for i in seg) == list(range(n))
            assert all(out.values())

    def test_each_segment_is_a_contiguous_run_of_one_cyclic_tour(self):
        rng = np.random.default_rng(29)
        for k in (2, 3, 6):
            points = rng.uniform(0, 400, size=(18, 2))
            uavs = [make_agent(i, xy=tuple(rng.uniform(0, 400, size=2))) for i in range(k)]
            order = tour_order(points)
            for seg in cluster_and_assign(points, uavs).values():
                start = order.index(seg[0])
                assert seg == (order[start:] + order[:start])[: len(seg)]

    def test_nearest_free_uav_at_the_centroid_wins_in_tour_order(self):
        # The tour starts at point 0, so segment [0] is assigned first. UAV 0
        # is nearer that segment than UAV 1 is and takes it, although the
        # swapped assignment would fly 120 m less in total.
        points = np.array([[0.0, 0.0], [100.0, 0.0]])
        uavs = [make_agent(1, xy=(-100.0, 0.0)), make_agent(0, xy=(60.0, 0.0))]
        assert cluster_and_assign(points, uavs) == {1: [1], 0: [0]}

    def test_equally_near_uavs_go_lowest_id_first(self):
        points = np.array([[0.0, 0.0], [100.0, 0.0]])
        uavs = [make_agent(5, xy=(50.0, 0.0)), make_agent(2, xy=(-50.0, 0.0))]
        assert cluster_and_assign(points, uavs) == {5: [1], 2: [0]}

    def test_more_uavs_than_points(self):
        points = np.array([[0.0, 0.0], [50.0, 50.0]])
        uavs = [make_agent(i, xy=(i * 10.0, 0.0)) for i in range(4)]
        assert cluster_and_assign(points, uavs) == {0: [0], 1: [], 2: [], 3: [1]}

    def test_equal_inputs_give_equal_outputs_without_a_generator(self):
        assert list(inspect.signature(cluster_and_assign).parameters) == ["points", "uavs"]
        points = np.random.default_rng(19).uniform(0, 100, size=(12, 2))
        runs = [
            cluster_and_assign(points.copy(), [make_agent(i, xy=(i * 5.0, i * 3.0)) for i in range(3)])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def team_at_first_fire(tracks):
    """A team at the lowest-id fire's estimate, so an empty plan pulls the UAV nearest that fire first."""
    return HumanTeam(0, tracks[min(tracks)].mean[:2])


def solo_plan(tracks, uav, case):
    """Can this one UAV keep every track fresh? An empty pool, so no recruiting."""
    plan, _ = plan_safety_tour(
        tracks, [uav], case=case, confidence_level=0.05, dt=1.0, terms=certificate(tracks),
        team=team_at_first_fire(tracks), recruit=partial(take_nearest, []),
    )
    return plan


class TestFeasibility:
    def test_single_stationary_fire_passes(self):
        tracks = {1: make_track((20.0, 20.0))}
        uav = make_agent(0, xy=(20.0, 15.0))
        plan = solo_plan(tracks, uav, case=1)
        assert plan.feasible
        assert plan.uncertainty_ratios[1] <= 1.0 + 1e-12

    def test_infeasible_bound_fails_with_infinite_ratio(self):
        # fast spreading fires spread over a wide area: growth outruns one UAV
        tracks = {
            fid: make_track((300.0 * fid, 0.0), target_speed=2.5, weather_var=(0.04, 0.09, 0.01))
            for fid in range(1, 7)
        }
        uav = make_agent(0)
        plan = solo_plan(tracks, uav, case=3)
        assert not plan.feasible
        assert len(plan.segments) == 1
        # an infeasible traverse bound gives every fire an infinite ratio
        assert sorted(plan.uncertainty_ratios) == sorted(tracks)
        assert all(v == math.inf for v in plan.uncertainty_ratios.values())

    def test_case2_matches_stepwise_residual_simulation(self):
        # oracle: iterate the frozen transition step by step instead of
        # using the matrix power, then apply the same pass rule
        for spread in (120.0, 400.0, 800.0):
            tracks = {
                fid: make_track((spread * (fid - 1), 0.0), target_speed=0.5)
                for fid in (1, 2, 3)
            }
            uav = make_agent(0)
            plan = solo_plan(tracks, uav, case=2)
            centers = np.array([w.position for w in plan.segments[0].waypoints])
            inputs = BoundInputs(
                mst_length=build_mst(centers)[1],
                fire_count=len(tracks),
                worst_speed=worst_case_speed(speed_terms(list(tracks.values()), DEFAULT_ELLIPSE), 0.05),
                fov_width=fov_width(uav.fleet()),
            )
            bound = traverse_bound(2, inputs, uav.fleet())
            if not bound.feasible:
                continue
            steps = max(1, math.ceil(bound.seconds / 1.0))
            oracle_pass = True
            for track in tracks.values():
                F = track.transition_matrix
                H = _observation(track.prior_mean)[1]
                M = H.copy()
                for _ in range(steps - 1):
                    M = M @ F
                num = np.trace(M @ track.prior_covariance @ M.T + track.observation_noise)
                den = np.trace(
                    reference_innovation_cov(track.prior_covariance, H, track.observation_noise)
                )
                if num / den > 1.0 + 1e-12:
                    oracle_pass = False
            assert plan.feasible == oracle_pass


def plan_from_pool(tracks, pool, case):
    """Plan from a copy of a coverage pool with nobody assigned yet, then fly the plan."""
    plan, assigned = plan_safety_tour(
        tracks, [], case=case, confidence_level=0.05, dt=1.0, terms=certificate(tracks),
        team=team_at_first_fire(tracks), recruit=partial(take_nearest, list(pool)),
    )
    apply_safety_plan(plan, {a.id: a for a in assigned})
    return plan


class TestRecruitment:
    def test_single_stationary_fire_single_uav(self):
        tracks = {1: make_track((30.0, 30.0))}
        pool = [make_agent(0, xy=(25.0, 25.0))]
        plan = plan_from_pool(tracks, pool, case=1)
        assert plan.feasible
        assert len(plan.segments) == 1
        assert pool[0].mode == "safety"
        assert plan.uncertainty_ratios[1] <= 1.0 + 1e-12

    def test_empty_pool_gives_infeasible_plan(self):
        tracks = {1: make_track((30.0, 30.0))}
        plan, assigned = plan_safety_tour(
            tracks, [], case=1, confidence_level=0.05, dt=1.0, terms=certificate(tracks),
            team=team_at_first_fire(tracks), recruit=partial(take_nearest, []),
        )
        assert not plan.feasible
        assert plan.segments == [] and plan.uncertainty_ratios == {}
        assert assigned == []

    def _hard_case2_tracks(self):
        # spread-out moving fires: one UAV fails, two suffice
        positions = [(0.0, 0.0), (260.0, 0.0), (0.0, 260.0), (260.0, 260.0)]
        return {
            fid + 1: make_track(p, target_speed=0.5, weather_var=(1e-3, 2e-3, 5e-4))
            for fid, p in enumerate(positions)
        }

    def test_engineered_split_recruits_exactly_two(self):
        tracks = self._hard_case2_tracks()
        assert not solo_plan(tracks, make_agent(0), case=2).feasible  # one UAV is not enough here
        pool = [make_agent(i, xy=(130.0 * i, -20.0)) for i in range(4)]
        plan = plan_from_pool(tracks, pool, case=2)
        assert plan.feasible
        assert len(plan.segments) == 2
        assert all(v <= 1.0 + 1e-12 for v in plan.uncertainty_ratios.values())

    def test_pool_exhaustion_marks_infeasible(self):
        tracks = {
            fid: make_track((400.0 * fid, 0.0), target_speed=1.0, weather_var=(0.01, 0.02, 0.005))
            for fid in range(1, 8)
        }
        pool = [make_agent(0), make_agent(1)]
        plan = plan_from_pool(tracks, pool, case=2)
        if not plan.feasible:
            assert len(plan.segments) == 2  # everyone assigned before giving up
            assert all(a.mode == "safety" for a in pool)

    def test_monotone_in_pool_size(self):
        tracks = self._hard_case2_tracks()
        small = [make_agent(i) for i in range(2)]
        large = [make_agent(i) for i in range(6)]
        plan_small = plan_from_pool(tracks, small, case=2)
        plan_large = plan_from_pool(tracks, large, case=2)
        assert plan_small.feasible <= plan_large.feasible  # adding UAVs never hurts

    def test_segments_cover_fires_exactly_once(self):
        tracks = self._hard_case2_tracks()
        pool = [make_agent(i) for i in range(4)]
        plan = plan_from_pool(tracks, pool, case=2)
        covered = sorted(f for seg in plan.segments for f in seg.fire_ids)
        assert covered == sorted(tracks)
        ids = [seg.uav_id for seg in plan.segments]
        assert len(set(ids)) == len(ids)

    def test_take_nearest_breaks_distance_ties_by_lowest_id(self):
        pool = [make_agent(7, xy=(10.0, 0.0)), make_agent(3, xy=(-10.0, 0.0)), make_agent(1, xy=(0.0, 11.0))]
        assert take_nearest(pool, np.array([0.0, 0.0])).id == 3
        assert [a.id for a in pool] == [7, 1]
        assert take_nearest(pool, np.array([0.0, 0.0])).id == 7
        assert take_nearest(pool, np.array([0.0, 0.0])).id == 1
        assert take_nearest(pool, np.array([0.0, 0.0])) is None

    def test_rebuild_keeps_assigned_agents(self):
        tracks = self._hard_case2_tracks()
        pool = [make_agent(i) for i in range(4)]
        plan, assigned = plan_safety_tour(
            tracks, [], case=2, confidence_level=0.05, dt=1.0, terms=certificate(tracks),
            team=team_at_first_fire(tracks), recruit=partial(take_nearest, list(pool)),
        )
        again, assigned2 = plan_safety_tour(
            tracks, assigned, case=2, confidence_level=0.05, dt=1.0, terms=certificate(tracks),
            team=team_at_first_fire(tracks), recruit=partial(take_nearest, list(pool)),
        )
        assert [a.id for a in assigned2[: len(assigned)]] == [a.id for a in assigned]
        assert len(again.segments) >= len(plan.segments)


def observers_by_loop(agents, points):
    """One footprint test per (point, agent) pair, agents in id order."""
    out = []
    for point in points:
        hit = None
        for agent in sorted(agents, key=lambda a: a.id):
            half = agent.pose[2] * math.tan(agent.half_angle)
            if abs(point[0] - agent.pose[0]) <= half and abs(point[1] - agent.pose[1]) <= half:
                hit = agent
                break
        out.append(hit)
    return out


class TestFirstObservers:
    def test_footprint_edge_is_inside(self):
        agent = make_agent(0, xy=(0.0, 0.0))
        half = agent.pose[2] * math.tan(agent.half_angle)
        beyond = math.nextafter(half, math.inf)
        points = [(half, -half), (-half, half), (beyond, 0.0), (0.0, -beyond)]
        assert first_observers([agent], points) == [agent, agent, None, None]

    def test_overlapping_footprints_lowest_id_wins(self):
        high = make_agent(9, xy=(0.0, 0.0))
        low = make_agent(4, xy=(10.0, 0.0))
        got = first_observers([high, low], [(5.0, 0.0), (-20.0, 0.0), (30.0, 0.0), (500.0, 0.0)])
        assert [a.id if a else None for a in got] == [4, 9, 4, None]

    def test_no_agents_or_no_points(self):
        assert first_observers([], [(0.0, 0.0)]) == [None]
        assert first_observers([make_agent(0)], []) == []

    def test_matches_per_point_loop(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            agents = [
                UavAgent(
                    id=int(i),
                    pose=np.array([*rng.uniform(0.0, 200.0, size=2), rng.uniform(5.0, 60.0)]),
                    speed=10.0,
                    half_angle=float(rng.uniform(0.1, 1.2)),
                    mode="coverage",
                )
                for i in rng.permutation(int(rng.integers(1, 6)))
            ]
            points = list(rng.uniform(-20.0, 220.0, size=(int(rng.integers(0, 40)), 2)))
            for agent in agents:  # corners and edge midpoints of each footprint
                half = agent.pose[2] * math.tan(agent.half_angle)
                for dx, dy in itertools.product((-1.0, 0.0, 1.0), repeat=2):
                    points.append(agent.pose[:2] + half * np.array([dx, dy]))
            assert first_observers(agents, points) == observers_by_loop(agents, points)


class TestCoverageStep:
    def test_agent_over_fire_observes_it(self):
        tracks = {7: make_track((50.0, 50.0))}
        agent = make_agent(0, xy=(50.0, 50.0), mode="coverage")
        coverage_step(
            [agent], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=0, due=0,
        )
        patrol_step([agent], dt=1.0)
        assert first_observers([agent], [(50.0, 50.0)]) == [agent]

    def test_replan_assigns_routes_and_deadlines(self):
        tracks = {i: make_track((100.0 * i, 0.0)) for i in range(1, 5)}
        agents = [make_agent(0, mode="coverage"), make_agent(1, xy=(300.0, 0.0), mode="coverage")]
        due = coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=0, due=0,
        )
        assert all(a.route for a in agents)
        assert due > 0

    def test_replan_resumes_at_nearest_waypoint(self):
        tracks = {i: make_track((100.0 * i, 0.0)) for i in range(1, 5)}
        agent = make_agent(0, xy=(290.0, 0.0), speed=1.0, mode="coverage")
        coverage_step(
            [agent], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=0, due=0,
        )
        patrol_step([agent], dt=1.0)
        assert agent.route[agent.route_index] == pytest.approx([300.0, 0.0])
        assert agent.pose[:2] == pytest.approx([291.0, 0.0])

    def test_removing_agent_forces_repartition(self):
        tracks = {i: make_track((80.0 * i, 0.0)) for i in range(1, 7)}
        agents = [make_agent(i, xy=(40.0 * i, 10.0), mode="coverage") for i in range(3)]
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=0, due=0,
        )
        before = {a.id: list(map(tuple, a.route)) for a in agents}
        # dismiss agent 1 to safety duty; survivors must replan immediately
        agents[1].mode = "safety"
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=1, due=1,
        )
        survivors = [a for a in agents if a.mode == "coverage"]
        union = sorted({f for a in survivors for f in _route_fires(a, tracks)})
        assert union == sorted(tracks)  # survivors re-cover everything

    def test_new_route_resumes_at_lowest_index_of_equally_near_waypoints(self):
        agent = make_agent(0, xy=(0.0, 0.0))
        points = [(30.0, 0.0), (0.0, 20.0), (-20.0, 0.0), (0.0, -20.0)]
        _assign_route(agent, _segment(0, [SteinerWaypoint(np.array(p), (k,)) for k, p in enumerate(points)]))
        assert [tuple(w) for w in agent.route] == points and agent.route_index == 1
        _assign_route(agent, _segment(0, []))
        assert agent.route == [] and agent.route_index == 0

    def test_idle_agents_do_not_move(self):
        """An agent off coverage, here on safety duty, is not moved by the coverage step."""
        tracks = {1: make_track((10.0, 10.0))}
        guard = make_agent(5, xy=(0.0, 0.0), mode="safety")
        coverage_step(
            [guard], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=0, due=0,
        )
        assert guard.pose[:2] == pytest.approx([0.0, 0.0])

    def test_unrouted_agent_replans_every_step(self, monkeypatch):
        """Three agents over one track: the two left without a route make the fleet replan on every step.

        The routed agent's own horizon lies further out, so only the
        unrouted agents make each next step due.
        """
        tracks = {1: make_track((100.0, 0.0))}
        agents = [make_agent(i, xy=(50.0 * i, 0.0)) for i in range(3)]
        replans = []
        replan = coordination._replan_coverage

        def counted_replan(*args):
            replans.append(args[-1])
            return replan(*args)

        monkeypatch.setattr(coordination, "_replan_coverage", counted_replan)
        due = 0
        for step in range(4):
            due = coverage_step(
                agents, tracks, case=1, confidence_level=0.05, dt=1.0,
                params=DEFAULT_ELLIPSE, step=step, due=due,
            )
            assert sum(bool(a.route) for a in agents) == 1
            assert due == step + 1
        assert replans == [0, 1, 2, 3]

    def test_due_is_the_earliest_segment_horizon(self):
        """Two segments of 100 m and 300 m: in case 1 their bounds are 20 s and
        60 s at 10 m/s, and the fleet's next replan is due at the first."""
        tracks = {
            1: make_track((0.0, 0.0)),
            2: make_track((0.0, 100.0)),
            3: make_track((1000.0, 0.0)),
            4: make_track((1300.0, 0.0)),
        }
        agents = [make_agent(0, xy=(0.0, 50.0)), make_agent(1, xy=(1150.0, 0.0))]
        due = coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=5, due=5,
        )
        assert [len(a.route) for a in agents] == [2, 2]
        assert [build_mst(np.array(a.route))[1] for a in agents] == pytest.approx([100.0, 300.0])
        assert due == 5 + 20
        # Not yet due: nothing is replanned and the deadline is kept.
        agents[0].route = []
        assert coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, step=24, due=due,
        ) == 25
        assert agents[0].route == []

    def test_coverage_agent_reverses_at_its_segment_end(self):
        """A coverage UAV turns back at the last waypoint instead of flying to the first."""
        agent = make_agent(0, xy=(0.0, 0.0), speed=10.0, mode="coverage")
        points = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0))
        _assign_route(agent, _segment(0, [SteinerWaypoint(np.array(p), (k,)) for k, p in enumerate(points)]))
        poses = []
        for _ in range(4):
            _follow_route(agent, 1.0)
            poses.append(tuple(agent.pose[:2]))
        # A looped route would leave (10, 10) for (0, 0) on the diagonal.
        assert poses == [(10.0, 0.0), (10.0, 10.0), (10.0, 0.0), (0.0, 0.0)]


def _route_fires(agent, tracks):
    hits = set()
    for wp in agent.route:
        for fid, tr in tracks.items():
            if np.linalg.norm(tr.mean[:2] - wp) < 30.0:
                hits.add(fid)
    return hits


class TestWhereCoverageDeadlinesComeFrom:
    """Today's coverage deadlines, pinned before they are derived from the
    model: every deadline of the shipped scenarios is the `REPLAN_FALLBACK`
    timer, and the bound, or its `REPLAN_CAP` cap, sets one only on a sparse
    compare cell."""

    @staticmethod
    def _sources(cfg, monkeypatch) -> dict[str, int]:
        """How many of the run's coverage deadlines each source set.

        `_replan_coverage` sets one deadline per routed agent from that
        agent's `traverse_bound`: the bound in steps, capped at `REPLAN_CAP`,
        when it is feasible and above 0 s, else the fallback.
        """
        sources = Counter()
        replanning = []
        replan, bound = coordination._replan_coverage, coordination.traverse_bound

        def recorded_replan(*args):
            replanning.append(True)
            try:
                return replan(*args)
            finally:
                replanning.pop()

        def recorded_bound(*args):
            result = bound(*args)
            if replanning:
                if not result.feasible:
                    sources["infeasible fallback"] += 1
                elif result.seconds <= 0:
                    sources["0 s fallback"] += 1
                elif result.seconds / cfg.dt > REPLAN_CAP:
                    sources["cap"] += 1
                else:
                    sources["bound"] += 1
            return result

        monkeypatch.setattr(coordination, "_replan_coverage", recorded_replan)
        monkeypatch.setattr(coordination, "traverse_bound", recorded_bound)
        harness.run_scenario(cfg)
        return dict(sources)

    @pytest.mark.parametrize(
        "case, expected",
        [
            (1, {"0 s fallback": 48}),
            (2, {"0 s fallback": 48}),
            (3, {"0 s fallback": 8, "infeasible fallback": 40}),
        ],
    )
    def test_shipped_scenarios_replan_on_the_fallback_alone(self, case, expected, monkeypatch):
        cfg = load_config(CONFIG_DIR / f"case{case}.yaml")
        assert self._sources(cfg, monkeypatch) == expected

    @pytest.mark.parametrize("drones, expected", [(1, {"cap": 1}), (4, {"bound": 16, "0 s fallback": 16})])
    def test_sparse_compare_cell_replans_on_the_bound(self, drones, expected, monkeypatch):
        cells = dict(harness.experiment_cells(load_config(CONFIG_DIR / "compare.yaml"), "compare", [drones], 1))
        assert self._sources(cells[1, "proposed", drones, 0], monkeypatch) == expected
