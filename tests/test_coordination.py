import itertools
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from emberwatch.bounds import BoundInputs, fov_width, traverse_bound, worst_case_speed
from emberwatch.coordination import (
    HumanTeam,
    UavAgent,
    _linear_sum_assignment,
    apply_safety_plan,
    cluster_and_assign,
    coverage_step,
    first_observers,
    plan_safety_tour,
    take_nearest,
    vicinity_fires,
)
from emberwatch.fire import DEFAULT_ELLIPSE, calibrate_spread_rate
from emberwatch.routing import build_mst
from emberwatch.tracking import TrackEstimate, _observation, predict, residual_terms, speed_terms
from oracles import reference_innovation_cov


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


class TestClusterAndAssign:
    def test_single_uav_takes_everything(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 100, size=(9, 2))
        out = cluster_and_assign(points, [make_agent(0)], rng)
        assert sorted(out[0]) == list(range(9))

    def test_two_blobs_two_uavs_nearest(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [100.0, 100.0], [101.0, 100.0], [100.0, 101.0]])
        a = make_agent(0, xy=(0.0, 5.0))
        b = make_agent(1, xy=(100.0, 95.0))
        out = cluster_and_assign(points, [a, b], np.random.default_rng(7))
        assert sorted(out[0]) == [0, 1, 2]
        assert sorted(out[1]) == [3, 4, 5]

    def test_assignment_cost_is_exhaustive_minimum(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            points = rng.uniform(0, 100, size=(9, 2))
            uavs = [make_agent(i, xy=tuple(rng.uniform(0, 100, size=2))) for i in range(3)]
            out = cluster_and_assign(points, uavs, np.random.default_rng(13))
            centers = {
                u.id: np.mean(points[out[u.id]], axis=0) for u in uavs if out[u.id]
            }
            got = sum(
                float(np.linalg.norm(u.pose[:2] - centers[u.id])) for u in uavs if u.id in centers
            )
            cluster_list = [centers[u.id] for u in uavs if u.id in centers]
            best = min(
                sum(
                    float(np.linalg.norm(u.pose[:2] - cluster_list[p[i]]))
                    for i, u in enumerate(uavs)
                )
                for p in itertools.permutations(range(len(cluster_list)))
            )
            assert got == pytest.approx(best, abs=1e-9)

    def test_assignment_optimal_up_to_six_uavs(self):
        rng = np.random.default_rng(29)
        points = rng.uniform(0, 400, size=(18, 2))
        uavs = [make_agent(i, xy=tuple(rng.uniform(0, 400, size=2))) for i in range(6)]
        out = cluster_and_assign(points, uavs, np.random.default_rng(31))
        centers = {u.id: np.mean(points[out[u.id]], axis=0) for u in uavs if out[u.id]}
        got = sum(float(np.linalg.norm(u.pose[:2] - centers[u.id])) for u in uavs if u.id in centers)
        cluster_list = [centers[u.id] for u in uavs if u.id in centers]
        best = min(
            sum(
                float(np.linalg.norm(u.pose[:2] - cluster_list[p[i]]))
                for i, u in enumerate(uavs)
            )
            for p in itertools.permutations(range(len(cluster_list)))
        )
        assert got == pytest.approx(best, abs=1e-9)

    def test_more_uavs_than_points(self):
        points = np.array([[0.0, 0.0], [50.0, 50.0]])
        uavs = [make_agent(i, xy=(i * 10.0, 0.0)) for i in range(4)]
        out = cluster_and_assign(points, uavs, np.random.default_rng(17))
        covered = sorted(i for ids in out.values() for i in ids)
        assert covered == [0, 1]
        assert sum(1 for ids in out.values() if ids) == 2

    def test_deterministic_given_rng_seed(self):
        points = np.random.default_rng(19).uniform(0, 100, size=(12, 2))
        uavs = [make_agent(i, xy=(i * 5.0, i * 3.0)) for i in range(3)]
        a = cluster_and_assign(points, uavs, np.random.default_rng(23))
        b = cluster_and_assign(points, uavs, np.random.default_rng(23))
        assert a == b


class TestAssignmentPort:
    """The private assignment solver against scipy's, the reference it ports."""

    def test_equals_scipy_on_seeded_matrices(self):
        rng = np.random.default_rng(2016)
        kinds = ("uniform", "ties", "equal")
        checked = 0
        for trial in range(10_800):
            rows, cols = (int(n) for n in rng.integers(1, 10, size=2))
            kind = kinds[trial % 3]
            if kind == "uniform":
                cost = rng.uniform(0.0, 100.0, size=(rows, cols))
            elif kind == "ties":
                cost = rng.integers(0, 4, size=(rows, cols)).astype(float)
            else:
                cost = np.full((rows, cols), float(rng.integers(0, 5)))
            want_rows, want_cols = linear_sum_assignment(cost)
            got = _linear_sum_assignment(cost.tolist())
            assert got == (want_rows.tolist(), want_cols.tolist()), (kind, cost)
            if kind == "equal" and rows == cols:
                assert got == (list(range(rows)), list(range(rows)))
            checked += 1
        assert checked >= 10_000

    @pytest.mark.parametrize(
        "cost",
        [
            [[1.0, math.nan], [2.0, 3.0]],
            [[1.0, -math.inf], [2.0, 3.0]],
            [[math.nan], [1.0], [2.0]],
            [[math.inf, math.inf], [1.0, 2.0]],
            [[math.inf, 1.0], [math.inf, 2.0]],
        ],
        ids=["nan", "minus-inf", "nan-tall", "infeasible-row", "infeasible-column"],
    )
    def test_invalid_matrices_raise(self, cost):
        with pytest.raises(ValueError):
            linear_sum_assignment(np.array(cost))
        with pytest.raises(ValueError):
            _linear_sum_assignment(cost)


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
            params=DEFAULT_ELLIPSE, make_rng=lambda: np.random.default_rng(0), step=0, force_replan=False,
        )
        assert first_observers([agent], [(50.0, 50.0)]) == [agent]

    def test_replan_assigns_routes_and_deadlines(self):
        tracks = {i: make_track((100.0 * i, 0.0)) for i in range(1, 5)}
        agents = [make_agent(0, mode="coverage"), make_agent(1, xy=(300.0, 0.0), mode="coverage")]
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, make_rng=lambda: np.random.default_rng(1), step=0, force_replan=False,
        )
        assert all(a.route for a in agents)
        assert all(a.replan_deadline > 0 for a in agents)

    def test_replan_resumes_at_nearest_waypoint(self):
        tracks = {i: make_track((100.0 * i, 0.0)) for i in range(1, 5)}
        agent = make_agent(0, xy=(290.0, 0.0), speed=1.0, mode="coverage")
        coverage_step(
            [agent], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, make_rng=lambda: np.random.default_rng(5), step=0, force_replan=False,
        )
        assert agent.route[agent.route_index] == pytest.approx([300.0, 0.0])
        assert agent.pose[:2] == pytest.approx([291.0, 0.0])

    def test_removing_agent_forces_repartition(self):
        tracks = {i: make_track((80.0 * i, 0.0)) for i in range(1, 7)}
        agents = [make_agent(i, xy=(40.0 * i, 10.0), mode="coverage") for i in range(3)]
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, make_rng=lambda: np.random.default_rng(2), step=0, force_replan=False,
        )
        before = {a.id: list(map(tuple, a.route)) for a in agents}
        # dismiss agent 1 to safety duty; survivors must replan immediately
        agents[1].mode = "safety"
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, make_rng=lambda: np.random.default_rng(3), step=1, force_replan=True,
        )
        survivors = [a for a in agents if a.mode == "coverage"]
        union = sorted({f for a in survivors for f in _route_fires(a, tracks)})
        assert union == sorted(tracks)  # survivors re-cover everything

    def test_idle_agents_do_not_move(self):
        """An agent off coverage, here on safety duty, is not moved by the coverage step."""
        tracks = {1: make_track((10.0, 10.0))}
        guard = make_agent(5, xy=(0.0, 0.0), mode="safety")
        coverage_step(
            [guard], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, make_rng=lambda: np.random.default_rng(4), step=0, force_replan=False,
        )
        assert guard.pose[:2] == pytest.approx([0.0, 0.0])

    def test_unrouted_agent_replans_every_step(self):
        """Three agents over one track: the two left without a route make the fleet replan on every step.

        Every deadline lies in the future, so only the unrouted agents trigger
        the replans.
        """
        tracks = {1: make_track((100.0, 0.0))}
        agents = [make_agent(i, xy=(50.0 * i, 0.0)) for i in range(3)]
        for agent in agents:
            agent.replan_deadline = 100
        replans = []
        for step in range(4):
            def make_rng():
                replans.append(step)
                return np.random.default_rng(step)

            coverage_step(
                agents, tracks, case=1, confidence_level=0.05, dt=1.0,
                params=DEFAULT_ELLIPSE, make_rng=make_rng, step=step, force_replan=False,
            )
            assert sum(bool(a.route) for a in agents) == 1
        assert replans == [0, 1, 2, 3]


def _route_fires(agent, tracks):
    hits = set()
    for wp in agent.route:
        for fid, tr in tracks.items():
            if np.linalg.norm(tr.mean[:2] - wp) < 30.0:
                hits.add(fid)
    return hits
