import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from emberwatch.bounds import BoundInputs, fov_width, traverse_bound, worst_case_speed
from emberwatch.coordination import (
    HumanTeam,
    UavAgent,
    apply_safety_plan,
    cluster_and_assign,
    coverage_step,
    fov_covers,
    plan_safety_tour,
    vicinity_fires,
)
from emberwatch.errors import NoUavAvailable
from emberwatch.fire import DEFAULT_ELLIPSE, calibrate_spread_rate
from emberwatch.routing import build_mst
from emberwatch.tracking import TrackEstimate, multi_step_residual_cov, observation_jacobian, innovation_covariance, predict


def make_agent(agent_id=0, xy=(0.0, 0.0), z=40.0, speed=10.0, mode="idle"):
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


class TestVicinity:
    def test_empty_when_all_far(self):
        team = HumanTeam(0, np.array([0.0, 0.0]), vicinity_radius=100.0)
        tracks = {1: make_track((500.0, 0.0)), 2: make_track((0.0, -900.0))}
        assert vicinity_fires(tracks, team) == {}

    def test_fire_at_team_position_included(self):
        team = HumanTeam(0, np.array([10.0, 10.0]), vicinity_radius=100.0)
        tracks = {5: make_track((10.0, 10.0))}
        assert list(vicinity_fires(tracks, team)) == [5]

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        team = HumanTeam(0, np.array([500.0, 500.0]), vicinity_radius=200.0)
        tracks = {}
        for fid in range(50):
            tracks[fid] = make_track(tuple(rng.uniform(0, 1000, size=2)), predicted=False)
        got = set(vicinity_fires(tracks, team))
        expected = {
            fid
            for fid, tr in tracks.items()
            if np.linalg.norm(tr.mean[:2] - team.position) <= 200.0
        }
        assert got == expected


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


def solo_plan(tracks, uav, case):
    """Can this one UAV keep every track fresh? No pool, so no recruiting."""
    plan, _ = plan_safety_tour(
        tracks, [uav], [], case=case, confidence_level=0.05, dt=1.0, params=DEFAULT_ELLIPSE
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
        assert plan.recruited == 1
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
                worst_speed=worst_case_speed(tracks.values(), 0.05, DEFAULT_ELLIPSE),
                fov_width=fov_width(uav.fleet()),
            )
            bound = traverse_bound(2, inputs, uav.fleet())
            if not bound.feasible:
                continue
            steps = max(1, math.ceil(bound.seconds / 1.0))
            oracle_pass = True
            for track in tracks.values():
                F = track.transition_matrix
                H = observation_jacobian(track.prior_mean)
                M = H.copy()
                for _ in range(steps - 1):
                    M = M @ F
                num = np.trace(M @ track.prior_covariance @ M.T + track.observation_noise)
                den = np.trace(
                    innovation_covariance(track.prior_covariance, H, track.observation_noise)
                )
                if num / den > 1.0 + 1e-12:
                    oracle_pass = False
            assert plan.feasible == oracle_pass


def plan_from_pool(tracks, pool, case):
    """Plan from an idle pool with nobody assigned yet, then fly the plan."""
    plan, assigned = plan_safety_tour(
        tracks, [], pool, case=case, confidence_level=0.05, dt=1.0, params=DEFAULT_ELLIPSE
    )
    apply_safety_plan(plan, {a.id: a for a in assigned})
    return plan


class TestRecruitment:
    def test_single_stationary_fire_single_uav(self):
        tracks = {1: make_track((30.0, 30.0))}
        pool = [make_agent(0, xy=(25.0, 25.0))]
        plan = plan_from_pool(tracks, pool, case=1)
        assert plan.feasible
        assert plan.recruited == 1
        assert pool[0].mode == "safety"
        assert plan.uncertainty_ratios[1] <= 1.0 + 1e-12

    def test_empty_pool_raises(self):
        tracks = {1: make_track((30.0, 30.0))}
        with pytest.raises(NoUavAvailable):
            plan_from_pool(tracks, [], case=1)

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
        assert plan.recruited == 2
        assert all(v <= 1.0 + 1e-12 for v in plan.uncertainty_ratios.values())

    def test_pool_exhaustion_marks_infeasible(self):
        tracks = {
            fid: make_track((400.0 * fid, 0.0), target_speed=1.0, weather_var=(0.01, 0.02, 0.005))
            for fid in range(1, 8)
        }
        pool = [make_agent(0), make_agent(1)]
        plan = plan_from_pool(tracks, pool, case=2)
        if not plan.feasible:
            assert plan.recruited == 2  # everyone assigned before giving up
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
            tracks, [], pool, case=2, confidence_level=0.05, dt=1.0, params=DEFAULT_ELLIPSE,
        )
        again, assigned2 = plan_safety_tour(
            tracks, assigned, pool, case=2, confidence_level=0.05, dt=1.0, params=DEFAULT_ELLIPSE,
        )
        assert [a.id for a in assigned2[: len(assigned)]] == [a.id for a in assigned]
        assert again.recruited >= plan.recruited


class TestCoverageStep:
    def test_agent_over_fire_observes_it(self):
        tracks = {7: make_track((50.0, 50.0))}
        agent = make_agent(0, xy=(50.0, 50.0), mode="coverage")
        coverage_step(
            [agent], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, rng=np.random.default_rng(0), step=0,
        )
        assert fov_covers(agent.pose, agent.half_angle, (50, 50))

    def test_replan_assigns_routes_and_deadlines(self):
        tracks = {i: make_track((100.0 * i, 0.0)) for i in range(1, 5)}
        agents = [make_agent(0, mode="coverage"), make_agent(1, xy=(300.0, 0.0), mode="coverage")]
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, rng=np.random.default_rng(1), step=0,
        )
        assert all(a.route for a in agents)
        assert all(a.replan_deadline > 0 for a in agents)

    def test_replan_resumes_at_nearest_waypoint(self):
        tracks = {i: make_track((100.0 * i, 0.0)) for i in range(1, 5)}
        agent = make_agent(0, xy=(290.0, 0.0), speed=1.0, mode="coverage")
        coverage_step(
            [agent], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, rng=np.random.default_rng(5), step=0,
        )
        assert agent.route[agent.route_index] == pytest.approx([300.0, 0.0])
        assert agent.pose[:2] == pytest.approx([291.0, 0.0])

    def test_removing_agent_forces_repartition(self):
        tracks = {i: make_track((80.0 * i, 0.0)) for i in range(1, 7)}
        agents = [make_agent(i, xy=(40.0 * i, 10.0), mode="coverage") for i in range(3)]
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, rng=np.random.default_rng(2), step=0,
        )
        before = {a.id: list(map(tuple, a.route)) for a in agents}
        # dismiss agent 1 to safety duty; survivors must replan immediately
        agents[1].mode = "safety"
        coverage_step(
            agents, tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, rng=np.random.default_rng(3), step=1, force_replan=True,
        )
        survivors = [a for a in agents if a.mode == "coverage"]
        union = sorted({f for a in survivors for f in _route_fires(a, tracks)})
        assert union == sorted(tracks)  # survivors re-cover everything

    def test_idle_agents_do_not_move(self):
        tracks = {1: make_track((10.0, 10.0))}
        idle = make_agent(5, xy=(0.0, 0.0), mode="idle")
        coverage_step(
            [idle], tracks, case=1, confidence_level=0.05, dt=1.0,
            params=DEFAULT_ELLIPSE, rng=np.random.default_rng(4), step=0,
        )
        assert idle.pose[:2] == pytest.approx([0.0, 0.0])


def _route_fires(agent, tracks):
    hits = set()
    for wp in agent.route:
        for fid, tr in tracks.items():
            if np.linalg.norm(tr.mean[:2] - wp) < 30.0:
                hits.add(fid)
    return hits
