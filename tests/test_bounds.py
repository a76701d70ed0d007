import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from emberwatch import harness
from emberwatch.bounds import (
    BoundInputs,
    _upper_quantile,
    FleetParams,
    bound_moving,
    bound_spreading,
    bound_stationary,
    fov_width,
    joint_confidence,
    traverse_bound,
    uncertainty_ratio,
    worst_case_speed,
)
from emberwatch.config import load_config
from emberwatch.errors import DomainError
from emberwatch.fire import DEFAULT_ELLIPSE, calibrate_spread_rate
from emberwatch.tracking import (
    UAV_X,
    UAV_Z,
    TrackEstimate,
    _observation,
    predict,
    residual_terms,
    residual_trace,
    speed_terms,
)
from oracles import reference_innovation_cov, reference_residual_cov

CONFIG_DIR = Path(__file__).parent.parent / "configs"

FLEET = FleetParams(speed=10.0, altitude=50.0, half_angle=0.3)


def make_inputs(mst=100.0, count=3, speed=0.5, g=20.0):
    return BoundInputs(mst_length=mst, fire_count=count, worst_speed=speed, fov_width=g)


def spreading_coefficients(inputs, fleet):
    """(gamma, beta, delta) of the spreading case's quadratic, as `bound_spreading` defines them."""
    a = 2 * inputs.fire_count * inputs.worst_speed / fleet.speed
    b = 2 * inputs.worst_speed / inputs.fov_width
    return a * b, 1.0 - a, bound_moving(inputs, fleet).seconds


def track_with_velocity(
    azimuth, target_speed, weather_var=(0.0, 0.0, 0.0), pos=(0.0, 0.0)
) -> TrackEstimate:
    rate = calibrate_spread_rate(target_speed, 5.0, DEFAULT_ELLIPSE)
    mean = np.array([pos[0], pos[1], 0.0, 0.0, 50.0, rate, 5.0, azimuth])
    P = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, weather_var[0], weather_var[1], weather_var[2]])
    return TrackEstimate(
        mean=mean,
        covariance=P,
        process_noise=np.zeros((8, 8)),
        observation_noise=np.eye(5) * 1e-4,
    )


class TestWorstCaseSpeed:
    def test_stationary_zero_variance(self):
        tracks = [track_with_velocity(0.3, 0.0)] * 3
        assert worst_case_speed(speed_terms(tracks, DEFAULT_ELLIPSE), 0.05) == 0.0

    def test_pythagorean_single_fire(self):
        # velocity (3, 4) via azimuth atan2(3, 4), speed 5
        az = math.atan2(3.0, 4.0)
        track = track_with_velocity(az, 5.0)
        assert worst_case_speed(speed_terms([track], DEFAULT_ELLIPSE), 0.05) == pytest.approx(5.0, rel=1e-9)

    def test_cross_fire_axis_maximization(self):
        east = track_with_velocity(math.pi / 2, 3.0)  # x-speed 3, y 0
        north = track_with_velocity(0.0, 4.0)  # y-speed 4, x 0
        assert worst_case_speed(speed_terms([east, north], DEFAULT_ELLIPSE), 0.05) == pytest.approx(5.0, rel=1e-9)

    def test_uncertainty_widens_bound(self):
        certain = track_with_velocity(0.7, 1.0)
        uncertain = track_with_velocity(0.7, 1.0, weather_var=(0.05, 0.1, 0.02))
        a = worst_case_speed(speed_terms([certain], DEFAULT_ELLIPSE), 0.05)
        b = worst_case_speed(speed_terms([uncertain], DEFAULT_ELLIPSE), 0.05)
        assert b > a

    def test_tighter_confidence_is_larger(self):
        track = track_with_velocity(0.7, 1.0, weather_var=(0.05, 0.1, 0.02))
        loose = worst_case_speed(speed_terms([track], DEFAULT_ELLIPSE), 0.2)
        tight = worst_case_speed(speed_terms([track], DEFAULT_ELLIPSE), 0.01)
        assert tight > loose


class TestUpperQuantile:
    # About 9 ulp; fixed before the comparison was run.
    REL_TOL = 2e-15

    def test_matches_scipy_normal_quantile(self):
        rng = np.random.default_rng(241)
        alphas = [k / 1000 for k in range(1, 1000)] + rng.uniform(1e-6, 1 - 1e-6, size=2000).tolist()
        for alpha in alphas:
            want = float(norm.ppf(1.0 - alpha))
            assert abs(_upper_quantile(alpha) - want) <= self.REL_TOL * abs(want), alpha

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan, 1e-17])
    def test_alpha_without_finite_quantile_is_refused(self, alpha):
        with pytest.raises(DomainError) as info:
            _upper_quantile(alpha)
        assert info.value.name == "confidence_level"


class TestFovWidth:
    def test_unit_tangent(self):
        assert fov_width(FleetParams(10.0, 10.0, math.pi / 4)) == pytest.approx(20.0)

    def test_narrow_camera_vanishes(self):
        assert fov_width(FleetParams(10.0, 10.0, 1e-9)) == pytest.approx(0.0, abs=1e-6)

    def test_hand_value(self):
        assert fov_width(FleetParams(10.0, 50.0, 0.3)) == pytest.approx(2 * 50 * math.tan(0.3))


class TestStationaryBound:
    def test_zero_mst(self):
        out = bound_stationary(make_inputs(mst=0.0), FLEET)
        assert out.seconds == 0.0
        assert out.feasible

    def test_hand_value(self):
        fleet = FleetParams(speed=6.0, altitude=50.0, half_angle=0.3)
        out = bound_stationary(make_inputs(mst=120.0), fleet)
        assert out.seconds == pytest.approx(40.0)

    def test_speed_scaling(self):
        slow = bound_stationary(make_inputs(mst=100.0), FleetParams(5.0, 50.0, 0.3))
        fast = bound_stationary(make_inputs(mst=100.0), FleetParams(10.0, 50.0, 0.3))
        assert slow.seconds == pytest.approx(2 * fast.seconds)


class TestMovingBound:
    def test_reduces_to_stationary_at_zero_speed(self):
        inputs = make_inputs(speed=0.0)
        assert bound_moving(inputs, FLEET).seconds == pytest.approx(
            bound_stationary(inputs, FLEET).seconds
        )

    def test_hand_value(self):
        out = bound_moving(make_inputs(mst=100.0, count=3, speed=0.5), FLEET)
        assert out.seconds == pytest.approx(100.0 / (5.0 - 2.0))

    def test_boundary_infeasible(self):
        out = bound_moving(make_inputs(count=3, speed=1.25), FLEET)
        assert not out.feasible
        assert out.seconds == math.inf


class TestSpreadingBound:
    def test_reduces_to_stationary_at_zero_speed(self):
        inputs = make_inputs(speed=0.0)
        c1 = bound_stationary(inputs, FLEET)
        c3 = bound_spreading(inputs, FLEET)
        assert c3.feasible
        assert c3.seconds == pytest.approx(c1.seconds)

    def test_hand_value_and_fixed_point(self):
        inputs = make_inputs(mst=20.0, count=3, speed=0.5, g=20.0)
        out = bound_spreading(inputs, FLEET)
        assert out.feasible
        assert out.seconds == pytest.approx(13.3333333333, rel=1e-6)
        gamma, beta, delta = spreading_coefficients(inputs, FLEET)
        assert gamma == pytest.approx(0.015)
        assert beta == pytest.approx(0.7)
        assert delta == pytest.approx(20.0 / 3.0)
        assert abs(gamma * out.seconds**2 - beta * out.seconds + delta) < 1e-9 * max(1.0, out.seconds)
        # substituting the root back into T = delta + a T (b T + 1)
        a = 2 * 3 * 0.5 / 10.0
        b = 2 * 0.5 / 20.0
        rhs = delta + a * out.seconds * (b * out.seconds + 1.0)
        assert abs(out.seconds - rhs) < 1e-9 * max(1.0, out.seconds)

    def test_negative_discriminant_infeasible(self):
        out = bound_spreading(make_inputs(mst=100.0, count=3, speed=0.5, g=20.0), FLEET)
        assert not out.feasible

    def test_growth_outruns_fleet(self):
        # a = 2 n speed / v >= 1
        out = bound_spreading(make_inputs(count=10, speed=0.5), FLEET)
        assert not out.feasible

    def test_fixed_point_on_random_feasible_inputs(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 300:
            inputs = make_inputs(
                mst=float(rng.uniform(0, 300)),
                count=int(rng.integers(1, 8)),
                speed=float(rng.uniform(0, 1.2)),
                g=float(rng.uniform(5, 80)),
            )
            out = bound_spreading(inputs, FLEET)
            if not out.feasible:
                continue
            checked += 1
            a = 2 * inputs.fire_count * inputs.worst_speed / FLEET.speed
            b = 2 * inputs.worst_speed / inputs.fov_width
            rhs = bound_moving(inputs, FLEET).seconds + a * out.seconds * (b * out.seconds + 1.0)
            assert abs(out.seconds - rhs) < 1e-9 * max(1.0, out.seconds)


class TestBoundOrdering:
    def test_case_monotonicity_on_random_feasible_inputs(self):
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 1000:
            inputs = make_inputs(
                mst=float(rng.uniform(0, 400)),
                count=int(rng.integers(1, 10)),
                speed=float(rng.uniform(0, 1.5)),
                g=float(rng.uniform(5, 100)),
            )
            c3 = bound_spreading(inputs, FLEET)
            if not c3.feasible:
                continue
            checked += 1
            c1 = bound_stationary(inputs, FLEET)
            c2 = bound_moving(inputs, FLEET)
            assert c1.seconds <= c2.seconds + 1e-9
            assert c2.seconds <= c3.seconds + 1e-9

    def test_continuity_as_speed_vanishes(self):
        inputs = make_inputs(mst=150.0, count=5, speed=1e-8, g=40.0)
        c1 = bound_stationary(inputs, FLEET)
        c2 = bound_moving(inputs, FLEET)
        c3 = bound_spreading(inputs, FLEET)
        assert abs(c2.seconds - c1.seconds) / c1.seconds < 1e-6
        assert abs(c3.seconds - c1.seconds) / c1.seconds < 1e-6

    def test_monotone_in_speed_mst_and_count(self):
        base = make_inputs(mst=100.0, count=3, speed=0.4, g=40.0)
        for case_fn in (bound_stationary, bound_moving, bound_spreading):
            t0 = case_fn(base, FLEET).seconds
            slower_fleet = case_fn(base, FleetParams(8.0, 50.0, 0.3)).seconds
            assert slower_fleet >= t0 - 1e-12
            longer = case_fn(make_inputs(mst=140.0, count=3, speed=0.4, g=40.0), FLEET).seconds
            assert longer >= t0 - 1e-12
            more = case_fn(make_inputs(mst=100.0, count=5, speed=0.4, g=40.0), FLEET).seconds
            assert more >= t0 - 1e-12

    def test_dispatch(self):
        inputs = make_inputs()
        bounds = [traverse_bound(case, inputs, FLEET) for case in (1, 2, 3)]
        assert bounds == [bound_stationary(inputs, FLEET), bound_moving(inputs, FLEET), bound_spreading(inputs, FLEET)]
        assert len({b.seconds for b in bounds}) == 3  # the three cases differ on these inputs
        with pytest.raises(DomainError):
            traverse_bound(4, inputs, FLEET)


class TestJointConfidence:
    def test_no_fires(self):
        assert joint_confidence(0, 0.05) == (1.0, 0.0)

    def test_single_fire(self):
        joint, complement = joint_confidence(1, 0.05)
        assert joint == pytest.approx(0.95)
        assert complement == pytest.approx(0.05)

    def test_ten_fires_hand_value(self):
        _, complement = joint_confidence(10, 0.05)
        assert complement == pytest.approx(0.4012630607616213, abs=1e-12)


class TestUncertaintyRatio:
    def _predicted_track(self):
        mean = np.array([30.0, -10.0, 0.0, 0.0, 50.0, 1.0, 5.0, 0.8])
        track = TrackEstimate(
            mean=mean,
            covariance=np.diag([4.0, 4.0, 1.0, 1.0, 1.0, 0.01, 0.02, 0.005]),
            process_noise=np.diag([0.01] * 2 + [1.0] * 3 + [1e-4] * 3),
            observation_noise=np.diag([1e-4, 1e-4, 0.0025, 0.01, 4e-4]),
        )
        return predict(track, 1.0, DEFAULT_ELLIPSE)

    def test_one_step_horizon_is_unity(self):
        (residual,) = residual_terms([self._predicted_track()])
        assert uncertainty_ratio(residual, 0.5, 1.0) == pytest.approx(1.0)
        assert uncertainty_ratio(residual, 0.0, 1.0) == pytest.approx(1.0)

    def test_grows_with_horizon(self):
        (residual,) = residual_terms([self._predicted_track()])
        r10 = uncertainty_ratio(residual, 10.0, 1.0)
        r100 = uncertainty_ratio(residual, 100.0, 1.0)
        assert r100 > r10

    def test_infeasible_horizon_is_infinite(self):
        (residual,) = residual_terms([self._predicted_track()])
        assert uncertainty_ratio(residual, math.inf, 1.0) == math.inf

    def test_overlong_horizon_is_infinite_without_a_warning(self):
        (residual,) = residual_terms([self._predicted_track()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert uncertainty_ratio(residual, 1e300, 1.0) == math.inf

    def test_broken_current_residual_never_passes(self):
        # a current trace that is NaN, zero or negative gives +inf at every horizon
        track = self._predicted_track()
        for P, R in (
            (np.full((8, 8), np.nan), track.observation_noise),
            (np.zeros((8, 8)), np.zeros((5, 5))),
            (-np.eye(8), np.zeros((5, 5))),
        ):
            (broken,) = residual_terms([replace(track, prior_covariance=P, observation_noise=R)])
            for horizon in (0.5, 1.0, 2.0, 40.0):
                assert uncertainty_ratio(broken, horizon, 1.0) == math.inf

    def test_scale_consistency(self):
        track = self._predicted_track()
        import dataclasses

        scaled = dataclasses.replace(
            track,
            covariance=track.covariance * 7.0,
            prior_covariance=track.prior_covariance * 7.0,
            observation_noise=track.observation_noise * 7.0,
        )
        a = uncertainty_ratio(residual_terms([track])[0], 40.0, 1.0)
        b = uncertainty_ratio(residual_terms([scaled])[0], 40.0, 1.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_scalar_ratio_with_growing_dynamics(self):
        # F=2, P=1, R=1: a two-step horizon forecasts F^1 P F^1 + R = 5,
        # so the ratio against the current residual (P + R = 2) is 2.5
        F = np.array([[2.0]])
        H = np.array([[1.0]])
        P = np.array([[1.0]])
        R = np.array([[1.0]])
        num = reference_residual_cov(F, H, P, R, 2)[0, 0]
        den = (H @ P @ H.T + R)[0, 0]
        assert num / den == pytest.approx(2.5)
        assert num / den > 1.0  # a growing track fails the safety check


class TestCertificateScope:
    """What a passing ratio certifies, on the tracks of a closed-loop run."""

    @pytest.fixture(scope="class")
    def run_tracks(self):
        cfg = load_config(CONFIG_DIR / "case3.yaml")
        seen = []

        def keep(fn):
            def wrapped(*args, **kwargs):
                track = fn(*args, **kwargs)
                seen.append(track)
                return track

            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "predict", keep(harness.predict))
            mp.setattr(harness, "step_track", keep(harness.step_track))
            harness.run_scenario(replace(cfg, duration=15))
        return cfg.dt, seen

    def test_one_step_horizon_is_exactly_one(self, run_tracks):
        dt, tracks = run_tracks
        assert len(tracks) > 100
        for residual in residual_terms(tracks):
            assert uncertainty_ratio(residual, dt, dt) == 1.0
            assert uncertainty_ratio(residual, 0.5 * dt, dt) == 1.0

    def test_forecast_ignores_uav_pose_block(self, run_tracks):
        _, tracks = run_tracks
        pose = slice(UAV_X, UAV_Z + 1)
        for track in tracks:
            H = _observation(track.prior_mean)[1]
            P = track.prior_covariance
            assert np.any(P[pose, pose] != 0)
            no_pose = P.copy()
            no_pose[pose, :] = 0.0
            no_pose[:, pose] = 0.0
            for steps in (2, 5, 20):
                with_pose = reference_residual_cov(
                    track.transition_matrix, H, P, track.observation_noise, steps
                )
                without = reference_residual_cov(
                    track.transition_matrix, H, no_pose, track.observation_noise, steps
                )
                assert np.array_equal(with_pose, without)

    def test_closed_form_ignores_uav_pose_block(self, run_tracks):
        _, tracks = run_tracks
        pose = slice(UAV_X, UAV_Z + 1)
        for track in tracks:
            no_pose = track.prior_covariance.copy()
            no_pose[pose, :] = 0.0
            no_pose[:, pose] = 0.0
            cut, whole = residual_terms([replace(track, prior_covariance=no_pose), track])
            assert residual_trace(cut, 1) != residual_trace(whole, 1)  # the current residual keeps it
            for steps in (2, 5, 20):
                assert residual_trace(cut, steps) == residual_trace(whole, steps)

    def test_closed_form_matches_matrix_power(self, run_tracks):
        dt, tracks = run_tracks
        for track, residual in zip(tracks, residual_terms(tracks)):
            H = _observation(track.prior_mean)[1]
            F, P, R = track.transition_matrix, track.prior_covariance, track.observation_noise
            current = np.trace(reference_innovation_cov(P, H, R))
            for steps in (1, 2, 3, 5, 20, 1000):
                no_noise = np.trace(reference_residual_cov(F, H, P, np.zeros_like(R), steps))
                assert residual_trace(residual, steps) == pytest.approx(no_noise, rel=1e-12, abs=0.0)
                expected = np.trace(reference_residual_cov(F, H, P, R, steps)) / current
                ratio = uncertainty_ratio(residual, (steps - 0.5) * dt, dt)
                assert ratio == pytest.approx(expected, rel=1e-12, abs=0.0)


def sweep_cell(case, teams, **filter_overrides):
    """The (case, teams) sweep-safety cell of configs/sweep.yaml at seed 0."""
    cfg = load_config(CONFIG_DIR / "sweep.yaml")
    cell = dict(harness.experiment_cells(cfg, "sweep-safety", [teams], 1))[(case, teams, 0)]
    return replace(cell, filter=replace(cell.filter, **filter_overrides))


class TestWhatTheRatioDecides:
    """Today's certificate, pinned before it is made to compare like with like:
    the ratio is 1 at one step, can drop below 1 at two steps from the UAV-pose
    block alone, never sees more than one step in case 3, and makes min drones
    follow the pose noise knob."""

    def test_one_step_is_one_and_two_steps_drop_from_the_pose_block_alone(self):
        mean = np.array([30.0, -10.0, 0.0, 0.0, 50.0, 1.0, 5.0, 0.8])
        track = predict(
            TrackEstimate(
                mean=mean,
                covariance=np.diag([4.0, 4.0, 100.0, 100.0, 100.0, 0.01, 0.02, 0.005]),
                process_noise=np.diag([0.01] * 2 + [1.0] * 3 + [1e-4] * 3),
                observation_noise=np.diag([1e-4, 1e-4, 0.0025, 0.01, 4e-4]),
            ),
            1.0,
            DEFAULT_ELLIPSE,
        )
        pose = slice(UAV_X, UAV_Z + 1)
        no_pose = track.prior_covariance.copy()
        no_pose[pose, :] = 0.0
        no_pose[:, pose] = 0.0
        whole, cut = residual_terms([track, replace(track, prior_covariance=no_pose)])
        for horizon in (0.0, 0.5, 1.0):
            assert uncertainty_ratio(whole, horizon, 1.0) == 1.0
            assert uncertainty_ratio(cut, horizon, 1.0) == 1.0
        # Two steps: the same forecast over a current residual with and without the pose block.
        assert residual_trace(whole, 2) == residual_trace(cut, 2)
        assert uncertainty_ratio(whole, 2.0, 1.0) < 1.0 < uncertainty_ratio(cut, 2.0, 1.0)

    def test_case3_sweep_horizons_are_one_step(self, monkeypatch):
        from emberwatch import coordination

        cell = sweep_cell(3, 2)
        horizons = []

        def recorded(residual, horizon_seconds, dt):
            horizons.append(horizon_seconds)
            return uncertainty_ratio(residual, horizon_seconds, dt)

        monkeypatch.setattr(coordination, "uncertainty_ratio", recorded)
        harness.min_drones_for_run(cell)
        finite = [h for h in horizons if math.isfinite(h)]
        assert len(finite) > 1000  # 1132 of 1169 calls when pinned
        assert max(finite) <= cell.dt

    def test_case1_min_drones_follow_the_pose_noise(self):
        default = harness.min_drones_for_run(sweep_cell(1, 4, process_pose_std=2.0))
        quiet = harness.min_drones_for_run(sweep_cell(1, 4, process_pose_std=0.1))
        assert default[0] < quiet[0]  # 4 and 6 drones when pinned
