import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from emberwatch import harness, tracking
from emberwatch.bounds import uncertainty_ratio
from emberwatch.config import load_config
from emberwatch.errors import DomainError, SingularResidual
from emberwatch.fire import (
    DEFAULT_ELLIPSE,
    FireFront,
    WindFuelState,
    calibrate_spread_rate,
    front_velocity,
    spread_coefficient,
    spread_velocity,
)
from emberwatch.tracking import (
    FIRE_X,
    FIRE_Y,
    SPREAD_RATE,
    UAV_X,
    UAV_Y,
    UAV_Z,
    FilterConfig,
    TrackEstimate,
    floor_psd,
    _cholesky,
    _eigvalsh,
    _observation,
    _solve,
    kalman_gain,
    observe,
    predict,
    propagate_covariance,
    residual_terms,
    residual_trace,
    step_track,
    symmetrize,
    transition,
    update,
)
from oracles import (
    finite_difference_jacobian,
    jacobian_mismatch,
    reference_innovation_cov,
    reference_residual_cov,
)


def random_state(rng) -> np.ndarray:
    return np.array(
        [
            rng.uniform(-500, 500),  # fire_x
            rng.uniform(-500, 500),  # fire_y
            rng.uniform(-500, 500),  # uav_x
            rng.uniform(-500, 500),  # uav_y
            rng.uniform(10, 200),  # uav_z
            rng.uniform(0.1, 3.0),  # spread_rate
            rng.uniform(0.5, 12.0),  # wind_speed
            rng.uniform(0, 2 * math.pi),  # wind_azimuth
        ]
    )


def pose_of(state: np.ndarray) -> np.ndarray:
    return state[UAV_X:UAV_Z + 1].copy()


def make_track(rng=None, pos_var=4.0, pose_var=1.0, weather_var=0.01) -> TrackEstimate:
    rng = rng or np.random.default_rng(0)
    mean = random_state(rng)
    p0 = np.diag([pos_var, pos_var, pose_var, pose_var, pose_var, weather_var, weather_var, weather_var])
    q0 = np.diag([0.01, 0.01, 0.5, 0.5, 0.5, 1e-4, 1e-4, 1e-4])
    r0 = np.diag([1e-4, 1e-4, 0.0025, 0.01, 4e-4])
    return TrackEstimate(mean=mean, covariance=p0, process_noise=q0, observation_noise=r0)


class TestStateTransition:
    def test_flat_spread_leaves_position(self):
        flat = replace(DEFAULT_ELLIPSE, a=1.0, b=0.0, c=0.0, d=0.0, l=0.0)  # LB == 1
        s = np.array([1, 2, 3, 4, 50, 2.0, 5.0, 0.7], dtype=float)
        out = transition(s, 1.0, flat, None)[0]
        assert (out[FIRE_X], out[FIRE_Y]) == (1, 2)

    def test_unit_speed_north(self):
        rate = calibrate_spread_rate(1.0, 5.0, DEFAULT_ELLIPSE)
        s = np.array([0, 0, 3, 4, 50, rate, 5.0, 0.0], dtype=float)
        out = transition(s, 1.0, DEFAULT_ELLIPSE, None)[0]
        assert out[FIRE_X] == pytest.approx(0.0, abs=1e-15)
        assert out[FIRE_Y] == pytest.approx(1.0)
        # everything else untouched
        assert tuple(pose_of(out)) == (3, 4, 50)
        assert tuple(out[SPREAD_RATE:]) == (rate, 5.0, 0.0)

    def test_matches_fire_propagation(self):
        # cross-module check against the ground-truth propagator
        wf = WindFuelState(spread_rate=2.0, wind_speed=5.0, wind_azimuth=math.pi / 3)
        front = FireFront(id=1, position=np.array([7.0, -2.0]))
        import emberwatch.fire as fire

        moved = fire.simulate_step(fire.FireMap((front,), wf, case=2, noise_std=0.0), 0.5).fronts[0]
        s = np.array([7.0, -2.0, 0, 0, 40, 2.0, 5.0, math.pi / 3], dtype=float)
        out = transition(s, 0.5, DEFAULT_ELLIPSE, None)[0]
        assert out[FIRE_X] == pytest.approx(moved.position[0])
        assert out[FIRE_Y] == pytest.approx(moved.position[1])

    def test_uav_pose_control(self):
        s = np.array([0, 0, 3, 4, 50, 0.0, 5.0, 0.0], dtype=float)
        out = transition(s, 1.0, DEFAULT_ELLIPSE, uav_pose=(9.0, 8.0, 70.0))[0]
        assert tuple(pose_of(out)) == (9.0, 8.0, 70.0)


class TestTransitionJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        dt = 1.0
        worst = 0.0
        for _ in range(100):
            s = random_state(rng)
            pose = pose_of(s)

            def f(vec):
                return transition(vec, dt, DEFAULT_ELLIPSE, uav_pose=pose)[0]

            analytic = transition(s, dt, DEFAULT_ELLIPSE, None)[1]
            numeric = finite_difference_jacobian(f, s, h=1e-6)
            worst = max(worst, jacobian_mismatch(analytic, numeric))
        assert worst < 1e-4

    def test_azimuth_sensitivity_at_zero(self):
        rate = calibrate_spread_rate(1.3, 5.0, DEFAULT_ELLIPSE)
        s = np.array([0, 0, 0, 0, 40, rate, 5.0, 0.0], dtype=float)
        dt = 0.5
        F = transition(s, dt, DEFAULT_ELLIPSE, None)[1]
        c = spread_coefficient(rate, 5.0, DEFAULT_ELLIPSE)
        assert F[0, 7] == pytest.approx(c * dt)  # d fire_x / d azimuth = C cos(0) dt
        assert F[1, 7] == pytest.approx(0.0, abs=1e-12)

    def test_zero_dt_identity_on_fire_weather_block(self):
        rng = np.random.default_rng(5)
        s = random_state(rng)
        F = transition(s, 0.0, DEFAULT_ELLIPSE, None)[1]
        keep = [0, 1, 5, 6, 7]
        assert np.allclose(F[np.ix_(keep, keep)], np.eye(5))
        assert np.allclose(F[2:5, :], 0.0)  # pose rows are control input


class TestObservation:
    def test_nadir_angles_zero(self):
        s = np.array([10, 20, 10, 20, 40, 1, 5, 0.3], dtype=float)
        z = observe(s)
        assert z[0] == 0.0
        assert z[1] == 0.0
        assert tuple(z[2:]) == (1, 5, 0.3)

    def test_forty_five_degrees(self):
        s = np.array([50, 0, 0, 0, 50, 1, 5, 0.3], dtype=float)
        assert observe(s)[0] == pytest.approx(math.pi / 4)

    def test_round_trip_inversion(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = random_state(rng)
            z = observe(s)
            qx = s[UAV_X] + s[UAV_Z] * math.tan(z[0])
            qy = s[UAV_Y] + s[UAV_Z] * math.tan(z[1])
            assert qx == pytest.approx(s[FIRE_X], abs=1e-9)
            assert qy == pytest.approx(s[FIRE_Y], abs=1e-9)

    def test_grounded_uav_rejected(self):
        s = np.array([0, 0, 0, 0, 0.0, 1, 5, 0.3], dtype=float)
        with pytest.raises(DomainError):
            observe(s)
        with pytest.raises(DomainError):
            _observation(s)[1]

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(100):
            s = random_state(rng)

            analytic = _observation(s)[1]
            numeric = finite_difference_jacobian(observe, s, h=1e-6)
            worst = max(worst, jacobian_mismatch(analytic, numeric))
        assert worst < 1e-4

    def test_nadir_position_sensitivity(self):
        s = np.array([10, 20, 10, 20, 40, 1, 5, 0.3], dtype=float)
        H = _observation(s)[1]
        assert H[0, 0] == pytest.approx(1 / 40)

    def test_antisymmetry_of_fire_and_uav_columns(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            s = random_state(rng)
            H = _observation(s)[1]
            assert H[0, 0] + H[0, 2] == pytest.approx(0.0, abs=1e-15)
            assert H[1, 1] + H[1, 3] == pytest.approx(0.0, abs=1e-15)


class TestPredictUpdate:
    def test_zero_dt_zero_q_keeps_covariance(self):
        track = make_track()
        # pose block empty so the zero pose rows of F do not drop anything
        P = track.covariance.copy()
        P[2:5, :] = 0.0
        P[:, 2:5] = 0.0
        track = replace(track, covariance=P, process_noise=np.zeros((8, 8)))
        out = predict(track, 0.0, DEFAULT_ELLIPSE)
        assert np.allclose(out.covariance, P, atol=1e-12)

    def test_scalar_covariance_propagation(self):
        P = np.array([[1.0]])
        F = np.array([[2.0]])
        Q = np.array([[1.0]])
        assert propagate_covariance(P, F, Q)[0, 0] == pytest.approx(5.0)

    def test_orthogonal_transition_grows_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            A = rng.normal(size=(8, 8))
            Fq, _ = np.linalg.qr(A)
            M = rng.normal(size=(8, 8))
            P = M @ M.T
            Q = np.diag(rng.uniform(0, 1, size=8))
            out = propagate_covariance(P, Fq, Q)
            assert np.trace(out) >= np.trace(P) - 1e-9

    def test_scalar_update_textbook(self):
        P = np.array([[1.0]])
        H = np.array([[1.0]])
        R = np.array([[1.0]])
        S = reference_innovation_cov(P, H, R)
        K = kalman_gain(H @ P, S)
        assert K[0, 0] == pytest.approx(0.5)
        post = (np.eye(1) - K @ H) @ P
        assert post[0, 0] == pytest.approx(0.5)

    def test_exact_observation_keeps_mean(self):
        track = predict(make_track(), 1.0, DEFAULT_ELLIPSE)
        z = observe(track.mean)
        out = update(track, z, FilterConfig(alpha_forget=0.0))
        # with alpha 0 the adapted R is y y^T + H P H^T, so R == H P H^T means y == 0
        H = _observation(track.mean)[1]
        assert np.allclose(out.observation_noise, H @ track.covariance @ H.T, rtol=0.0, atol=1e-12)
        assert np.allclose(out.mean, track.mean, atol=1e-9)

    def test_posterior_never_exceeds_prior(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            track = predict(make_track(rng), 1.0, DEFAULT_ELLIPSE)
            z = observe(track.mean) + rng.normal(0, 0.05, size=5)
            out = update(track, z, FilterConfig(alpha_forget=0.97))
            gap = np.linalg.eigvalsh(out.prior_covariance - out.covariance)
            assert gap.min() >= -1e-9

    def test_update_requires_predict(self):
        track = make_track()
        with pytest.raises(ValueError):
            update(track, observe(track.mean), FilterConfig(alpha_forget=0.97))

    def test_singular_residual_detected(self):
        track = predict(make_track(), 1.0, DEFAULT_ELLIPSE)
        bad = replace(
            track,
            covariance=np.zeros((8, 8)),
            prior_covariance=np.zeros((8, 8)),
            observation_noise=np.zeros((5, 5)),
        )
        with pytest.raises(SingularResidual):
            update(bad, observe(bad.mean), FilterConfig(alpha_forget=0.97))

    def test_covariances_stay_symmetric_psd(self):
        rng = np.random.default_rng(41)
        track = make_track(rng)
        cfg = FilterConfig(alpha_forget=0.9)
        wf = WindFuelState(2.0, 5.0, 1.0)
        for _ in range(30):
            pose = pose_of(track.mean)
            z = observe(track.mean) + rng.normal(0, 0.02, size=5)
            track = step_track(track, z, 1.0, cfg, DEFAULT_ELLIPSE, uav_pose=pose)
            for mat in (track.covariance, track.process_noise, track.observation_noise):
                assert np.allclose(mat, mat.T, atol=1e-12)
                assert np.linalg.eigvalsh(mat).min() >= -1e-9


def _array_fields(track: TrackEstimate) -> dict[str, np.ndarray]:
    out = {}
    for f in fields(track):
        value = getattr(track, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value.copy()
    return out


class TestPurity:
    """predict, update and step_track return new tracks; their inputs stay as they were."""

    def test_inputs_left_unchanged(self):
        rng = np.random.default_rng(59)
        cfg = FilterConfig(alpha_forget=0.9)
        track = make_track(rng)
        dt = 1.0
        predicted = predict(track, dt, DEFAULT_ELLIPSE)
        z = observe(predicted.mean) + rng.normal(0, 0.05, size=5)
        pose = pose_of(predicted.mean) + 1.0
        operations = [
            (track, lambda t: predict(t, dt, DEFAULT_ELLIPSE, uav_pose=pose)),
            (predicted, lambda t: predict(t, dt, DEFAULT_ELLIPSE, uav_pose=pose)),  # reuses the transition
            (predicted, lambda t: update(t, z, cfg)),
            (predicted, lambda t: step_track(t, z, 1.0, cfg, DEFAULT_ELLIPSE, uav_pose=pose)),
        ]
        for before, operation in operations:
            arrays, z_copy, pose_copy = _array_fields(before), z.copy(), pose.copy()
            after = operation(before)
            assert after is not before
            for name, value in _array_fields(before).items():
                assert np.array_equal(value, arrays[name]), name
            assert np.array_equal(z, z_copy)
            assert np.array_equal(pose, pose_copy)


class TestMultiStep:
    def test_one_step_equals_current_residual(self):
        track = predict(make_track(), 1.0, DEFAULT_ELLIPSE)
        H = _observation(track.prior_mean)[1]
        P, R = track.prior_covariance, track.observation_noise
        expected = reference_innovation_cov(P, H, R)
        S = reference_residual_cov(track.transition_matrix, H, P, R, 1)
        assert np.allclose(S, expected, atol=1e-12)
        (residual,) = residual_terms([track])
        assert residual_trace(residual, 1) + np.trace(R) == pytest.approx(np.trace(expected), rel=1e-12)
        assert uncertainty_ratio(residual, 1.0, 1.0) == pytest.approx(1.0)

    def test_scalar_identity_dynamics(self):
        F = np.array([[1.0]])
        H = np.array([[1.0]])
        P = np.array([[3.0]])
        R = np.array([[2.0]])
        for r in (1, 2, 5, 17):
            assert reference_residual_cov(F, H, P, R, r)[0, 0] == pytest.approx(5.0)

    def test_scalar_growing_dynamics(self):
        F = np.array([[2.0]])
        H = np.array([[1.0]])
        P = np.array([[1.0]])
        R = np.array([[1.0]])
        # r=3 applies F twice: 2^2 * 1 * 2^2 + 1 = 17
        assert reference_residual_cov(F, H, P, R, 3)[0, 0] == pytest.approx(17.0)

    def test_requires_predict_and_positive_steps(self):
        with pytest.raises(ValueError):
            uncertainty_ratio(residual_terms([make_track()])[0], 1.0, 1.0)
        one = np.array([[1.0]])
        for steps in (0, -1, 1.5):
            with pytest.raises(ValueError):
                reference_residual_cov(one, one, one, one, steps)


class TestAdaptNoise:
    def _pieces(self, rng):
        track = predict(make_track(rng), 1.0, DEFAULT_ELLIPSE)
        z = observe(track.mean) + rng.normal(0, 0.05, size=5)
        return track, z

    def test_alpha_one_is_frozen(self):
        track, z = self._pieces(np.random.default_rng(43))
        out = update(track, z, FilterConfig(alpha_forget=1.0))
        assert np.array_equal(out.process_noise, track.process_noise)
        assert np.array_equal(out.observation_noise, track.observation_noise)

    def test_alpha_zero_is_pure_residual(self):
        track, z = self._pieces(np.random.default_rng(47))
        out = update(track, z, FilterConfig(alpha_forget=0.0))
        P, H = track.covariance, _observation(track.mean)[1]
        gain = kalman_gain(H @ P, reference_innovation_cov(P, H, track.observation_noise))
        residual = z - observe(out.mean)
        kd = gain @ residual
        assert np.allclose(out.process_noise, np.outer(kd, kd), atol=1e-12)

    def test_observation_noise_converges_on_static_scene(self):
        # stationary fire, fixed UAV, noisy measurements with known covariance
        rng = np.random.default_rng(53)
        true_std = np.array([0.01, 0.01, 0.05, 0.1, 0.02])
        mean = np.array([5.0, -3.0, 0.0, 0.0, 60.0, 0.0, 5.0, 1.0])
        track = TrackEstimate(
            mean=mean,
            covariance=np.diag([4.0, 4.0, 1.0, 1.0, 1.0, 0.01, 0.04, 0.0025]),
            process_noise=np.diag([1e-6] * 5 + [1e-8] * 3),
            observation_noise=np.diag((true_std * 2.0) ** 2),  # start 4x off
        )
        cfg = FilterConfig(alpha_forget=0.97)
        truth = np.array([5.0, -3.0, 0.0, 0.0, 60.0, 0.0, 5.0, 1.0])
        for _ in range(500):
            z = observe(truth) + rng.normal(size=5) * true_std
            track = step_track(track, z, 1.0, cfg, DEFAULT_ELLIPSE, uav_pose=pose_of(truth))
        estimated = np.trace(track.observation_noise)
        expected = float(np.sum(true_std**2))
        assert abs(estimated - expected) / expected < 0.25


class TestZeroNoiseConvergence:
    def test_stationary_fire_position_locks_on(self):
        # exact measurements, tiny covariances: position error < 1e-6 m
        truth = np.array([120.0, 80.0, 100.0, 90.0, 50.0, 0.0, 5.0, 0.8])
        start = np.array([117.0, 84.0, 100.0, 90.0, 50.0, 0.05, 4.8, 0.7])
        # tiny covariance floors keep the gain alive; measurements are exact
        track = TrackEstimate(
            mean=start,
            covariance=np.diag([25.0, 25.0, 1e-6, 1e-6, 1e-6, 0.01, 0.04, 0.0025]),
            process_noise=np.diag([1e-8, 1e-8, 1e-12, 1e-12, 1e-12, 1e-10, 1e-10, 1e-10]),
            observation_noise=np.diag([1e-12] * 5),
        )
        cfg = FilterConfig(alpha_forget=1.0)
        for _ in range(50):
            z = observe(truth)
            track = step_track(track, z, 1.0, cfg, DEFAULT_ELLIPSE, uav_pose=pose_of(truth))
        err = np.hypot(track.mean[FIRE_X] - truth[FIRE_X], track.mean[FIRE_Y] - truth[FIRE_Y])
        assert err < 1e-6


def test_filter_runs_are_deterministic():
    def run():
        rng = np.random.default_rng(99)
        track = make_track(np.random.default_rng(7))
        cfg = FilterConfig(alpha_forget=0.97)
        for _ in range(20):
            z = observe(track.mean) + rng.normal(0, 0.01, size=5)
            track = step_track(track, z, 1.0, cfg, DEFAULT_ELLIPSE, uav_pose=pose_of(track.mean))
        return track

    a, b = run(), run()
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.covariance, b.covariance)


def _spd(rng, condition: float, n: int = 5) -> np.ndarray:
    """Seeded symmetric positive definite matrix with the given condition number."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    scale = 10.0 ** rng.uniform(-4, 2)
    vals = scale * np.logspace(0.0, -math.log10(condition), n)
    return symmetrize((q * vals) @ q.T)


def _floor_psd_by_eigh(matrix: np.ndarray) -> np.ndarray:
    """The eigenvalue clip with no fast path."""
    sym = symmetrize(matrix)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() >= 0.0:
        return sym
    return symmetrize((vecs * np.maximum(vals, 0.0)) @ vecs.T)


class TestFastPaths:
    """The cheap tests in the filter step agree with the textbook ones they stand for."""

    # A condition number of exactly 1e12 sits on the limit, where rounding decides.
    EXPONENTS = [e for e in np.arange(0.0, 16.5, 0.5) if e != 12.0]

    def test_kalman_gain_refuses_exactly_what_cond_refuses(self):
        rng = np.random.default_rng(2024)
        H = _observation(random_state(rng))[1]
        P = make_track(rng).covariance
        cases = [_spd(rng, 10.0**e) for e in self.EXPONENTS for _ in range(4)]
        low_rank = rng.normal(size=(5, 3))
        cases += [np.zeros((5, 5)), low_rank @ low_rank.T]
        refused = 0
        for S in cases:
            if np.linalg.cond(S) > 1e12:
                refused += 1
                with pytest.raises(SingularResidual):
                    kalman_gain(H @ P, S)
            else:
                assert np.array_equal(kalman_gain(H @ P, S), np.linalg.solve(S, H @ P).T)
        assert 0 < refused < len(cases)

    def test_floor_psd_returns_positive_definite_input_symmetrized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            M = _spd(rng, 10.0 ** rng.uniform(0, 6), n=8)
            M = M + rng.normal(scale=1e-12 * np.abs(M).max(), size=M.shape)  # slightly asymmetric
            out = floor_psd(M)
            assert np.array_equal(out, symmetrize(M))
            assert np.array_equal(out, _floor_psd_by_eigh(M))

    def test_floor_psd_clips_a_negative_eigenvalue(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        M = (q * np.array([-0.5, 0.0, 1e-3, 0.1, 1.0, 2.0, 5.0, 9.0])) @ q.T
        out = floor_psd(M)
        assert np.array_equal(out, _floor_psd_by_eigh(M))
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        assert not np.allclose(out, symmetrize(M))

    def test_fire_velocity_matches_front_velocity_of_clamped_weather(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            state = random_state(rng)
            state[SPREAD_RATE:] = rng.uniform([-1.0, -3.0, -20.0], [3.0, 12.0, 20.0])
            weather = WindFuelState(max(state[SPREAD_RATE], 0.0), max(state[SPREAD_RATE + 1], 0.0), state[-1])
            velocity, _ = spread_velocity(*state[SPREAD_RATE:], DEFAULT_ELLIPSE)
            assert np.array_equal(velocity, front_velocity(weather, DEFAULT_ELLIPSE))


def _symmetric(rng, eigenvalues) -> np.ndarray:
    """Seeded symmetric matrix with the given eigenvalues."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    return symmetrize((q * np.asarray(eigenvalues, dtype=float)) @ q.T)


def _kernel_inputs(rng, n: int) -> dict[str, np.ndarray]:
    """Named square inputs: positive definite, on and just past the 1e12
    condition limit, indefinite, zero, rank-deficient, and holding NaN or
    +-inf on and off the diagonal."""
    low = rng.normal(size=(n, n - 2))
    inputs = {
        "spd": _spd(rng, 10.0, n),
        "condition 1e12": _spd(rng, 1e12, n),
        "condition just above 1e12": _spd(rng, 1e12 * (1 + 1e-6), n),
        "indefinite": _symmetric(rng, np.linspace(-1.0, 2.0, n)),
        "zero": np.zeros((n, n)),
        "rank-deficient": low @ low.T,
    }
    for value in (np.nan, np.inf, -np.inf):
        off = _spd(rng, 10.0, n)
        off[1, 2] = off[2, 1] = value
        on = _spd(rng, 10.0, n)
        on[0, 0] = value
        inputs[f"{value} off the diagonal"] = off
        inputs[f"{value} on the diagonal"] = on
    return inputs


def _outcome(call, *arrays):
    """(dtype, shape, bytes) of what `call` returns, or (type, message) of the
    LinAlgError it raises. Any other exception, a float warning made an error
    included, propagates."""
    try:
        result = call(*arrays)
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)
    return result.dtype, result.shape, result.tobytes()


class TestLinalgKernels:
    """The filter's direct linalg kernels are numpy.linalg's public calls
    without the wrapper: the same bits on every input, and a refusal with the
    same exception exactly where the public call raises, without a float
    warning either way."""

    @pytest.mark.parametrize("n", [5, 8])
    def test_kernels_equal_the_public_calls(self, n):
        rng = np.random.default_rng(n)
        rhs = rng.normal(size=(n, 8))
        refused = {"eigvalsh": 0, "solve": 0, "cholesky": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, M in _kernel_inputs(rng, n).items():
                for kernel, public, arrays in (
                    (_eigvalsh, np.linalg.eigvalsh, (M,)),
                    (_solve, np.linalg.solve, (M, rhs)),
                    (_cholesky, np.linalg.cholesky, (M,)),
                ):
                    expected = _outcome(public, *arrays)
                    assert _outcome(kernel, *arrays) == expected, (name, public.__name__)
                    refused[public.__name__] += expected[0] is np.linalg.LinAlgError
        assert all(refused.values()), refused  # every kernel's refusal is exercised

    def test_a_run_calls_no_linalg_wrapper(self, monkeypatch):
        cfg = replace(load_config(Path(__file__).parent.parent / "configs" / "case3.yaml"), duration=40)
        gain = tracking.kalman_gain
        gains = 0

        def counted(*args):
            nonlocal gains
            gains += 1
            return gain(*args)

        def wrapper(*args, **kwargs):
            raise AssertionError("the filter called a numpy.linalg wrapper")

        wrappers = ("eigvalsh", "solve", "cholesky")
        kernels = {_eigvalsh, _solve, _cholesky}
        assert kernels.isdisjoint(getattr(np.linalg, name) for name in wrappers)  # no kernel is bound to a wrapper
        for name in wrappers:
            monkeypatch.setattr(np.linalg, name, wrapper)
        monkeypatch.setattr(tracking, "kalman_gain", counted)
        metrics = harness.run_scenario(cfg)
        assert gains > 100  # the run's updates went through the kernels
        assert metrics.filter_faults == 0
