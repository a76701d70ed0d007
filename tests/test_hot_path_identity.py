"""The per-track filter and per-front fire step agree bit for bit with
their frozen references in oracles.py, and fail with the same exception
types on the same inputs.

The random tracks cover the regimes where the arithmetic branches or
loses range: clamped negative spread rate and wind, the windless
boundary where the wind slope is treated as flat, azimuths outside
[0, 2 pi), innovations whose azimuth wraps around +-pi, and means and
covariances large enough to overflow.

Chains of predicts check the transition that a predicted track reuses:
every link matches the reference, and the spread model runs again
whenever anything but the covariance could have changed.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from emberwatch import fire
from emberwatch.bounds import _upper_quantile, worst_case_speed
from emberwatch.errors import DomainError, SingularResidual
from emberwatch.fire import DEFAULT_ELLIPSE, EllipseParams, FireMap, WindFuelState, simulate_step
from emberwatch.tracking import FilterConfig, TrackEstimate, predict, update
from oracles import reference_predict, reference_simulate_step, reference_update, reference_worst_case_speed

TRACKS = 1200
REGIMES = ("plain", "negative", "windless", "azimuth", "wrap", "huge", "storm")


def _random_spd(rng, n, scale):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T / n + 1e-3 * np.eye(n))


def _random_track(rng, regime):
    """(mean, P, Q, R, z, dt, uav_pose, alpha) for one regime."""
    mean = np.array(
        [
            rng.uniform(-500, 500),
            rng.uniform(-500, 500),
            rng.uniform(-500, 500),
            rng.uniform(-500, 500),
            rng.uniform(10, 200),
            rng.uniform(0.05, 3.0),
            rng.uniform(0.5, 12.0),
            rng.uniform(0, 2 * math.pi),
        ]
    )
    p_scale, z_noise = 10.0 ** rng.uniform(-2, 2), 0.05
    if regime == "negative":
        mean[5] = rng.uniform(-2.0, 0.5)
        mean[6] = rng.choice([rng.uniform(-5.0, 0.0), rng.uniform(0.0, 5.0)])
    elif regime == "windless":
        mean[6] = rng.choice([0.0, -0.0, 1e-12, 1e-7, 1e-5, rng.uniform(0, 1e-3)])
    elif regime == "azimuth":
        mean[7] = rng.choice([rng.uniform(-40.0, 40.0), -1e-300, 2 * math.pi, -2 * math.pi, 1e6 * rng.normal()])
    elif regime == "huge":
        mean[:5] *= 10.0 ** rng.uniform(0, 200)
        mean[4] = abs(mean[4])
        p_scale = 10.0 ** rng.uniform(0, 300)
    elif regime == "storm":
        mean[6] = rng.uniform(1000.0, 3000.0)
    P = _random_spd(rng, 8, p_scale)
    Q = _random_spd(rng, 8, 10.0 ** rng.uniform(-4, 0))
    R = _random_spd(rng, 5, 10.0 ** rng.uniform(-4, 0))
    truth = mean + rng.normal(size=8) * np.sqrt(np.diag(P)) * 0.1
    truth[4] = abs(truth[4]) + 1.0
    z = np.array(
        [
            math.atan((truth[0] - truth[2]) / truth[4]),
            math.atan((truth[1] - truth[3]) / truth[4]),
            truth[5],
            truth[6],
            truth[7],
        ]
    ) + rng.normal(size=5) * z_noise
    if regime == "wrap":
        z[4] = mean[7] + math.pi + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 0.1)
    dt = float(rng.choice([1.0, 0.5, rng.uniform(0.01, 5.0)]))
    uav_pose = None if rng.uniform() < 0.3 else mean[2:5] + rng.normal(size=3)
    alpha = float(rng.choice([0.97, 0.0, 1.0, rng.uniform()]))
    return mean, P, Q, R, z, dt, uav_pose, alpha


def _outcome(fn, strict):
    """The call's result, or the type of what it raised.

    strict turns RuntimeWarnings into exceptions, so float trouble is
    compared by type; otherwise warnings are silenced and values compared.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error" if strict else "ignore", RuntimeWarning)
        try:
            return fn()
        except (ArithmeticError, ValueError, RuntimeWarning, DomainError, SingularResidual) as exc:
            return type(exc)


def _assert_same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(np.asarray(g), np.asarray(w), equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def _track_fields(track):
    return (
        track.mean,
        track.covariance,
        track.process_noise,
        track.observation_noise,
        track.prior_mean,
        track.prior_covariance,
        track.transition_matrix,
    )


def _predict_pair(mean, P, Q, R, dt, uav_pose, params):
    def got():
        return _track_fields(predict(TrackEstimate(mean, P, Q, R), dt, params, uav_pose=uav_pose))

    def want():
        m, cov, F = reference_predict(mean, P, Q, dt, params, uav_pose=uav_pose)
        return m, cov, Q, R, m, cov, F

    return got, want


def _update_pair(mean, P, Q, R, z, alpha):
    prior = TrackEstimate(mean, P, Q, R, prior_mean=mean, prior_covariance=P, transition_matrix=np.eye(8))

    def got():
        return _track_fields(update(prior, z, FilterConfig(alpha_forget=alpha)))[:4]

    def want():
        return reference_update(mean, P, Q, R, z, alpha)

    return got, want


@pytest.mark.parametrize("strict", [False, True], ids=["values", "warnings-raise"])
def test_predict_and_update_match_reference_bit_for_bit(strict):
    rng = np.random.default_rng(20261019)
    outcomes = {"values": 0, "raised": 0}
    for k in range(TRACKS):
        mean, P, Q, R, z, dt, uav_pose, alpha = _random_track(rng, REGIMES[k % len(REGIMES)])
        for got, want in (
            _predict_pair(mean, P, Q, R, dt, uav_pose, DEFAULT_ELLIPSE),
            _update_pair(mean, P, Q, R, z, alpha),
        ):
            expected = _outcome(want, strict)
            _assert_same(_outcome(got, strict), expected)
            outcomes["raised" if isinstance(expected, type) else "values"] += 1
    # Most inputs run through; the overflow regimes raise.
    assert outcomes["values"] > TRACKS
    assert outcomes["raised"] > 0


# What happens to a track between two predicts of a chain; "none" is the
# reuse path.
INTERRUPTIONS = ("none", "none", "none", "update", "dt", "params", "covariance", "mean", "caller")


def _counting_spread_velocity(monkeypatch):
    calls = []
    spread_velocity = fire.spread_velocity

    def counted(*args):
        calls.append(args)
        return spread_velocity(*args)

    monkeypatch.setattr(fire, "spread_velocity", counted)
    return calls


def _interrupt(kind, rng, track, z, alpha, strict):
    """The track after one interruption of a chain, and whether its next predict must recompute.

    "dt" and "params" leave the track as it is; the chain changes them.
    "mean" and "caller" give the track new weather, so a stale transition
    would show in the bits. An update is checked against the reference;
    one that faults leaves the track as it was, still on the reuse path.
    """
    if kind == "update":
        got = _outcome(lambda: update(track, z, FilterConfig(alpha_forget=alpha)), strict)
        want = _outcome(
            lambda: reference_update(
                track.mean, track.covariance, track.process_noise, track.observation_noise, z, alpha
            ),
            strict,
        )
        if isinstance(want, type):
            assert got is want
            return track, False
        _assert_same(_track_fields(got)[:4], want)
        return got, True
    if kind == "covariance":
        return replace(track, covariance=track.covariance * 1.5), True
    if kind in ("mean", "caller"):
        mean = track.mean.copy()
        mean[5:] = rng.uniform([0.05, 0.5, 0.0], [3.0, 12.0, 2 * math.pi])
        if kind == "mean":
            return replace(track, mean=mean), True
        P, Q, R = track.covariance, track.process_noise, track.observation_noise
        return TrackEstimate(mean, P, Q, R, prior_mean=mean, transition_matrix=np.eye(8)), True
    return track, kind != "none"


@pytest.mark.parametrize("strict", [False, True], ids=["values", "warnings-raise"])
def test_chained_predicts_match_reference_at_every_link(monkeypatch, strict):
    calls = _counting_spread_velocity(monkeypatch)
    rng = np.random.default_rng(20261020)
    seen = {kind: 0 for kind in INTERRUPTIONS}
    for k in range(140):
        mean, P, Q, R, z, dt, _, alpha = _random_track(rng, REGIMES[k % len(REGIMES)])
        params = DEFAULT_ELLIPSE
        track = TrackEstimate(mean, P, Q, R)
        recompute = True
        for _ in range(int(rng.integers(5, 21))):
            pose = None if rng.uniform() < 0.5 else track.mean[2:5] + rng.normal(size=3)
            before = len(calls)
            got = _outcome(lambda: predict(track, dt, params, uav_pose=pose), strict)
            want = _outcome(
                lambda: reference_predict(track.mean, track.covariance, track.process_noise, dt, params, uav_pose=pose),
                strict,
            )
            if isinstance(want, type):
                assert got is want
                break
            m, cov, F = want
            _assert_same(_track_fields(got), (m, cov, track.process_noise, track.observation_noise, m, cov, F))
            assert len(calls) - before == recompute
            kind = str(rng.choice(INTERRUPTIONS))
            seen[kind] += 1
            track, recompute = _interrupt(kind, rng, got, z, alpha, strict)
            if kind == "dt":
                dt = float(rng.uniform(0.01, 5.0))
            elif kind == "params":
                params = replace(params)
                assert params == DEFAULT_ELLIPSE and params is not DEFAULT_ELLIPSE
    assert min(seen.values()) > 20


def test_a_chain_of_predicts_evaluates_the_spread_model_once(monkeypatch):
    calls = _counting_spread_velocity(monkeypatch)
    mean, P, Q, R, *_ = _random_track(np.random.default_rng(3), "plain")
    track = TrackEstimate(mean, P, Q, R)
    dt = 1.0
    for _ in range(10):
        track = predict(track, dt, DEFAULT_ELLIPSE)
    assert len(calls) == 1


def test_regimes_reach_their_branches():
    """The generator hits clamping, the windless floor, wrapped azimuths and wrap-around residuals."""
    rng = np.random.default_rng(20261019)
    seen = set()
    for k in range(TRACKS):
        regime = REGIMES[k % len(REGIMES)]
        mean, _, _, _, z, _, _, _ = _random_track(rng, regime)
        if mean[5] < 0:
            seen.add("negative rate")
        if mean[6] < 0:
            seen.add("negative wind")
        if regime == "windless":
            lb = DEFAULT_ELLIPSE.length_to_breadth(max(mean[6], 0.0))
            if max(lb * lb - 1.0, 0.0) <= 1e-12:
                seen.add("windless floor")
        if not 0 <= mean[7] < 2 * math.pi:
            seen.add("azimuth outside")
        if abs(z[4] - mean[7]) > math.pi:
            seen.add("residual wraps")
    assert seen == {"negative rate", "negative wind", "windless floor", "azimuth outside", "residual wraps"}


def test_fault_inputs_raise_the_reference_types():
    rng = np.random.default_rng(7)
    mean, P, Q, R, z, dt, uav_pose, alpha = _random_track(rng, "plain")

    grounded = mean.copy()
    grounded[4] = rng.choice([0.0, -5.0])
    got, want = _update_pair(grounded, P, Q, R, z, alpha)
    assert _outcome(want, False) is DomainError
    assert _outcome(got, False) is DomainError

    for bad in (np.inf, np.nan):
        P_bad = P.copy()
        P_bad[0, 0] = bad
        got, want = _update_pair(mean, P_bad, Q, R, z, alpha)
        assert _outcome(want, False) is SingularResidual
        assert _outcome(got, False) is SingularResidual

    below_one = EllipseParams(l=-0.5)  # LB(0) = 0.897
    still = mean.copy()
    still[6] = 0.0
    got, want = _predict_pair(still, P, Q, R, dt, uav_pose, below_one)
    assert _outcome(want, False) is DomainError
    assert _outcome(got, False) is DomainError


def test_worst_case_speed_matches_reference_bit_for_bit():
    rng = np.random.default_rng(99)
    for k in range(300):
        tracks = [_random_track(rng, REGIMES[(k + j) % len(REGIMES)]) for j in range(int(rng.integers(1, 6)))]
        estimates = [TrackEstimate(m, P, Q, R) for m, P, Q, R, *_ in tracks]
        alpha = float(rng.choice([0.05, 0.01, 0.2]))
        for strict in (False, True):
            got = _outcome(lambda: worst_case_speed(estimates, alpha, DEFAULT_ELLIPSE), strict)
            want = _outcome(
                lambda: reference_worst_case_speed(
                    [t[0] for t in tracks], [t[1] for t in tracks], _upper_quantile(alpha), DEFAULT_ELLIPSE
                ),
                strict,
            )
            if isinstance(want, type):
                assert got is want
            else:
                assert got == want or (math.isnan(got) and math.isnan(want))


def _random_map(rng):
    case = int(rng.integers(1, 4))
    wind = float(rng.choice([0.0, rng.uniform(0.0, 15.0)]))
    rate = 0.0 if case == 1 else float(rng.uniform(0.0, 3.0))
    azimuth = float(rng.uniform(-10.0, 10.0))
    n = int(rng.integers(0, 12))
    fire_map = FireMap(
        (),
        WindFuelState(rate, wind, azimuth),
        case,
        spawn_rate_max=int(rng.integers(1, 4)) if case == 3 else 0,
        spawn_interval=int(rng.integers(1, 4)),
        rng_seed=int(rng.integers(0, 2**40)),
        noise_std=float(rng.choice([0.0, 0.05, 2.0])),
        max_per_lineage=int(rng.choice([0, 3, 6])),
        step=int(rng.integers(0, 50)),
    )
    return fire_map.with_fronts(rng.uniform(-1000, 1000, size=(n, 2)), range(1, n + 1))


def test_simulate_step_matches_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    fronts_checked = 0
    spawned = 0
    for _ in range(150):
        fire_map = _random_map(rng)
        dt = float(rng.choice([1.0, 0.5, rng.uniform(0.1, 3.0)]))
        for _ in range(3):
            want, want_step = reference_simulate_step(fire_map, dt)
            got = simulate_step(fire_map, dt)
            assert got.step == want_step
            assert len(got.fronts) == len(want)
            for front, (fid, position, velocity, lineage) in zip(got.fronts, want):
                assert (front.id, front.lineage) == (fid, lineage)
                assert np.array_equal(front.position, position)
                assert np.array_equal(front.velocity, velocity)
            spawned += len(got.fronts) - len(fire_map.fronts)
            fronts_checked += len(want)
            fire_map = got
            if fire_map.case != 1 and rng.uniform() < 0.5:  # a wind shift, as a schedule makes
                rate, wind, azimuth = rng.uniform([0.0, 0.0, -10.0], [3.0, 15.0, 10.0]).tolist()
                fire_map = replace(fire_map, wind_fuel=WindFuelState(rate, wind, azimuth))
    assert fronts_checked >= 1000
    assert spawned > 0
