"""The per-track terms of the safety certificate, computed for many tracks
in one array pass, agree bit for bit with their frozen one-track
references in oracles.py, whatever else is in the batch.

The tracks come from the regimes of test_hot_path_identity.py (clamped
weather, the windless boundary, wrapped azimuths, overflowing means and
covariances), plus covariances holding NaN or inf and UAV altitudes at or
below ground. Each track's prior differs from its posterior, so a term
read from the wrong field shows.
"""

import math
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emberwatch import harness, tracking
from emberwatch.bounds import _upper_quantile, uncertainty_ratio, worst_case_speed
from emberwatch.config import load_config
from emberwatch.errors import DomainError
from emberwatch.fire import DEFAULT_ELLIPSE, EllipseParams
from emberwatch.tracking import TrackEstimate, certificate_terms, residual_terms, residual_trace, speed_terms
from oracles import (
    reference_residual_cov,
    reference_residual_terms,
    reference_speed_terms,
    reference_worst_case_speed,
)
from test_hot_path_identity import REGIMES, _random_track

CONFIG_DIR = Path(__file__).parent.parent / "configs"
SPECIALS = ("nan-posterior", "inf-posterior", "nan-prior", "inf-prior", "grounded", "zero-altitude")


def _transition(rng, regime):
    F = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    F[0:2, 5:] = rng.normal(size=(2, 3)) * (10.0 ** rng.uniform(-3, 1 if regime != "huge" else 150))
    return F


def _predicted_track(rng, kind):
    """A predicted track whose prior (mean, P) is not its posterior."""
    regime = kind if kind in REGIMES else "plain"
    mean, P, Q, R, *_ = _random_track(rng, regime)
    prior_mean = mean + rng.normal(size=8)
    prior_mean[4] = abs(prior_mean[4]) + 1.0
    prior_P = P * rng.uniform(0.5, 2.0)
    if kind.endswith("posterior"):
        P = P.copy()
        P[6, 6 if kind.startswith("nan") else 5] = np.nan if kind.startswith("nan") else np.inf
    elif kind.endswith("prior"):
        prior_P = prior_P.copy()
        prior_P[0, 0 if kind.startswith("nan") else 5] = np.nan if kind.startswith("nan") else np.inf
    elif kind == "grounded":
        prior_mean[4] = -abs(prior_mean[4])
    elif kind == "zero-altitude":
        prior_mean[4] = 0.0
    return TrackEstimate(
        mean, P, Q, R, prior_mean=prior_mean, prior_covariance=prior_P, transition_matrix=_transition(rng, regime)
    )


def _tracks(seed, count):
    rng = np.random.default_rng(seed)
    kinds = REGIMES + SPECIALS
    return [_predicted_track(rng, kinds[k % len(kinds)]) for k in range(count)]


def _outcome(fn):
    """The call's result, or the type of what it raised."""
    try:
        return fn()
    except (ArithmeticError, ValueError, DomainError) as exc:
        return type(exc)


def _bits(values):
    if isinstance(values, type):
        return values
    return tuple(struct.pack("<d", v) for v in values)


def _speed_bits(track, params):
    return _bits(_outcome(lambda: speed_terms([track], params)[0][1:]))


def _residual_bits(track):
    return _bits(_outcome(lambda: tuple(residual_terms(track)[1:])))


@pytest.fixture(autouse=True)
def quiet_floats():
    # Overflowing regimes raise float warnings on both sides; values are compared.
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def test_terms_match_references_bit_for_bit():
    tracks = _tracks(20261101, 1300)
    params = DEFAULT_ELLIPSE
    speed_refs = [_bits(_outcome(lambda: reference_speed_terms(t.mean, t.covariance, params))) for t in tracks]
    batch = [t for t, ref in zip(tracks, speed_refs) if not isinstance(ref, type)]
    certificate_terms(batch, params)
    assert all(t._speed is not None and t._residual is not None for t in batch)
    outcomes = {"values": 0, "raised": 0, "nan": 0, "inf": 0}
    for track, ref in zip(tracks, speed_refs):
        # A track whose spread model raises raises the same type alone.
        assert _speed_bits(track, params) == ref
        want = _bits(
            _outcome(
                lambda: reference_residual_terms(
                    track.prior_mean, track.prior_covariance, track.transition_matrix, track.observation_noise
                )
            )
        )
        assert _residual_bits(track) == want
        for got in (ref, want):
            if isinstance(got, type):
                outcomes["raised"] += 1
                continue
            values = [struct.unpack("<d", b)[0] for b in got]
            outcomes["values"] += 1
            outcomes["nan"] += any(math.isnan(v) for v in values)
            outcomes["inf"] += any(math.isinf(v) for v in values)
    assert outcomes["values"] > len(tracks)
    assert min(outcomes.values()) > 0


def test_worst_case_speed_from_the_pass_matches_reference():
    rng = np.random.default_rng(5)
    tracks = [t for t in _tracks(11, 400) if not isinstance(_outcome(lambda: speed_terms([t], DEFAULT_ELLIPSE)), type)]
    tracks = [replace(t) for t in tracks]  # drop the terms the filter above kept
    certificate_terms(tracks, DEFAULT_ELLIPSE)
    for _ in range(300):
        group = [tracks[i] for i in rng.choice(len(tracks), size=int(rng.integers(0, 6)), replace=False)]
        alpha = float(rng.choice([0.05, 0.01, 0.2]))
        got = worst_case_speed(group, alpha, DEFAULT_ELLIPSE)
        want = reference_worst_case_speed(
            [t.mean for t in group], [t.covariance for t in group], _upper_quantile(alpha), DEFAULT_ELLIPSE
        )
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_closed_form_terms_give_the_matrix_power_trace():
    rng = np.random.default_rng(17)
    tracks = [_predicted_track(rng, "plain") for _ in range(200)]
    certificate_terms(tracks, DEFAULT_ELLIPSE)
    for t in tracks:
        H = tracking.observation_jacobian(t.prior_mean)
        F, P, R = t.transition_matrix, t.prior_covariance, t.observation_noise
        assert residual_terms(t).noise == np.trace(R)
        for steps in (1, 2, 5, 40):
            no_noise = np.trace(reference_residual_cov(F, H, P, np.zeros_like(R), steps))
            assert residual_trace(t, steps) == pytest.approx(no_noise, rel=1e-12, abs=0.0)


def _all_bits(tracks, params):
    return [(_speed_bits(t, params), _residual_bits(t)) for t in tracks]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 60])
def test_a_row_does_not_depend_on_its_batch(size):
    params = DEFAULT_ELLIPSE
    rng = np.random.default_rng(size)
    base = [t for t in _tracks(size + 100, 3 * size) if not isinstance(_outcome(lambda: speed_terms([t], params)), type)]
    base = base[:size]
    assert len(base) == size
    alone = [replace(t) for t in base]
    for t in alone:
        certificate_terms([t], params)
    expected = _all_bits(alone, params)

    in_order = [replace(t) for t in base]
    certificate_terms(in_order, params)
    assert _all_bits(in_order, params) == expected

    order = rng.permutation(size)
    shuffled = [replace(t) for t in base]
    certificate_terms([shuffled[i] for i in order], params)
    assert _all_bits(shuffled, params) == expected

    # Among other tracks, and repeated within the batch.
    padded = [replace(t) for t in base]
    others = _tracks(size + 200, 12)[:6]
    others = [t for t in others if not isinstance(_outcome(lambda: speed_terms([t], params)), type)]
    certificate_terms(others + padded + padded[:1], params)
    assert _all_bits(padded, params) == expected

    # The readers compute a lone track's terms in the same pass.
    lazy = [replace(t) for t in base]
    assert _all_bits(lazy, params) == expected


def test_terms_are_kept_per_params_object_and_dropped_by_replace(monkeypatch):
    tracks = _tracks(3, 5)[:3]
    track = tracks[0]
    params = DEFAULT_ELLIPSE
    calls = []
    keep = tracking._keep_speed_terms
    monkeypatch.setattr(tracking, "_keep_speed_terms", lambda ts, p: (calls.append(len(ts)), keep(ts, p)))
    (first,) = speed_terms([track], params)
    assert speed_terms([track], params)[0] is first
    assert calls == [1, 0]
    # The speed bound computes the missing terms of its tracks in one pass.
    worst_case_speed(tracks, 0.05, params)
    assert calls == [1, 0, 2] and speed_terms(tracks, params)[0] is first
    equal = replace(params)
    assert equal == params and equal is not params
    assert speed_terms([track], equal)[0][1:] == first[1:]
    assert calls[-1] == 1
    other = EllipseParams(a=params.a * 2.0)
    assert speed_terms([track], other)[0][1:] != first[1:]
    copied = replace(track)
    assert copied._speed is None and copied._residual is None
    residual_terms(track)
    assert replace(track, prior_covariance=track.prior_covariance * 2.0)._residual is None


def test_unpredicted_and_grounded_tracks_refuse_a_forecast():
    rng = np.random.default_rng(8)
    mean, P, Q, R, *_ = _random_track(rng, "plain")
    fresh = TrackEstimate(mean, P, Q, R)
    certificate_terms([fresh], DEFAULT_ELLIPSE)  # speed terms only
    assert fresh._speed is not None and fresh._residual is None
    with pytest.raises(ValueError):
        residual_trace(fresh, 1)
    with pytest.raises(ValueError):
        uncertainty_ratio(fresh, 10.0, 1.0)
    grounded = _predicted_track(rng, "grounded")
    certificate_terms([grounded], DEFAULT_ELLIPSE)
    with pytest.raises(DomainError, match="uav_z must be > 0"):
        uncertainty_ratio(grounded, 10.0, 1.0)
    assert uncertainty_ratio(grounded, math.inf, 1.0) == math.inf


def _count_passes(monkeypatch):
    """The sizes of the per-step passes, and the count of each kind of term computed at all."""
    passes = []
    monkeypatch.setattr(harness, "certificate_terms", lambda ts, p: (passes.append(len(ts)), certificate_terms(ts, p)))
    computed = {"speed": 0, "residual": 0}

    def counted(kind, fn):
        def call(tracks, *args):
            computed[kind] += len(tracks)
            return fn(tracks, *args)

        return call

    monkeypatch.setattr(tracking, "_keep_speed_terms", counted("speed", tracking._keep_speed_terms))
    monkeypatch.setattr(tracking, "_keep_residual_terms", counted("residual", tracking._keep_residual_terms))
    return passes, computed


def test_a_run_without_teams_makes_no_pass(monkeypatch):
    passes, computed = _count_passes(monkeypatch)
    cfg = load_config(CONFIG_DIR / "case3.yaml")
    assert cfg.teams.count == 0
    harness.run_scenario(replace(cfg, duration=20))
    assert passes == []
    # Only the coverage replans' speed bounds compute terms, track by track.
    assert computed["residual"] == 0
    before = dict(computed)
    harness.run_scenario(replace(cfg, duration=20, controller="gradient"))
    assert passes == [] and computed == before


def test_a_teams_run_makes_one_pass_per_step(monkeypatch):
    passes, computed = _count_passes(monkeypatch)
    cfg = load_config(CONFIG_DIR / "sweep.yaml")
    cfg = replace(cfg, case=3, duration=30, teams=replace(cfg.teams, count=3))
    harness.min_drones_for_run(cfg)
    assert len(passes) == cfg.duration
    assert min(passes) > 0
    # The safety plans read every term from the step's pass.
    assert computed == {"speed": sum(passes), "residual": sum(passes)}
