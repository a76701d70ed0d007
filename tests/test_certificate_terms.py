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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from emberwatch import harness, tracking
from emberwatch.bounds import _upper_quantile, uncertainty_ratio, worst_case_speed
from emberwatch.config import load_config
from emberwatch.errors import DomainError
from emberwatch.fire import DEFAULT_ELLIPSE, FireFront
from emberwatch.tracking import TrackEstimate, residual_terms, residual_trace, speed_terms
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
    return _bits(_outcome(lambda: speed_terms([track], params)[0]))


def _residual_bits(residual):
    """The residual terms, or DomainError where `residual_trace` refuses them."""
    return _bits(_outcome(lambda: (residual_trace(residual, 1), *residual[2:])))


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
    in_batch = {id(t): _bits(terms) for t, terms in zip(batch, speed_terms(batch, params))}
    outcomes = {"values": 0, "raised": 0, "nan": 0, "inf": 0}
    for track, ref, residual in zip(tracks, speed_refs, residual_terms(tracks)):
        # A track whose spread model raises raises the same type alone.
        got = in_batch[id(track)] if id(track) in in_batch else _speed_bits(track, params)
        assert got == ref
        want = _bits(
            _outcome(
                lambda: reference_residual_terms(
                    track.prior_mean, track.prior_covariance, track.transition_matrix, track.observation_noise
                )
            )
        )
        assert _residual_bits(residual) == want
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
    speeds = speed_terms(tracks, DEFAULT_ELLIPSE)
    for _ in range(300):
        picked = rng.choice(len(tracks), size=int(rng.integers(0, 6)), replace=False)
        group = [tracks[i] for i in picked]
        alpha = float(rng.choice([0.05, 0.01, 0.2]))
        got = worst_case_speed([speeds[i] for i in picked], alpha)
        want = reference_worst_case_speed(
            [t.mean for t in group], [t.covariance for t in group], _upper_quantile(alpha), DEFAULT_ELLIPSE
        )
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_closed_form_terms_give_the_matrix_power_trace():
    rng = np.random.default_rng(17)
    tracks = [_predicted_track(rng, "plain") for _ in range(200)]
    for t, residual in zip(tracks, residual_terms(tracks)):
        H = tracking._observation(t.prior_mean)[1]
        F, P, R = t.transition_matrix, t.prior_covariance, t.observation_noise
        assert residual.noise == np.trace(R)
        for steps in (1, 2, 5, 40):
            no_noise = np.trace(reference_residual_cov(F, H, P, np.zeros_like(R), steps))
            assert residual_trace(residual, steps) == pytest.approx(no_noise, rel=1e-12, abs=0.0)


def _all_bits(tracks, params):
    """(speed bits, residual bits) per track, from one pass of each kind over `tracks`."""
    return [
        (_bits(speed), _residual_bits(residual))
        for speed, residual in zip(speed_terms(tracks, params), residual_terms(tracks), strict=True)
    ]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 60])
def test_a_row_does_not_depend_on_its_batch(size):
    params = DEFAULT_ELLIPSE
    rng = np.random.default_rng(size)
    base = [t for t in _tracks(size + 100, 3 * size) if not isinstance(_outcome(lambda: speed_terms([t], params)), type)]
    base = base[:size]
    assert len(base) == size
    # A lone track's terms come from the same pass with N = 1.
    expected = [bits for t in base for bits in _all_bits([t], params)]

    assert _all_bits(base, params) == expected

    order = rng.permutation(size)
    shuffled = _all_bits([base[i] for i in order], params)
    assert [shuffled[k] for k in np.argsort(order)] == expected

    # Among other tracks, and repeated within the batch.
    others = _tracks(size + 200, 12)[:6]
    others = [t for t in others if not isinstance(_outcome(lambda: speed_terms([t], params)), type)]
    padded = _all_bits(others + base + base[:1], params)
    assert padded[len(others):len(others) + size] == expected
    assert padded[len(others) + size:] == expected[:1]


def test_unpredicted_and_grounded_tracks_refuse_a_forecast():
    rng = np.random.default_rng(8)
    mean, P, Q, R, *_ = _random_track(rng, "plain")
    fresh = TrackEstimate(mean, P, Q, R)
    assert len(speed_terms([fresh], DEFAULT_ELLIPSE)) == 1  # speed terms only
    with pytest.raises(ValueError):
        residual_terms([fresh])
    with pytest.raises(ValueError):
        residual_terms([_predicted_track(rng, "plain"), fresh])
    (grounded,) = residual_terms([_predicted_track(rng, "grounded")])
    with pytest.raises(DomainError, match="uav_z must be > 0"):
        uncertainty_ratio(grounded, 10.0, 1.0)
    assert uncertainty_ratio(grounded, math.inf, 1.0) == math.inf


def _count_passes(monkeypatch):
    """The sizes of the closed loop's per-step passes, and the count of each
    kind of term computed anywhere else."""
    passes = {"speed": [], "residual": []}
    computed = {"speed": 0, "residual": 0}

    def counted(fn, kind, in_pass):
        def call(tracks, *args):
            if in_pass:
                passes[kind].append(len(tracks))
            else:
                computed[kind] += len(tracks)
            return fn(tracks, *args)

        return call

    for kind, fn in (("speed", speed_terms), ("residual", residual_terms)):
        monkeypatch.setattr(harness, fn.__name__, counted(fn, kind, in_pass=True))
        monkeypatch.setattr(tracking, fn.__name__, counted(fn, kind, in_pass=False))
    return passes, computed


def test_a_run_without_teams_makes_no_pass(monkeypatch):
    passes, computed = _count_passes(monkeypatch)
    cfg = load_config(CONFIG_DIR / "case3.yaml")
    assert cfg.teams.count == 0
    harness.run_scenario(replace(cfg, duration=20))
    assert passes == {"speed": [], "residual": []}
    # Only the coverage replans compute terms, and only speed terms.
    assert computed["residual"] == 0
    before = dict(computed)
    harness.run_scenario(replace(cfg, duration=20, controller="gradient"))
    assert passes == {"speed": [], "residual": []} and computed == before


def test_a_teams_run_makes_one_pass_per_step(monkeypatch):
    passes, computed = _count_passes(monkeypatch)
    cfg = load_config(CONFIG_DIR / "sweep.yaml")
    cfg = replace(cfg, case=3, duration=30, teams=replace(cfg.teams, count=3))
    harness.min_drones_for_run(cfg)
    assert len(passes["speed"]) == cfg.duration
    assert passes["residual"] == passes["speed"]
    assert min(passes["speed"]) > 0
    # The safety plans read every term from the step's pass.
    assert computed == {"speed": 0, "residual": 0}


def test_tracks_hold_only_their_fields_after_a_run(monkeypatch):
    # Teams and a coverage fleet together: certificate passes and coverage replans both read the tracks.
    seen = []

    def keep(fn, records):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.extend(records(result))
            return result

        return call

    monkeypatch.setattr(harness, "predict", keep(harness.predict, lambda track: [track]))
    monkeypatch.setattr(harness, "step_track", keep(harness.step_track, lambda track: [track]))
    monkeypatch.setattr(harness, "simulate_step", keep(harness.simulate_step, lambda fire_map: fire_map.fronts))
    cfg = load_config(CONFIG_DIR / "case3.yaml")
    harness.run_scenario(replace(cfg, duration=40, teams=replace(cfg.teams, count=2)))
    names = [f.name for f in fields(TrackEstimate)]
    assert len(names) == 8 and "_motion" in names
    kinds = {type(r) for r in seen}
    assert kinds == {TrackEstimate, FireFront}
    assert all(sum(type(r) is kind for r in seen) > 100 for kind in kinds)
    # A slotted record has no __dict__, so it can hold nothing but its fields.
    assert not any(hasattr(r, "__dict__") for r in seen)
    assert all(kind.__slots__ == tuple(f.name for f in fields(kind)) for kind in kinds)
