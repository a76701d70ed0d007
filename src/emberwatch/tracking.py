"""Adaptive extended Kalman filter over the joint fire/UAV state.

The state is one (8,) float array
    [fire_x, fire_y, uav_x, uav_y, uav_z, spread_rate, wind_speed, wind_azimuth]
indexed by the constants FIRE_X ... WIND_AZIMUTH; the mean and every
matrix in this module index against that ordering. An
observation is a (5,) array
    [look_angle_x, look_angle_y, spread_rate, wind_speed, wind_azimuth]:
the camera look angle per planar axis plus the directly sensed weather
triple.

The UAV pose is a control input: the transition keeps (or overwrites) it
but its rows in the transition Jacobian are zero, because the next pose
comes from the flight controller rather than from the previous state.

There are two filter operations: `predict` (time update) and `update`
(measurement update plus forgetting-factor adaptation of Q and R);
`step_track` is one observed cycle of both. The filter is a pure
state machine: every operation takes a TrackEstimate and returns a new
one without touching its input's arrays, so distinct fires can be
filtered concurrently as long as each track is advanced sequentially.

The safety certificate reads each track through a few scalars:
`certificate_terms` computes them for a whole set of tracks in one array
pass and keeps them on each track; `speed_terms` and `residual_terms`
read them, computing the missing ones in the same pass (a lone track's
with N = 1), and `residual_trace` gives the uncertainty ratio its
forecast in closed form from them.

Each operation evaluates each quantity once. `predict` takes the next
mean and the transition Jacobian from one evaluation of the spread model
(`fire.spread_velocity`); `update` reads the state once for h(x) and H,
and forms H P once, for the residual covariance and for the gain.

A predict that follows a predict with the same `dt` and `params`
objects reuses the last F and fire displacement, skipping the spread
model, the F build and the state copy (`TrackEstimate` says why that is
exact). The F that consecutive tracks share is read-only.

These share work without reordering any float operation, so results are
the same bits as evaluating each quantity on its own
(tests/test_hot_path_identity.py checks them against frozen references).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import fire
from .errors import DomainError, SingularResidual

STATE_DIM = 8
OBS_DIM = 5

# Column/row indices of the state vector.
FIRE_X, FIRE_Y, UAV_X, UAV_Y, UAV_Z, SPREAD_RATE, WIND_SPEED, WIND_AZIMUTH = range(8)

_COND_LIMIT = 1e12

_IDENTITY = np.eye(STATE_DIM)
_IDENTITY.flags.writeable = False

# Transition Jacobian without its velocity-sensitivity block: identity on
# the fire position and the weather triple, zero on the UAV pose.
_F_BASE = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
_F_BASE.flags.writeable = False

# Observation Jacobian without its look-angle rows: the weather triple
# passes straight through.
_H_BASE = np.zeros((OBS_DIM, STATE_DIM))
_H_BASE[[2, 3, 4], [SPREAD_RATE, WIND_SPEED, WIND_AZIMUTH]] = 1.0
_H_BASE.flags.writeable = False


@dataclass(frozen=True)
class FilterConfig:
    """Knobs of the adaptive filter."""

    alpha_forget: float = 0.97

    def __post_init__(self):
        if not 0.0 <= self.alpha_forget <= 1.0:
            raise DomainError("alpha_forget", f"alpha_forget must be in [0, 1], got {self.alpha_forget}")


class SpeedTerms(NamedTuple):
    """A track's spread speed and its standard deviation per planar axis, at `params`.

    The speed is |v| of `fire.spread_velocity` at the mean's weather; the
    deviation is sqrt(max(var, 0)) of J P_ww J^T, J the velocity
    sensitivity and P_ww the weather block of the covariance.
    """

    params: fire.EllipseParams
    speed_x: float
    speed_y: float
    std_x: float
    std_y: float


class ResidualTerms(NamedTuple):
    """The closed-form residual forecast of a predicted track (see `residual_trace`).

    With H at `prior_mean`, P the prior covariance and G the velocity block
    of the transition matrix: `current` is tr(H P H^T), the forecast r >= 2
    steps ahead is c0 + c1 k + c2 k^2 with k = r - 1, and `noise` is tr R.
    `altitude` is the UAV altitude of `prior_mean`; H exists only above 0.
    """

    altitude: float
    current: float
    c0: float
    c1: float
    c2: float
    noise: float


@dataclass(frozen=True)
class TrackEstimate:
    """Per-fire filter state.

    prior_mean / prior_covariance / transition_matrix are the frozen
    quantities of the most recent predict step; `residual_trace`
    forecasts from them without re-linearizing along the horizon.

    The filter never writes into a track's arrays, and callers must not
    either: a track that `predict` returned carries, in `_motion`, the
    (dt, params, displacement) of that predict, and the next `predict`
    with the same `dt` and `params` objects reuses its displacement and
    its `transition_matrix`. That is exact because its mean is still
    the one predict made (`prior_mean is mean`), and predict does not
    change the weather, which alone sets both. `dt` and `params` are
    compared by identity: an equal value in another object recomputes,
    which is always exact (0.0 and -0.0 compare equal but scale to
    different bits). `_motion` takes no constructor argument, so a
    track built by a caller or by `dataclasses.replace` starts without
    it and recomputes.

    `_speed` and `_residual` hold the track's certificate terms once
    `certificate_terms` or a reader has computed them; they read the
    track's arrays only, so they hold for as long as the track does,
    and `_speed` is kept for one `params` object, compared by identity.
    Neither takes a constructor argument either.

    The public constructor coerces the four arrays to float64. The
    filter builds its tracks through `_filtered`, which skips that
    coercion because its arrays are float64 already.
    """

    mean: np.ndarray  # (8,), indexed by FIRE_X ... WIND_AZIMUTH
    covariance: np.ndarray  # P, 8x8
    process_noise: np.ndarray  # Q, 8x8
    observation_noise: np.ndarray  # R_obs, 5x5
    prior_mean: np.ndarray | None = None
    prior_covariance: np.ndarray | None = None
    transition_matrix: np.ndarray | None = None
    _motion: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _speed: SpeedTerms | None = field(default=None, init=False, repr=False, compare=False)
    _residual: ResidualTerms | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "process_noise", np.asarray(self.process_noise, dtype=float))
        object.__setattr__(self, "observation_noise", np.asarray(self.observation_noise, dtype=float))


def _filtered(**fields) -> TrackEstimate:
    """A TrackEstimate of every field, float64 arrays as the filter built them, without coercion."""
    track = object.__new__(TrackEstimate)
    track.__dict__.update(fields)
    return track


# ---------------------------------------------------------------------------
# models


def transition(
    state: np.ndarray,
    dt: float,
    params: fire.EllipseParams,
    uav_pose=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next state, the 8x8 transition Jacobian at `state`, and the fire displacement.

    The fire position advances by its spread velocity times dt, with
    negative rate and wind clamped to 0 (`fire.spread_velocity`); the
    weather is constant. `uav_pose`, when given, overwrites the pose
    components (control input); otherwise the pose is carried over.

    Jacobian fire rows: identity in position plus dt-scaled velocity
    sensitivities to the weather triple. Weather rows: identity. UAV
    rows: zero (the pose is a control input). Velocity and sensitivities
    come from one evaluation of the spread model. The Jacobian is
    read-only.
    """
    velocity, sensitivity = fire.spread_velocity(
        state[SPREAD_RATE], state[WIND_SPEED], state[WIND_AZIMUTH], params
    )
    F = _F_BASE.copy()
    F[FIRE_X:FIRE_Y + 1, SPREAD_RATE:] = sensitivity * dt
    F.flags.writeable = False
    displacement = velocity * dt
    out = np.array(state, dtype=float)
    out[FIRE_X:FIRE_Y + 1] += displacement
    if uav_pose is not None:
        out[UAV_X:UAV_Z + 1] = uav_pose
    return out, F, displacement


def _observation(
    state: np.ndarray, angles: bool = True, jacobian: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """h(state) and its 5x8 Jacobian H, from one read of the state.

    Per planar axis, q is the fire's offset from the UAV and pz the UAV
    altitude. The look angle is atan(u) with u = q / pz; with
    w = 1 / (1 + u^2) its derivatives are w / pz in the fire position,
    -w / pz in the UAV position and -w q / pz^2 in the altitude. The
    weather triple passes straight through. Each of h and H is None
    unless asked for, so a caller that needs one pays for no more.
    """
    pz = state[UAV_Z]
    if pz <= 0:
        raise DomainError("uav_z", f"uav_z must be > 0 to observe, got {pz}")
    qx = state[FIRE_X] - state[UAV_X]
    qy = state[FIRE_Y] - state[UAV_Y]
    ux, uy = qx / pz, qy / pz
    h = H = None
    if angles:
        h = np.array([math.atan(ux), math.atan(uy), state[SPREAD_RATE], state[WIND_SPEED], state[WIND_AZIMUTH]])
    if jacobian:
        H = _H_BASE.copy()
        for row, qcol, pcol, q, u in ((0, FIRE_X, UAV_X, qx, ux), (1, FIRE_Y, UAV_Y, qy, uy)):
            w = 1.0 / (1.0 + u * u)
            H[row, qcol] = w / pz
            H[row, pcol] = -w / pz
            H[row, UAV_Z] = -w * q / (pz * pz)
    return h, H


def observe(state: np.ndarray) -> np.ndarray:
    """Project the state to look angles and pass the weather through."""
    return _observation(state, jacobian=False)[0]


def observation_jacobian(state: np.ndarray) -> np.ndarray:
    """5x8 Jacobian of the observation at the given state."""
    return _observation(state, angles=False)[1]


# ---------------------------------------------------------------------------
# covariance helpers (also usable on scalar 1x1 systems in tests)


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0


def floor_psd(matrix: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero; keeps covariances positive semidefinite.

    Fast path: a Cholesky factorisation of the symmetrized matrix succeeds
    when that matrix is numerically positive definite, and such a matrix
    has no negative eigenvalue to clip, so it is returned as it is: the
    same array the `eigh` test returns when its smallest eigenvalue is
    >= 0. The `eigh` clip runs only when Cholesky fails (a zero, negative
    or NaN pivot). The two tests can disagree only on a matrix whose
    smallest eigenvalue is within rounding error of zero. Cholesky costs
    about a quarter of `eigh` on an 8x8 matrix.
    """
    sym = symmetrize(matrix)
    try:
        np.linalg.cholesky(sym)
        return sym
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() >= 0.0:
        return sym
    vals = np.maximum(vals, 0.0)
    return symmetrize((vecs * vals) @ vecs.T)


def propagate_covariance(P: np.ndarray, F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    return symmetrize(F @ P @ F.T + Q)


def kalman_gain(HP: np.ndarray, S: np.ndarray) -> np.ndarray:
    """K = P H^T S^-1; refuses an S whose 2-norm condition number exceeds 1e12.

    P is symmetric, so P H^T is the transpose of the HP = H @ P that also
    forms S, and the caller passes that product in.

    An S that is not finite is refused too, so an overflowing covariance
    is a filter fault that the caller handles like a singular one.

    S is symmetric, so its singular values are the absolute values of its
    eigenvalues and its condition number, as `np.linalg.cond` computes it
    by SVD, is max|lambda| / min|lambda|. The check takes the eigenvalues
    from `eigvalsh` instead, at about a third of the cost, and passes only
    when the smallest is positive and the largest is at most 1e12 times
    it. An indefinite, zero or rank-deficient S is refused, as `cond`
    refuses it with an infinite or huge value; the two can disagree only
    on an S within rounding error of the limit. K itself is still solved
    from S, so its bits do not depend on the check.
    """
    try:
        vals = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:  # S holds an infinity or a NaN
        raise SingularResidual("residual covariance is not finite") from exc
    lo, hi = vals[0], vals[-1]
    if not (lo > 0 and hi <= _COND_LIMIT * lo):
        raise SingularResidual(f"residual covariance condition number exceeds {_COND_LIMIT:g}")
    return np.linalg.solve(S, HP).T


# ---------------------------------------------------------------------------
# safety-certificate terms


def certificate_terms(tracks: Sequence[TrackEstimate], params: fire.EllipseParams) -> None:
    """Keep on every track its speed terms at `params` and, on each predicted
    track, its residual terms, each kind computed for all tracks in one array pass.

    Every term has the bits that the same numpy operations give on the
    track alone: the stacked `matmul`s multiply the same strided blocks one
    matrix at a time, and each sum and trace reduces the same entries in
    the same order (tests/test_certificate_terms.py checks them against
    frozen references).
    """
    _keep_speed_terms(tracks, params)
    _keep_residual_terms([t for t in tracks if _predicted(t)])


def speed_terms(tracks: Sequence[TrackEstimate], params: fire.EllipseParams) -> list[SpeedTerms]:
    """Each track's `SpeedTerms` at `params`; the tracks without terms kept for that
    object get them now, from one pass over those tracks."""
    _keep_speed_terms([t for t in tracks if t._speed is None or t._speed.params is not params], params)
    return [t._speed for t in tracks]


def residual_terms(track: TrackEstimate) -> ResidualTerms:
    """The `ResidualTerms` of a predicted track, computed now unless kept.

    An unpredicted track raises ValueError; a prior UAV altitude that is not
    above 0 raises DomainError, as building H there does.
    """
    terms = track._residual
    if terms is None:
        if not _predicted(track):
            raise ValueError("the residual forecast requires a predicted track")
        _keep_residual_terms([track])
        terms = track._residual
    if terms.altitude <= 0:
        raise DomainError("uav_z", f"uav_z must be > 0 to observe, got {terms.altitude}")
    return terms


def residual_trace(track: TrackEstimate, steps: int) -> float:
    """tr(H F^(r-1) P (H F^(r-1))^T) for r = `steps` >= 1, with H at `prior_mean`.

    F and P are those of the latest predict. r = 1 is tr(H P H^T), pose
    block included. For k = r - 1 >= 1 every F that `transition` builds
    gives F^k = [[I2, 0, k G], [0, 0, 0], [0, 0, I3]] over the (fire,
    pose, weather) blocks, G its velocity block. With a_i = H[i, i] the
    look-angle entry of fire axis i, the trace is c0 + c1 k + c2 k^2 for
    c0 = sum a_i^2 P_ff[i, i] + tr P_ww, c1 = 2 sum a_i^2 (P_fw G^T)[i, i],
    c2 = sum a_i^2 (G P_ww G^T)[i, i]. No pose entry of P enters. In Python
    floats, a horizon too long overflows to +inf without a warning.
    """
    terms = residual_terms(track)
    if steps == 1:
        return terms.current
    k = float(steps - 1)
    return terms.c0 + k * (terms.c1 + k * terms.c2)


def _predicted(track: TrackEstimate) -> bool:
    return not (track.prior_mean is None or track.prior_covariance is None or track.transition_matrix is None)


def _keep_speed_terms(tracks: Sequence[TrackEstimate], params: fire.EllipseParams) -> None:
    """Per track: `fire.spread_velocity` at the mean's weather (in `math`, one track at
    a time), then J P_ww J^T for all tracks in two stacked `matmul`s."""
    if not tracks:
        return
    velocities, sensitivities = zip(*(fire.spread_velocity(*t.mean[SPREAD_RATE:], params) for t in tracks))
    J = np.array(sensitivities)
    weather = np.array([t.covariance for t in tracks])[:, SPREAD_RATE:, SPREAD_RATE:]
    variances = (J @ weather @ J.transpose(0, 2, 1)).diagonal(axis1=1, axis2=2).tolist()
    speeds = np.abs(np.array(velocities)).tolist()
    for track, (vx, vy), (var_x, var_y) in zip(tracks, speeds, variances):
        terms = SpeedTerms(params, vx, vy, math.sqrt(max(var_x, 0.0)), math.sqrt(max(var_y, 0.0)))
        object.__setattr__(track, "_speed", terms)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 2) arrays, each row the `matmul` of its two vectors."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _keep_residual_terms(tracks: Sequence[TrackEstimate]) -> None:
    """H at every prior mean from elementwise operations, as `_observation`
    builds it, then the terms of `residual_trace` from stacked operations."""
    n = len(tracks)
    if not n:
        return
    prior = np.array([t.prior_mean for t in tracks])
    P = np.array([t.prior_covariance for t in tracks])
    F = np.array([t.transition_matrix for t in tracks])
    R = np.array([t.observation_noise for t in tracks])
    altitude = prior[:, UAV_Z]
    # H is undefined at an altitude that is not above 0 (`residual_terms`
    # refuses it); NaN keeps such rows from dividing by zero.
    pz = np.where(altitude > 0, altitude, np.nan)[:, None]
    fire_pos = slice(FIRE_X, FIRE_Y + 1)
    q = prior[:, fire_pos] - prior[:, UAV_X:UAV_Y + 1]
    u = q / pz
    w = 1.0 / (1.0 + u * u)
    look = np.arange(2)
    H = _H_BASE[None].repeat(n, axis=0)
    H[:, look, look + FIRE_X] = w / pz
    H[:, look, look + UAV_X] = -w / pz
    H[:, look, UAV_Z] = -w * q / (pz * pz)

    current = ((H @ P) * H).reshape(n, -1).sum(axis=1)
    a2 = H.diagonal(axis1=1, axis2=2)[:, fire_pos] ** 2
    G = F[:, fire_pos, SPREAD_RATE:]
    GP = G @ P[:, SPREAD_RATE:]  # its fire columns are G P_wf = (P_fw G^T)^T
    c0 = _dots(a2, P.diagonal(axis1=1, axis2=2)[:, fire_pos]) + np.trace(
        P[:, SPREAD_RATE:, SPREAD_RATE:], axis1=1, axis2=2
    )
    c1 = 2.0 * _dots(a2, GP.diagonal(axis1=1, axis2=2)[:, fire_pos])
    c2 = _dots(a2, (GP[:, :, SPREAD_RATE:] * G).sum(axis=2))
    noise = np.trace(R, axis1=1, axis2=2)
    rows = zip(altitude.tolist(), current.tolist(), c0.tolist(), c1.tolist(), c2.tolist(), noise.tolist())
    for track, row in zip(tracks, rows):
        object.__setattr__(track, "_residual", ResidualTerms(*row))


# ---------------------------------------------------------------------------
# filter steps


def predict(
    track: TrackEstimate,
    dt: float,
    params: fire.EllipseParams,
    uav_pose=None,
) -> TrackEstimate:
    """Time update: mean through the transition, P through F P F^T + Q.

    A track that predict returned, predicted again with the same `dt`
    and `params` objects, reuses its F and its displacement (see
    `TrackEstimate`); every other track evaluates the transition.
    """
    motion = track._motion
    if motion is not None and track.prior_mean is track.mean and motion[0] is dt and motion[1] is params:
        F = track.transition_matrix
        mean = track.mean.copy()
        mean[FIRE_X:FIRE_Y + 1] += motion[2]
        if uav_pose is not None:
            mean[UAV_X:UAV_Z + 1] = uav_pose
    else:
        mean, F, displacement = transition(track.mean, dt, params, uav_pose)
        motion = (dt, params, displacement)
    P = propagate_covariance(track.covariance, F, track.process_noise)
    return _filtered(
        mean=mean,
        covariance=P,
        process_noise=track.process_noise,
        observation_noise=track.observation_noise,
        prior_mean=mean,
        prior_covariance=P,
        transition_matrix=F,
        _motion=motion,
    )


def _residual(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """z - h, with the wind-azimuth component wrapped to [-pi, pi)."""
    d = z - h
    d[4] = (d[4] + math.pi) % (2 * math.pi) - math.pi
    return d


def update(track: TrackEstimate, z: np.ndarray, cfg: FilterConfig) -> TrackEstimate:
    """Measurement update, then forgetting-factor adaptation of Q and R.

    Requires predict to have run for this step. With a = alpha_forget,
    y the innovation and P the predicted covariance:
        Q <- a Q + (1-a) (K d)(K d)^T,  d the post-update residual;
        R <- a R + (1-a) (y y^T + H P H^T).
    """
    if track.prior_mean is None or track.transition_matrix is None:
        raise ValueError("update requires a predicted track (call predict first)")
    P = track.covariance
    h, H = _observation(track.mean)
    innovation = _residual(z, h)
    HP = H @ P
    HPHt = HP @ H.T
    K = kalman_gain(HP, symmetrize(HPHt + track.observation_noise))
    mean = track.mean + K @ innovation
    kd = K @ _residual(z, observe(mean))
    a = cfg.alpha_forget
    # v[:, None] * v is np.outer(v, v): numpy forms the outer product by
    # that same broadcast multiply.
    return _filtered(
        mean=mean,
        covariance=floor_psd((_IDENTITY - K @ H) @ P),
        process_noise=symmetrize(a * track.process_noise + (1 - a) * (kd[:, None] * kd)),
        observation_noise=symmetrize(
            a * track.observation_noise + (1 - a) * (innovation[:, None] * innovation + HPHt)
        ),
        prior_mean=track.prior_mean,
        prior_covariance=track.prior_covariance,
        transition_matrix=track.transition_matrix,
        _motion=None,
    )


def step_track(
    track: TrackEstimate,
    z: np.ndarray,
    dt: float,
    cfg: FilterConfig,
    params: fire.EllipseParams,
    uav_pose=None,
) -> TrackEstimate:
    """One observed filter cycle: predict, then update."""
    return update(predict(track, dt, params, uav_pose=uav_pose), z, cfg)
