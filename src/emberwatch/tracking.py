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
`step_track` is one observed cycle of both. The filter is a pure state
machine: every operation takes a TrackEstimate and returns a new one
without touching its input's arrays, so distinct fires can be filtered
concurrently as long as each track is advanced sequentially.

Each operation evaluates each quantity once. `predict` takes the next
mean and the transition Jacobian from one `transition` call, which
evaluates the spread model once (`fire.spread_velocity`); `update` forms
H P once, for the residual covariance and for the gain. These share work
without reordering any float operation, so results are the same bits as
evaluating each quantity on its own (tests/test_hot_path_identity.py
checks them against frozen references).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class TrackEstimate:
    """Per-fire filter state.

    prior_mean / prior_covariance / transition_matrix are the frozen
    quantities of the most recent predict step; multi-step forecasting
    reuses them without re-linearizing along the horizon.
    """

    mean: np.ndarray  # (8,), indexed by FIRE_X ... WIND_AZIMUTH
    covariance: np.ndarray  # P, 8x8
    process_noise: np.ndarray  # Q, 8x8
    observation_noise: np.ndarray  # R_obs, 5x5
    prior_mean: np.ndarray | None = None
    prior_covariance: np.ndarray | None = None
    transition_matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "process_noise", np.asarray(self.process_noise, dtype=float))
        object.__setattr__(self, "observation_noise", np.asarray(self.observation_noise, dtype=float))


# ---------------------------------------------------------------------------
# models


def transition(
    state: np.ndarray,
    dt: float,
    params: fire.EllipseParams,
    uav_pose=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The next state and the 8x8 transition Jacobian at `state`.

    The fire position advances by its spread velocity, with negative rate
    and wind clamped to 0 (`fire.spread_velocity`); the weather is
    constant. `uav_pose`, when given, overwrites the pose components
    (control input); otherwise the pose is carried over unchanged.

    Jacobian fire rows: identity in position plus dt-scaled velocity
    sensitivities to the weather triple. Weather rows: identity. UAV
    rows: zero (the pose is a control input). Velocity and sensitivities
    come from one evaluation of the spread model.
    """
    velocity, sensitivity = fire.spread_velocity(
        state[SPREAD_RATE], state[WIND_SPEED], state[WIND_AZIMUTH], params
    )
    F = _F_BASE.copy()
    F[FIRE_X:FIRE_Y + 1, SPREAD_RATE:] = sensitivity * dt
    out = np.array(state, dtype=float)
    out[FIRE_X:FIRE_Y + 1] += velocity * dt
    if uav_pose is not None:
        out[UAV_X:UAV_Z + 1] = uav_pose
    return out, F


def observe(state: np.ndarray) -> np.ndarray:
    """Project the state to look angles and pass the weather through."""
    pz = state[UAV_Z]
    if pz <= 0:
        raise DomainError("uav_z", f"uav_z must be > 0 to observe, got {pz}")
    return np.array(
        [
            math.atan((state[FIRE_X] - state[UAV_X]) / pz),
            math.atan((state[FIRE_Y] - state[UAV_Y]) / pz),
            state[SPREAD_RATE],
            state[WIND_SPEED],
            state[WIND_AZIMUTH],
        ]
    )


def observation_jacobian(state: np.ndarray) -> np.ndarray:
    """5x8 Jacobian of the observation at the given state."""
    pz = state[UAV_Z]
    if pz <= 0:
        raise DomainError("uav_z", f"uav_z must be > 0 to observe, got {pz}")
    H = _H_BASE.copy()
    for row, (qcol, pcol) in enumerate([(FIRE_X, UAV_X), (FIRE_Y, UAV_Y)]):
        q = state[qcol] - state[pcol]
        u = q / pz
        w = 1.0 / (1.0 + u * u)
        H[row, qcol] = w / pz
        H[row, pcol] = -w / pz
        H[row, UAV_Z] = -w * q / (pz * pz)
    return H


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


def innovation_covariance(P: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    return symmetrize(H @ P @ H.T + R)


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


def multi_step_residual_cov(
    F: np.ndarray, H: np.ndarray, P: np.ndarray, R: np.ndarray, steps: int
) -> np.ndarray:
    """Residual covariance forecast `steps` ahead: H F^(r-1) P (H F^(r-1))^T + R.

    F, H and P are those of the latest predict; there is no
    re-linearization along the horizon.
    """
    if steps < 1 or steps != int(steps):
        raise ValueError(f"steps must be a positive integer, got {steps}")
    M = H @ np.linalg.matrix_power(F, int(steps) - 1)
    return symmetrize(M @ P @ M.T + R)


# ---------------------------------------------------------------------------
# filter steps


def predict(
    track: TrackEstimate,
    dt: float,
    params: fire.EllipseParams,
    uav_pose=None,
) -> TrackEstimate:
    """Time update: mean through the transition, P through F P F^T + Q."""
    mean, F = transition(track.mean, dt, params, uav_pose=uav_pose)
    P = propagate_covariance(track.covariance, F, track.process_noise)
    return TrackEstimate(
        mean=mean,
        covariance=P,
        process_noise=track.process_noise,
        observation_noise=track.observation_noise,
        prior_mean=mean,
        prior_covariance=P,
        transition_matrix=F,
    )


def _residual(z: np.ndarray, state: np.ndarray) -> np.ndarray:
    """z - h(state), with the wind-azimuth component wrapped to [-pi, pi)."""
    d = z - observe(state)
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
    H = observation_jacobian(track.mean)
    innovation = _residual(z, track.mean)
    HP = H @ P
    HPHt = HP @ H.T
    K = kalman_gain(HP, symmetrize(HPHt + track.observation_noise))
    mean = track.mean + K @ innovation
    kd = K @ _residual(z, mean)
    a = cfg.alpha_forget
    # v[:, None] * v is np.outer(v, v): numpy forms the outer product by
    # that same broadcast multiply.
    return TrackEstimate(
        mean=mean,
        covariance=floor_psd((_IDENTITY - K @ H) @ P),
        process_noise=symmetrize(a * track.process_noise + (1 - a) * (kd[:, None] * kd)),
        observation_noise=symmetrize(
            a * track.observation_noise + (1 - a) * (innovation[:, None] * innovation + HPHt)
        ),
        prior_mean=track.prior_mean,
        prior_covariance=track.prior_covariance,
        transition_matrix=track.transition_matrix,
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
