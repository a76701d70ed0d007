"""Adaptive extended Kalman filter over the joint fire/UAV state.

The state vector is fixed as
    [fire_x, fire_y, uav_x, uav_y, uav_z, spread_rate, wind_speed, wind_azimuth]
and every matrix in this module indexes against that ordering. An
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fire
from .errors import DomainError, SingularResidual

STATE_DIM = 8
OBS_DIM = 5

# Column/row indices of the state vector.
FIRE_X, FIRE_Y, UAV_X, UAV_Y, UAV_Z, SPREAD_RATE, WIND_SPEED, WIND_AZIMUTH = range(8)

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class FullState:
    """Joint fire/UAV/weather state."""

    fire_x: float
    fire_y: float
    uav_x: float
    uav_y: float
    uav_z: float
    spread_rate: float
    wind_speed: float
    wind_azimuth: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.fire_x,
                self.fire_y,
                self.uav_x,
                self.uav_y,
                self.uav_z,
                self.spread_rate,
                self.wind_speed,
                self.wind_azimuth,
            ]
        )

    @classmethod
    def from_array(cls, vec) -> "FullState":
        vec = np.asarray(vec, dtype=float)
        return cls(*(float(x) for x in vec))

    @property
    def fire_position(self) -> np.ndarray:
        return np.array([self.fire_x, self.fire_y])

    @property
    def uav_pose(self) -> np.ndarray:
        return np.array([self.uav_x, self.uav_y, self.uav_z])


@dataclass(frozen=True)
class FilterConfig:
    """Knobs of the adaptive filter."""

    alpha_forget: float = 0.97
    residual_source: str = "posterior"  # or "innovation", for the Q update

    def __post_init__(self):
        if not 0.0 <= self.alpha_forget <= 1.0:
            raise DomainError(f"alpha_forget must be in [0, 1], got {self.alpha_forget}")
        if self.residual_source not in ("posterior", "innovation"):
            raise DomainError(f"unknown residual_source {self.residual_source!r}")


@dataclass(frozen=True)
class TrackEstimate:
    """Per-fire filter state.

    prior_mean / prior_covariance / transition_matrix are the frozen
    quantities of the most recent predict step; multi-step forecasting
    reuses them without re-linearizing along the horizon.
    """

    mean: FullState
    covariance: np.ndarray  # P, 8x8
    process_noise: np.ndarray  # Q, 8x8
    observation_noise: np.ndarray  # R_obs, 5x5
    prior_mean: FullState | None = None
    prior_covariance: np.ndarray | None = None
    transition_matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "process_noise", np.asarray(self.process_noise, dtype=float))
        object.__setattr__(self, "observation_noise", np.asarray(self.observation_noise, dtype=float))


# ---------------------------------------------------------------------------
# models


def state_transition(
    state: FullState,
    dt: float,
    params: fire.EllipseParams,
    uav_pose=None,
) -> FullState:
    """Advance the fire position by its spread velocity; weather is constant.

    `uav_pose`, when given, overwrites the pose components (control
    input); otherwise the pose is carried over unchanged.
    """
    vel = fire.front_velocity(
        fire.WindFuelState(
            spread_rate=max(state.spread_rate, 0.0),
            wind_speed=max(state.wind_speed, 0.0),
            wind_azimuth=state.wind_azimuth,
        ),
        params,
    )
    pose = state.uav_pose if uav_pose is None else np.asarray(uav_pose, dtype=float)
    return FullState(
        fire_x=state.fire_x + vel[0] * dt,
        fire_y=state.fire_y + vel[1] * dt,
        uav_x=float(pose[0]),
        uav_y=float(pose[1]),
        uav_z=float(pose[2]),
        spread_rate=state.spread_rate,
        wind_speed=state.wind_speed,
        wind_azimuth=state.wind_azimuth,
    )


def transition_jacobian(state: FullState, dt: float, params: fire.EllipseParams) -> np.ndarray:
    """8x8 Jacobian of the transition with respect to the previous state.

    Fire rows: identity in position plus dt-scaled velocity sensitivities
    to the weather triple. Weather rows: identity. UAV rows: zero (the
    pose is a control input).
    """
    F = np.zeros((STATE_DIM, STATE_DIM))
    F[FIRE_X, FIRE_X] = 1.0
    F[FIRE_Y, FIRE_Y] = 1.0
    F[FIRE_X:FIRE_Y + 1, SPREAD_RATE:] = (
        fire.front_velocity_jacobian(state.spread_rate, state.wind_speed, state.wind_azimuth, params) * dt
    )
    F[SPREAD_RATE, SPREAD_RATE] = 1.0
    F[WIND_SPEED, WIND_SPEED] = 1.0
    F[WIND_AZIMUTH, WIND_AZIMUTH] = 1.0
    return F


def observe(state: FullState) -> np.ndarray:
    """Project the state to look angles and pass the weather through."""
    if state.uav_z <= 0:
        raise DomainError(f"uav_z must be > 0 to observe, got {state.uav_z}")
    return np.array(
        [
            math.atan((state.fire_x - state.uav_x) / state.uav_z),
            math.atan((state.fire_y - state.uav_y) / state.uav_z),
            state.spread_rate,
            state.wind_speed,
            state.wind_azimuth,
        ]
    )


def observation_jacobian(state: FullState) -> np.ndarray:
    """5x8 Jacobian of the observation at the given state."""
    if state.uav_z <= 0:
        raise DomainError(f"uav_z must be > 0 to observe, got {state.uav_z}")
    H = np.zeros((OBS_DIM, STATE_DIM))
    pz = state.uav_z
    for row, (q, pcol, qcol) in enumerate(
        [(state.fire_x - state.uav_x, UAV_X, FIRE_X), (state.fire_y - state.uav_y, UAV_Y, FIRE_Y)]
    ):
        u = q / pz
        w = 1.0 / (1.0 + u * u)
        H[row, qcol] = w / pz
        H[row, pcol] = -w / pz
        H[row, UAV_Z] = -w * q / (pz * pz)
    H[2, SPREAD_RATE] = 1.0
    H[3, WIND_SPEED] = 1.0
    H[4, WIND_AZIMUTH] = 1.0
    return H


# ---------------------------------------------------------------------------
# covariance helpers (also usable on scalar 1x1 systems in tests)


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0


def floor_psd(matrix: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero; keeps covariances positive semidefinite."""
    sym = symmetrize(matrix)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() >= 0.0:
        return sym
    vals = np.maximum(vals, 0.0)
    return symmetrize((vecs * vals) @ vecs.T)


def propagate_covariance(P: np.ndarray, F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    return symmetrize(F @ P @ F.T + Q)


def innovation_covariance(P: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    return symmetrize(H @ P @ H.T + R)


def kalman_gain(P: np.ndarray, H: np.ndarray, S: np.ndarray) -> np.ndarray:
    if np.linalg.cond(S) > _COND_LIMIT:
        raise SingularResidual(f"residual covariance condition number exceeds {_COND_LIMIT:g}")
    return np.linalg.solve(S, H @ P).T


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
    F = transition_jacobian(track.mean, dt, params)
    mean = state_transition(track.mean, dt, params, uav_pose=uav_pose)
    P = propagate_covariance(track.covariance, F, track.process_noise)
    return replace(
        track,
        mean=mean,
        covariance=P,
        prior_mean=mean,
        prior_covariance=P,
        transition_matrix=F,
    )


def _residual(z: np.ndarray, state: FullState) -> np.ndarray:
    """z - h(state), with the wind-azimuth component wrapped to [-pi, pi)."""
    d = z - observe(state)
    d[4] = (d[4] + math.pi) % (2 * math.pi) - math.pi
    return d


def update(track: TrackEstimate, z: np.ndarray, cfg: FilterConfig) -> TrackEstimate:
    """Measurement update, then forgetting-factor adaptation of Q and R.

    Requires predict to have run for this step. With a = alpha_forget,
    y the innovation and P the predicted covariance:
        Q <- a Q + (1-a) (K d)(K d)^T,  d the residual_source residual;
        R <- a R + (1-a) (y y^T + H P H^T).
    """
    if track.prior_mean is None or track.transition_matrix is None:
        raise ValueError("update requires a predicted track (call predict first)")
    P = track.covariance
    H = observation_jacobian(track.mean)
    innovation = _residual(z, track.mean)
    K = kalman_gain(P, H, innovation_covariance(P, H, track.observation_noise))
    mean = FullState.from_array(track.mean.as_array() + K @ innovation)
    residual = _residual(z, mean) if cfg.residual_source == "posterior" else innovation
    kd = K @ residual
    a = cfg.alpha_forget
    return replace(
        track,
        mean=mean,
        covariance=floor_psd((np.eye(STATE_DIM) - K @ H) @ P),
        process_noise=symmetrize(a * track.process_noise + (1 - a) * np.outer(kd, kd)),
        observation_noise=symmetrize(
            a * track.observation_noise
            + (1 - a) * (np.outer(innovation, innovation) + H @ P @ H.T)
        ),
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
