"""Closed-form traverse-time bounds and the uncertainty-ratio safety test.

Three bounds, one per fire scenario: stationary fronts need only the
doubled-MST tour time; moving fronts stretch the tour edges at the
confidence-bounded worst-case fire speed; spreading fronts additionally
force a scan of the area each front may engulf, which turns the bound
into the smaller positive root of a quadratic self-consistency equation.

Infeasibility is a value, not an exception: callers branch on it to
trigger UAV recruitment. The uncertainty ratio divides two closed-form
residual traces (`tracking.residual_trace`), each plus tr R. Both the
worst-case speed and the ratio read per-track terms that
`tracking.certificate_terms` computes for many tracks in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable

from . import tracking
from .errors import DomainError
from .fire import EllipseParams

# Slack when comparing an uncertainty ratio against 1.
RATIO_PASS_TOL = 1e-12


@dataclass(frozen=True)
class FleetParams:
    """Homogeneous UAV parameters relevant to the bounds."""

    speed: float  # m/s
    altitude: float  # m
    half_angle: float  # camera half-angle, rad

    def __post_init__(self):
        if self.speed <= 0:
            raise DomainError("speed", f"speed must be > 0, got {self.speed}")
        if self.altitude <= 0:
            raise DomainError("altitude", f"altitude must be > 0, got {self.altitude}")
        if not 0 < self.half_angle < math.pi / 2:
            raise DomainError("half_angle", f"half_angle must be in (0, pi/2), got {self.half_angle}")
        if not 0 < fov_width(self) / 2.0 < math.inf:  # the half is the gradient kernel bandwidth
            raise DomainError("altitude", f"altitude {self.altitude!r} gives footprint {fov_width(self)!r}")


@dataclass(frozen=True)
class BoundInputs:
    """Scalars feeding the traverse-time bounds."""

    mst_length: float  # total MST edge length, m
    fire_count: int
    worst_speed: float  # confidence-bounded fastest fire speed, m/s
    fov_width: float  # ground footprint side, m

    def __post_init__(self):
        if self.mst_length < 0:
            raise DomainError("mst_length", f"mst_length must be >= 0, got {self.mst_length}")
        if self.fire_count < 1:
            raise DomainError("fire_count", f"fire_count must be >= 1, got {self.fire_count}")
        if self.worst_speed < 0:
            raise DomainError("worst_speed", f"worst_speed must be >= 0, got {self.worst_speed}")


@dataclass(frozen=True)
class TraverseBound:
    """A traverse-time upper bound with its case tag and diagnostics.

    gamma/beta/delta are the coefficients of the spreading-case quadratic
    gamma*T^2 - beta*T + delta = 0 (None for the other cases). When
    infeasible, seconds is +inf.
    """

    seconds: float
    case: int
    feasible: bool = True
    gamma: float | None = None
    beta: float | None = None
    delta: float | None = None


def _infeasible(case: int, gamma=None, beta=None, delta=None) -> TraverseBound:
    return TraverseBound(
        seconds=math.inf, case=case, feasible=False, gamma=gamma, beta=beta, delta=delta
    )


def fov_width(fleet: FleetParams) -> float:
    """Side length of the ground footprint: 2 * altitude * tan(half_angle)."""
    return 2.0 * fleet.altitude * math.tan(fleet.half_angle)


@functools.lru_cache(maxsize=16)
def _upper_quantile(alpha: float) -> float:
    """The standard normal quantile z with P(Z > z) = alpha.

    Wichura's AS241 algorithm (Applied Statistics 37(3), 1988), through
    `statistics.NormalDist.inv_cdf`. An alpha whose 1 - alpha is not
    inside (0, 1), NaN included, has no finite quantile and is refused.
    """
    p = 1.0 - alpha
    if not 0.0 < p < 1.0:
        raise DomainError("confidence_level", f"confidence_level must be in (2**-54, 1), got {alpha!r}")
    return NormalDist().inv_cdf(p)


def worst_case_speed(
    tracks: Iterable[tracking.TrackEstimate],
    confidence_level: float,
    params: EllipseParams,
) -> float:
    """Upper confidence bound on the fastest fire speed across tracks.

    Each per-axis speed is bounded by |mean| + z * std, with the std
    taken from the weather block of P pushed through the velocity
    sensitivity (`tracking.SpeedTerms`). The two axes are maximized over
    fires independently, so the result can combine the x-bound of one fire
    with the y-bound of another. The fold starts at 0.0 and skips a NaN
    bound.
    """
    z = _upper_quantile(confidence_level)
    x_bound = 0.0
    y_bound = 0.0
    for terms in tracking.speed_terms(list(tracks), params):
        x_bound = max(x_bound, terms.speed_x + z * terms.std_x)
        y_bound = max(y_bound, terms.speed_y + z * terms.std_y)
    return math.hypot(x_bound, y_bound)


def bound_stationary(inputs: BoundInputs, fleet: FleetParams) -> TraverseBound:
    """Case 1: twice the MST length at UAV speed. Always feasible."""
    return TraverseBound(seconds=2.0 * inputs.mst_length / fleet.speed, case=1)


def bound_moving(inputs: BoundInputs, fleet: FleetParams) -> TraverseBound:
    """Case 2: MST / (v/2 - 2 * worst_speed * (count - 1)).

    Infeasible when the tour edges stretch faster than the UAV halves the
    distance, i.e. the denominator is not positive.
    """
    denom = fleet.speed / 2.0 - 2.0 * inputs.worst_speed * (inputs.fire_count - 1)
    if denom <= 0:
        return _infeasible(2)
    return TraverseBound(seconds=inputs.mst_length / denom, case=2)


def bound_spreading(inputs: BoundInputs, fleet: FleetParams) -> TraverseBound:
    """Case 3: smaller positive root of gamma*T^2 - beta*T + delta = 0.

    T must satisfy T = delta + a*T*(b*T + 1) with a = 2*count*speed/v and
    b = 2*speed/g: the moving-case time plus the scan of every front's
    growth box. gamma = a*b and beta = 1 - a; the bound fails when the
    fleet cannot outrun the growth (a >= 1 or negative discriminant).
    """
    if inputs.fov_width <= 0:
        raise DomainError("fov_width", f"fov_width must be > 0, got {inputs.fov_width}")
    moving = bound_moving(inputs, fleet)
    if not moving.feasible:
        return _infeasible(3)
    delta = moving.seconds
    a = 2.0 * inputs.fire_count * inputs.worst_speed / fleet.speed
    b = 2.0 * inputs.worst_speed / inputs.fov_width
    gamma = a * b
    beta = 1.0 - a
    if beta <= 0:
        return _infeasible(3, gamma=gamma, beta=beta, delta=delta)
    disc = beta * beta - 4.0 * gamma * delta
    if disc < 0:
        return _infeasible(3, gamma=gamma, beta=beta, delta=delta)
    # Smaller positive root in the cancellation-free form; reduces to the
    # linear solution delta/beta as gamma -> 0.
    seconds = 2.0 * delta / (beta + math.sqrt(disc))
    return TraverseBound(seconds=seconds, case=3, gamma=gamma, beta=beta, delta=delta)


def traverse_bound(case: int, inputs: BoundInputs, fleet: FleetParams) -> TraverseBound:
    """Dispatch on the scenario case."""
    if case == 1:
        return bound_stationary(inputs, fleet)
    if case == 2:
        return bound_moving(inputs, fleet)
    if case == 3:
        return bound_spreading(inputs, fleet)
    raise DomainError("case", f"case must be 1, 2 or 3, got {case}")


def joint_confidence(fire_count: int, confidence_level: float) -> tuple[float, float]:
    """((1-alpha)^n, 1 - (1-alpha)^n): joint confidence and its complement."""
    if fire_count < 0:
        raise DomainError("fire_count", f"fire_count must be >= 0, got {fire_count}")
    joint = (1.0 - confidence_level) ** fire_count
    return joint, 1.0 - joint


def uncertainty_ratio(
    track: tracking.TrackEstimate,
    horizon_seconds: float,
    dt: float,
) -> float:
    """Trace of the forecast residual covariance over the horizon divided by
    the trace of the current one.

    The horizon is converted to steps with ceil (conservative) and floored
    at one step. A value <= 1 certifies that the track will not have
    degraded by the time the tour returns; +inf signals an infeasible
    horizon, or one of more steps than a float counts. What that certifies, exactly:
    - a horizon of at most dt is one step, whose forecast is the current
      residual H P H^T + R itself, so the ratio is exactly 1.0;
    - for r >= 2 steps the forecast is H F^(r-1) P (H F^(r-1))^T + R. The
      UAV-pose columns of F are zero, so the forecast ignores the pose
      block of P, which the current residual includes; a ratio below 1
      can come from that block alone.
    A current trace that is not positive and finite (NaN included) gives
    +inf, so a track whose covariance has broken down never passes.
    """
    if not math.isfinite(horizon_seconds / dt):
        return math.inf
    if track.prior_mean is None:
        raise ValueError("uncertainty_ratio requires a predicted track")
    steps = max(1, math.ceil(horizon_seconds / dt))
    noise = tracking.residual_terms(track).noise
    den = tracking.residual_trace(track, 1) + noise
    if not 0.0 < den < math.inf:
        return math.inf
    if steps == 1:
        return 1.0
    return (tracking.residual_trace(track, steps) + noise) / den
