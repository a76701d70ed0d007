"""Gradient-descent coverage baseline.

Each UAV climbs the Gaussian kernel density of the fire points while a
potential field keeps neighbors apart. The attraction step has a fixed
length along the gradient direction, the combined step is capped at the
vehicle's speed, and altitude is clamped to a band. This is a simplified
stand-in for pixel-density coverage controllers; comparisons against it
are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coordination import UavAgent
from .errors import DomainError
from .geometry import GOLDEN_ANGLE

_ZERO_GRAD = 1e-12


@dataclass(frozen=True)
class GradientConfig:
    step_size: float  # attraction step length, m per step
    separation_weight: float
    separation_radius: float  # m; the footprint width unless configured
    altitude_min: float
    altitude_max: float
    kernel_bandwidth: float  # m; half the footprint width

    def __post_init__(self):
        for name in ("step_size", "separation_radius", "kernel_bandwidth"):
            if not getattr(self, name) > 0:
                raise DomainError(name, f"{name} must be > 0, got {getattr(self, name)}")
        if not self.separation_weight >= 0:
            raise DomainError("separation_weight", "separation_weight must be >= 0")
        if self.altitude_min <= 0 or self.altitude_max < self.altitude_min:
            raise DomainError("altitude_min", "altitude band must satisfy 0 < min <= max")


def gradient_coverage_step(
    agents: list[UavAgent], fire_positions: np.ndarray, cfg: GradientConfig, dt: float
) -> None:
    """Move every agent one gradient step (agents updated in place).

    All agents read the same snapshot of poses; the repulsion between two
    exactly coincident agents is broken deterministically by agent id.
    """
    fire_positions = np.asarray(fire_positions, dtype=float).reshape(-1, 2)
    agents = sorted(agents, key=lambda a: a.id)
    snapshot = {a.id: a.pose[:2].copy() for a in agents}

    for agent in agents:
        p = snapshot[agent.id]
        step = cfg.step_size * _attraction_direction(p, fire_positions, cfg.kernel_bandwidth)
        step = step - cfg.separation_weight * _repulsion(agent, p, snapshot, cfg)

        cap = agent.speed * dt
        norm = float(np.linalg.norm(step))
        if norm > cap:
            step *= cap / norm
        agent.pose[:2] += step
        agent.pose[2] = min(max(agent.pose[2], cfg.altitude_min), cfg.altitude_max)


def _attraction_direction(p: np.ndarray, fires: np.ndarray, bandwidth: float) -> np.ndarray:
    if len(fires) == 0:
        return np.zeros(2)
    diff = fires - p
    d2 = np.sum(diff * diff, axis=1)
    weights = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    grad = (diff * weights[:, None]).sum(axis=0) / (bandwidth * bandwidth)
    norm = float(np.linalg.norm(grad))
    if norm < _ZERO_GRAD:
        return np.zeros(2)
    return grad / norm


def _repulsion(
    agent: UavAgent, p: np.ndarray, snapshot: dict[int, np.ndarray], cfg: GradientConfig
) -> np.ndarray:
    force = np.zeros(2)
    for other_id, q in snapshot.items():
        if other_id == agent.id:
            continue
        delta = p - q
        dist = float(np.linalg.norm(delta))
        if dist >= cfg.separation_radius:
            continue
        if dist < 1e-9:
            angle = GOLDEN_ANGLE * agent.id
            direction = np.array([math.cos(angle), math.sin(angle)])
        else:
            direction = delta / dist
        force += direction * (cfg.separation_radius - dist) / cfg.separation_radius
    # Repulsion pushes away, so it enters the step with a positive sign.
    return -force
