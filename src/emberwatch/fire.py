"""Simplified elliptical wildfire growth model.

Discrete firefront points advance with a planar velocity set by the
fuel-driven spread rate, the wind speed, and the wind azimuth through the
length-to-breadth ellipse relation. Three scenario cases are supported:
1 near-stationary fronts, 2 moving fronts, and 3 moving fronts that also
spawn children at a fixed step interval.

All randomness comes from keyed counter-based draws: each motion and
spawn value is a pure function of (seed, purpose, step, front id, index),
drawn for all fronts as one array, so a map evolves identically no matter
how many other fronts exist or in which order they are visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError

# Tolerance for the length-to-breadth ratio dipping below 1 through
# floating-point noise at zero wind.
LB_TOLERANCE = 1e-9

# Below this value of LB^2 - 1 the wind sensitivity of the spread speed is
# treated as flat; the true derivative diverges at the windless boundary.
_GB_FLOOR = 1e-12

# Wind speeds at which `EllipseParams.validate_range` evaluates LB.
RANGE_SAMPLES = 257

# Bound on the uniform spawn draw; generous for the usual up-to-3 setting.
MAX_SPAWN_RATE = 7

# Child ids are lineage_root << 32 | index, so roots must stay below 2^32.
_LINEAGE_SHIFT = 32

# The mask of one 32-bit word.
_MASK32 = 0xFFFFFFFF

# SplitMix64's stream increment and finaliser multipliers (Steele, Lea &
# Flood, OOPSLA 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

# Purposes of the fire step's keyed draws; harness.py keys purposes 1-5.
_S_MOTION = 6
_S_SPAWN = 7


@dataclass(frozen=True)
class EllipseParams:
    """Constants of the length-to-breadth model a*e^(b*U) + c*e^(-d*U) + l.

    Defaults are the standard FARSITE-literature constants and satisfy
    LB(0) = 1 exactly, which pins the spread speed to zero in still air.
    """

    a: float = 0.936
    b: float = 0.2566
    c: float = 0.461
    d: float = 0.1548
    l: float = -0.397

    def length_to_breadth(self, wind_speed: float) -> float:
        return self.length_to_breadth_and_slope(wind_speed)[0]

    def length_to_breadth_and_slope(self, wind_speed: float) -> tuple[float, float]:
        """LB(U) and dLB/dU, which share the two exponentials."""
        grow = math.exp(self.b * wind_speed)
        decay = math.exp(-self.d * wind_speed)
        return self.a * grow + self.c * decay + self.l, self.a * self.b * grow - self.c * self.d * decay

    def validate_range(self, max_wind_speed: float) -> None:
        """Raise DomainError unless 1 <= LB and (2 LB)^2 is finite on RANGE_SAMPLES winds in [0, max_wind_speed].

        The spread model and its Jacobian square LB + sqrt(LB^2 - 1).
        """
        for u in np.linspace(0.0, max(max_wind_speed, 0.0), RANGE_SAMPLES):
            try:
                lb = self.length_to_breadth(float(u))
            except OverflowError:
                lb = math.inf
            if not 1.0 - LB_TOLERANCE <= lb < math.inf or 4.0 * lb * lb == math.inf:
                raise DomainError(
                    "ellipse", f"length-to-breadth ratio {lb!r} out of range at wind speed {float(u)!r}"
                )


DEFAULT_ELLIPSE = EllipseParams()


@dataclass(frozen=True)
class WindFuelState:
    """Wind and fuel drivers of the spread velocity.

    spread_rate is the fuel/vegetation base speed in m/s, wind_speed in
    m/s, wind_azimuth in radians measured clockwise from +y (north).
    """

    spread_rate: float
    wind_speed: float
    wind_azimuth: float

    def __post_init__(self):
        if self.spread_rate < 0:
            raise DomainError("spread_rate", f"spread_rate must be >= 0, got {self.spread_rate}")
        if self.wind_speed < 0:
            raise DomainError("wind_speed", f"wind_speed must be >= 0, got {self.wind_speed}")
        tau = 2 * math.pi
        object.__setattr__(self, "wind_azimuth", self.wind_azimuth % tau)


@dataclass(slots=True)
class FireFront:
    """One discretized firefront point.

    The constructor stores the arrays it is given; the fire step passes
    float64 arrays. The fire step never writes a front's fields or arrays
    after building it, and callers must not either.
    """

    id: int
    position: np.ndarray  # (2,) meters
    velocity: np.ndarray  # (2,) m/s
    lineage: int = 0  # id of the initial ancestor, used for spawn caps


@dataclass(frozen=True)
class FireMap:
    """Ground-truth fire state for one scenario run."""

    fronts: tuple[FireFront, ...]
    wind_fuel: WindFuelState
    case: int
    spawn_rate_max: int = 0
    spawn_interval: int = 10
    rng_seed: int = 0
    params: EllipseParams = DEFAULT_ELLIPSE
    noise_std: float = 0.0
    max_per_lineage: int = 0  # 0 disables the cap
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fronts", tuple(self.fronts))
        if self.case not in (1, 2, 3):
            raise DomainError("case", f"case must be 1, 2 or 3, got {self.case}")
        if self.case == 3 and self.spawn_rate_max < 1:
            raise DomainError("spawn_rate_max", "case 3 requires spawn_rate_max >= 1")
        if not 0 <= self.spawn_rate_max <= MAX_SPAWN_RATE:
            raise DomainError("spawn_rate_max", f"spawn_rate_max must be in [0, {MAX_SPAWN_RATE}]")
        if self.spawn_interval < 1:
            raise DomainError("spawn_interval", "spawn_interval must be >= 1")
        ids = [f.id for f in self.fronts]
        if len(ids) != len(set(ids)):
            raise DomainError("fronts", "front ids must be unique")
        if self.case == 1:
            speed = spread_coefficient(
                self.wind_fuel.spread_rate, self.wind_fuel.wind_speed, self.params
            )
            if speed > 0:
                raise DomainError("speed", f"case 1 requires zero fire speed, got {speed!r}")

    def with_fronts(self, positions: Sequence, ids: Sequence[int]) -> FireMap:
        """This map with fronts at rest velocity; each id roots a spawn lineage."""
        for i in ids:
            if not 0 < int(i) < (1 << _LINEAGE_SHIFT):
                raise DomainError("ids", f"initial front ids must be in (0, 2^{_LINEAGE_SHIFT}), got {i}")
        velocity = front_velocity(self.wind_fuel, self.params)
        fronts = [
            FireFront(id=int(i), position=np.asarray(p, dtype=float), velocity=velocity, lineage=int(i))
            for i, p in zip(ids, positions)
        ]
        return replace(self, fronts=tuple(fronts))


def _ellipse(wind_speed: float, params: EllipseParams) -> tuple[float, float, float, float]:
    """(LB, dLB/dU, LB^2 - 1, sqrt(LB^2 - 1)) at the wind U clamped to >= 0.

    LB^2 - 1 is floored at zero; LB below 1 (beyond tolerance) raises
    DomainError because the square root leaves the real line.
    """
    u = max(wind_speed, 0.0)
    lb, slope = params.length_to_breadth_and_slope(u)
    if lb < 1.0 - LB_TOLERANCE:
        raise DomainError("ellipse", f"length-to-breadth ratio {lb!r} < 1 at wind speed {u!r}")
    gb = max(lb * lb - 1.0, 0.0)
    return lb, slope, gb, math.sqrt(gb)


def spread_coefficient(rate: float, wind_speed: float, params: EllipseParams) -> float:
    """Spread speed C = R * (1 - LB / (LB + sqrt(LB^2 - 1))) in m/s.

    Negative inputs are clamped to zero; LB below 1 (beyond tolerance)
    raises DomainError because the square root leaves the real line.
    """
    rate = max(rate, 0.0)
    lb, _, _, sq = _ellipse(wind_speed, params)
    return rate * (1.0 - lb / (lb + sq))


def calibrate_spread_rate(speed: float, wind_speed: float, params: EllipseParams) -> float:
    """Spread rate R such that the spread speed equals `speed` at this wind."""
    if speed < 0:
        raise DomainError("speed", f"target speed must be >= 0, got {speed}")
    if wind_speed < 0:
        raise DomainError("wind_speed", f"wind_speed must be >= 0, got {wind_speed}")
    if speed == 0:
        return 0.0
    factor = spread_coefficient(1.0, wind_speed, params)
    if factor <= 0:
        raise DomainError(
            "speed",
            f"wind speed {wind_speed!r} gives zero spread; cannot reach speed {speed!r}"
        )
    return speed / factor


def front_velocity(wind_fuel: WindFuelState, params: EllipseParams) -> np.ndarray:
    """Planar spread velocity (C*sin(azimuth), C*cos(azimuth))."""
    c = spread_coefficient(wind_fuel.spread_rate, wind_fuel.wind_speed, params)
    return np.array(
        [c * math.sin(wind_fuel.wind_azimuth), c * math.cos(wind_fuel.wind_azimuth)]
    )


def spread_velocity(
    rate: float, wind_speed: float, azimuth: float, params: EllipseParams
) -> tuple[np.ndarray, np.ndarray]:
    """Spread velocity (2,) and its 2x3 sensitivity to (spread_rate, wind_speed, azimuth).

    Both come from one evaluation of the length-to-breadth model, with
    negative rate and wind clamped to zero. The velocity is
    `front_velocity` of the clamped weather: it takes the azimuth wrapped
    to [0, 2 pi) as `WindFuelState` wraps it. The Jacobian takes the raw
    azimuth; sin and cos of the two differ in the last bit.

    Jacobian columns where the input is clamped (negative rate or wind)
    are zero, matching the clamped forward model. The wind column uses
    the chain rule through sqrt(LB^2 - 1) and is treated as flat at the
    windless boundary where the analytic slope diverges, and where its
    denominator overflows a float.
    """
    r = max(rate, 0.0)
    lb, lb_prime, gb, sq = _ellipse(wind_speed, params)
    factor = 1.0 - lb / (lb + sq)
    c = r * factor

    dc_dr = 0.0 if rate < 0 else factor
    if wind_speed < 0 or gb <= _GB_FLOOR or r == 0.0:
        dc_du = 0.0
    else:
        try:
            dc_du = r * lb_prime / (sq * (lb + sq) ** 2)
        except OverflowError:
            # (LB + sqrt(LB^2 - 1))^2 passes the float range near LB = 7e153,
            # where the true slope is subnormal.
            dc_du = 0.0

    s, co = math.sin(azimuth), math.cos(azimuth)
    jacobian = np.array(
        [
            [dc_dr * s, dc_du * s, c * co],
            [dc_dr * co, dc_du * co, -c * s],
        ]
    )
    wrapped = azimuth % (2 * math.pi)
    return np.array([c * math.sin(wrapped), c * math.cos(wrapped)]), jacobian


def spawn_fronts(
    front: FireFront,
    spawn_rate_max: int,
    dt: float,
    velocity: np.ndarray,
    draws: np.ndarray,
    id_base: int,
) -> list[FireFront]:
    """Place 0..spawn_rate_max children inside the parent's per-step growth box.

    `draws` holds at least 1 + 2 * spawn_rate_max uniforms in [0, 1): the
    first sets the count, and each child k takes its x and y offsets from
    draws 1 + 2k and 2 + 2k. Children carry `velocity`, the step's spread
    velocity. Child ids count up from `id_base`, which the caller places in
    the lineage's id space (lineage << 32 on), so ids stay unique per
    lineage without global state.
    """
    count = int(draws[0] * (spawn_rate_max + 1))
    offsets = (2.0 * draws[1 : 1 + 2 * count].reshape(count, 2) - 1.0) * (np.abs(front.velocity) * dt)
    return [
        FireFront(id=id_base + k, position=front.position + offset, velocity=velocity, lineage=front.lineage)
        for k, offset in enumerate(offsets)
    ]


def simulate_step(fire_map: FireMap, dt: float) -> FireMap:
    """Advance every front one step; apply case-3 spawning on its interval.

    Each front moves by one Euler step q + v*dt plus, when `noise_std` is
    positive, `noise_std` times two keyed normals; it then carries the
    step's spread velocity.
    """
    if dt <= 0:
        raise DomainError("dt", f"dt must be > 0, got {dt}")
    step = fire_map.step
    velocity = front_velocity(fire_map.wind_fuel, fire_map.params)
    ids = [f.id for f in fire_map.fronts]
    positions = np.array([f.position for f in fire_map.fronts]).reshape(-1, 2)
    positions += np.array([f.velocity for f in fire_map.fronts]).reshape(-1, 2) * dt
    if fire_map.noise_std > 0:
        positions += fire_map.noise_std * keyed_normal(fire_map.rng_seed, (_S_MOTION, step), ids, 2)
    fronts = [
        FireFront(id=f.id, position=position, velocity=velocity, lineage=f.lineage)
        for f, position in zip(fire_map.fronts, positions)
    ]

    new_step = step + 1
    if fire_map.case == 3 and new_step % fire_map.spawn_interval == 0:
        lineage_counts: dict[int, int] = {}
        next_index: dict[int, int] = {}
        for f in fronts:
            lineage_counts[f.lineage] = lineage_counts.get(f.lineage, 0) + 1
            if f.id >> _LINEAGE_SHIFT == f.lineage:
                idx = (f.id & ((1 << _LINEAGE_SHIFT) - 1)) + 1
                next_index[f.lineage] = max(next_index.get(f.lineage, 0), idx)
        children: list[FireFront] = []
        spawns = keyed_uniform(fire_map.rng_seed, (_S_SPAWN, step), ids, 1 + 2 * fire_map.spawn_rate_max)
        for front, draws in zip(fronts, spawns):
            if fire_map.max_per_lineage and lineage_counts[front.lineage] >= fire_map.max_per_lineage:
                continue
            base = (front.lineage << _LINEAGE_SHIFT) + next_index.get(front.lineage, 0)
            kids = spawn_fronts(front, fire_map.spawn_rate_max, dt, velocity, draws, id_base=base)
            if fire_map.max_per_lineage:
                room = fire_map.max_per_lineage - lineage_counts[front.lineage]
                kids = kids[: max(room, 0)]
            lineage_counts[front.lineage] = lineage_counts.get(front.lineage, 0) + len(kids)
            next_index[front.lineage] = next_index.get(front.lineage, 0) + len(kids)
            children.extend(kids)
        fronts.extend(children)

    return replace(fire_map, fronts=fronts, step=new_step)


def substream_key(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence keyed by arbitrary non-negative ints (split to 32 bits).

    Each key part k becomes the two words (k >> 32, k & 0xFFFFFFFF) of
    `SeedSequence(entropy=seed, spawn_key=words)`.
    """
    words: list[int] = []
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"substream key parts must be >= 0, got {k}")
        words.append(k >> 32)
        words.append(k & _MASK32)
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(words))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser: a bijection of uint64 arrays, in wrapping arithmetic."""
    z = z ^ (z >> 30)
    z *= _MIX_1
    z ^= z >> 27
    z *= _MIX_2
    z ^= z >> 31
    return z


def keyed_uniform(seed: int, prefix: Sequence[int], ids: Sequence[int], k: int) -> np.ndarray:
    """(len(ids), k) uniforms in [0, 1); entry (i, j) is a pure function of (seed, prefix, ids[i], j).

    The key (k0, k1) is the first 128 bits of `substream_key(seed,
    *prefix)`. Each id starts a SplitMix64 stream at mix(id ^ k0) + k1,
    and value j is that stream's output j + 1, its top 53 bits scaled to
    [0, 1). So an id's values do not depend on the rest of its batch, on
    its place in the batch or on k. The prefix starts with the draw's
    purpose; its parts and the ids must lie in [0, 2**64). All
    arithmetic is on uint64 arrays, which wrap without a warning.
    """
    if not prefix or any(int(p) >> 64 for p in prefix):
        raise ValueError(f"a keyed draw needs a purpose and prefix parts in [0, 2**64), got {tuple(prefix)}")
    ids = np.asarray(ids, dtype=np.uint64).reshape(-1, 1)
    if not len(ids):
        return np.empty((0, k))
    key = substream_key(seed, *prefix).generate_state(2, np.uint64)
    start = _mix64(ids ^ key[:1]) + key[1:]
    counter = np.arange(1, k + 1, dtype=np.uint64) * _GAMMA
    return (_mix64(start + counter) >> 11) * 2.0**-53


def keyed_normal(seed: int, prefix: Sequence[int], ids: Sequence[int], k: int) -> np.ndarray:
    """(len(ids), k) standard normals, each a pure function of (seed, prefix, id, j).

    Box-Muller: normals 2m and 2m + 1 of an id are r cos(theta) and
    r sin(theta), with r = sqrt(-2 log(1 - u)) and theta = 2 pi u' from
    its uniforms 2m and 2m + 1 of `keyed_uniform`; r e^(i theta) holds
    the pair as one complex value.
    """
    if not len(ids):
        return np.empty((0, k))
    u = keyed_uniform(seed, prefix, ids, 2 * -(-k // 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    return (radius * np.exp(2j * math.pi * u[:, 1::2])).view(np.float64)[:, :k]
