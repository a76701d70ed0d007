"""Simplified elliptical wildfire growth model.

Discrete firefront points advance with a planar velocity set by the
fuel-driven spread rate, the wind speed, and the wind azimuth through the
length-to-breadth ellipse relation. Three scenario cases are supported:
1 near-stationary fronts, 2 moving fronts, and 3 moving fronts that also
spawn children at a fixed step interval.

All randomness is drawn from per-front substreams keyed by
(seed, step, front id), so a map evolves identically no matter how many
other fronts exist or in which order they are visited.
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

# Bound on the uniform spawn draw; generous for the usual up-to-3 setting.
MAX_SPAWN_RATE = 7

# Child ids are lineage_root << 32 | index, so roots must stay below 2^32.
_LINEAGE_SHIFT = 32

# Words of a numpy SeedSequence entropy pool, and the mask of one word.
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


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
        return (
            self.a * math.exp(self.b * wind_speed)
            + self.c * math.exp(-self.d * wind_speed)
            + self.l
        )

    def validate_range(self, max_wind_speed: float, samples: int = 257) -> None:
        """Raise DomainError if LB < 1 anywhere on [0, max_wind_speed]."""
        for u in np.linspace(0.0, max(max_wind_speed, 0.0), samples):
            lb = self.length_to_breadth(float(u))
            if not math.isfinite(lb) or lb < 1.0 - LB_TOLERANCE:
                raise DomainError(
                    f"length-to-breadth ratio {lb!r} < 1 at wind speed {float(u)!r}"
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
            raise DomainError(f"spread_rate must be >= 0, got {self.spread_rate}")
        if self.wind_speed < 0:
            raise DomainError(f"wind_speed must be >= 0, got {self.wind_speed}")
        tau = 2 * math.pi
        object.__setattr__(self, "wind_azimuth", self.wind_azimuth % tau)


@dataclass(frozen=True)
class FireFront:
    """One discretized firefront point."""

    id: int
    position: np.ndarray  # (2,) meters
    velocity: np.ndarray  # (2,) m/s
    lineage: int = 0  # id of the initial ancestor, used for spawn caps

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))


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
            raise DomainError(f"case must be 1, 2 or 3, got {self.case}")
        if self.case == 3 and self.spawn_rate_max < 1:
            raise DomainError("case 3 requires spawn_rate_max >= 1")
        if self.spawn_rate_max > MAX_SPAWN_RATE:
            raise DomainError(f"spawn_rate_max must be <= {MAX_SPAWN_RATE}")
        if self.spawn_interval < 1:
            raise DomainError("spawn_interval must be >= 1")
        ids = [f.id for f in self.fronts]
        if len(ids) != len(set(ids)):
            raise DomainError("front ids must be unique")
        if self.case == 1:
            speed = spread_coefficient(
                self.wind_fuel.spread_rate, self.wind_fuel.wind_speed, self.params
            )
            if speed > 1e-9:
                raise DomainError(f"case 1 requires zero fire speed, got {speed!r}")


def spread_coefficient(rate: float, wind_speed: float, params: EllipseParams) -> float:
    """Spread speed C = R * (1 - LB / (LB + sqrt(LB^2 - 1))) in m/s.

    Negative inputs are clamped to zero; LB below 1 (beyond tolerance)
    raises DomainError because the square root leaves the real line.
    """
    rate = max(rate, 0.0)
    u = max(wind_speed, 0.0)
    lb = params.length_to_breadth(u)
    if lb < 1.0 - LB_TOLERANCE:
        raise DomainError(f"length-to-breadth ratio {lb!r} < 1 at wind speed {u!r}")
    gb = max(lb * lb - 1.0, 0.0)
    return rate * (1.0 - lb / (lb + math.sqrt(gb)))


def spread_rate_factor(wind_speed: float, params: EllipseParams) -> float:
    """The wind-only factor C / R, in [0, 1)."""
    return spread_coefficient(1.0, wind_speed, params)


def calibrate_spread_rate(speed: float, wind_speed: float, params: EllipseParams) -> float:
    """Spread rate R such that the spread speed equals `speed` at this wind."""
    if speed < 0:
        raise DomainError(f"target speed must be >= 0, got {speed}")
    if speed == 0:
        return 0.0
    factor = spread_rate_factor(wind_speed, params)
    if factor <= 0:
        raise DomainError(
            f"wind speed {wind_speed!r} gives zero spread; cannot reach speed {speed!r}"
        )
    return speed / factor


def front_velocity(wind_fuel: WindFuelState, params: EllipseParams) -> np.ndarray:
    """Planar spread velocity (C*sin(azimuth), C*cos(azimuth))."""
    c = spread_coefficient(wind_fuel.spread_rate, wind_fuel.wind_speed, params)
    return np.array(
        [c * math.sin(wind_fuel.wind_azimuth), c * math.cos(wind_fuel.wind_azimuth)]
    )


def front_velocity_jacobian(
    rate: float, wind_speed: float, azimuth: float, params: EllipseParams
) -> np.ndarray:
    """2x3 sensitivity of the velocity to (spread_rate, wind_speed, azimuth).

    Columns where the input is clamped (negative rate or wind) are zero,
    matching the clamped forward model. The wind column uses the chain
    rule through sqrt(LB^2 - 1) and is treated as flat at the windless
    boundary where the analytic slope diverges.
    """
    clamped_rate = rate < 0
    clamped_wind = wind_speed < 0
    r = max(rate, 0.0)
    u = max(wind_speed, 0.0)
    lb = params.length_to_breadth(u)
    if lb < 1.0 - LB_TOLERANCE:
        raise DomainError(f"length-to-breadth ratio {lb!r} < 1 at wind speed {u!r}")
    gb = max(lb * lb - 1.0, 0.0)
    sq = math.sqrt(gb)
    factor = 1.0 - lb / (lb + sq)
    c = r * factor

    dc_dr = 0.0 if clamped_rate else factor
    if clamped_wind or gb <= _GB_FLOOR or r == 0.0:
        dc_du = 0.0
    else:
        lb_prime = params.a * params.b * math.exp(params.b * u) - params.c * params.d * math.exp(-params.d * u)
        dc_du = r * lb_prime / (sq * (lb + sq) ** 2)

    s, co = math.sin(azimuth), math.cos(azimuth)
    return np.array(
        [
            [dc_dr * s, dc_du * s, c * co],
            [dc_dr * co, dc_du * co, -c * s],
        ]
    )


def propagate_front(
    front: FireFront,
    dt: float,
    noise_std: float,
    wind_fuel: WindFuelState,
    params: EllipseParams,
    rng: np.random.Generator,
) -> FireFront:
    """One Euler step q + v*dt plus optional per-axis Gaussian jitter."""
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    velocity = front_velocity(wind_fuel, params)
    position = front.position + front.velocity * dt
    if noise_std > 0:
        position = position + rng.normal(0.0, noise_std, size=2)
    return FireFront(id=front.id, position=position, velocity=velocity, lineage=front.lineage)


def spawn_fronts(
    front: FireFront,
    spawn_rate_max: int,
    dt: float,
    wind_fuel: WindFuelState,
    params: EllipseParams,
    rng: np.random.Generator,
    id_base: int | None = None,
) -> list[FireFront]:
    """Draw 0..spawn_rate_max children inside the parent's per-step growth box.

    Child ids count up from `id_base` (default: the lineage's id space,
    lineage << 32), so ids stay unique per lineage without global state.
    """
    if spawn_rate_max <= 0:
        return []
    count = int(rng.integers(0, spawn_rate_max + 1))
    if count == 0:
        return []
    if id_base is None:
        id_base = front.lineage << _LINEAGE_SHIFT
    half = np.abs(front.velocity) * dt
    velocity = front_velocity(wind_fuel, params)
    children = []
    for k in range(count):
        offset = rng.uniform(-half, half) if (half > 0).any() else np.zeros(2)
        children.append(
            FireFront(
                id=id_base + k,
                position=front.position + offset,
                velocity=velocity,
                lineage=front.lineage,
            )
        )
    return children


def simulate_step(fire_map: FireMap, dt: float) -> FireMap:
    """Advance every front one step; apply case-3 spawning on its interval."""
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    step = fire_map.step
    fronts = [
        propagate_front(
            front,
            dt,
            fire_map.noise_std,
            fire_map.wind_fuel,
            fire_map.params,
            _front_stream(fire_map.rng_seed, step, front.id, 0),
        )
        for front in fire_map.fronts
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
        for front in fronts:
            if fire_map.max_per_lineage and lineage_counts[front.lineage] >= fire_map.max_per_lineage:
                continue
            base = (front.lineage << _LINEAGE_SHIFT) + next_index.get(front.lineage, 0)
            kids = spawn_fronts(
                front,
                fire_map.spawn_rate_max,
                dt,
                fire_map.wind_fuel,
                fire_map.params,
                _front_stream(fire_map.rng_seed, step, front.id, 1),
                id_base=base,
            )
            if fire_map.max_per_lineage:
                room = fire_map.max_per_lineage - lineage_counts[front.lineage]
                kids = kids[: max(room, 0)]
            lineage_counts[front.lineage] = lineage_counts.get(front.lineage, 0) + len(kids)
            next_index[front.lineage] = next_index.get(front.lineage, 0) + len(kids)
            children.extend(kids)
        fronts.extend(children)

    return replace(fire_map, fronts=tuple(fronts), step=new_step)


def initial_fire_map(
    positions: Sequence,
    wind_fuel: WindFuelState,
    case: int,
    ids: Sequence[int] | None = None,
    **kwargs,
) -> FireMap:
    """Build a FireMap with fronts at rest velocity for the given wind."""
    params = kwargs.get("params", DEFAULT_ELLIPSE)
    velocity = front_velocity(wind_fuel, params)
    if ids is None:
        ids = list(range(1, len(positions) + 1))
    for i in ids:
        if not 0 < int(i) < (1 << _LINEAGE_SHIFT):
            raise DomainError(f"initial front ids must be in (0, 2^{_LINEAGE_SHIFT}), got {i}")
    fronts = [
        FireFront(id=int(i), position=np.asarray(p, dtype=float), velocity=velocity, lineage=int(i))
        for i, p in zip(ids, positions)
    ]
    return FireMap(fronts=tuple(fronts), wind_fuel=wind_fuel, case=case, **kwargs)


def _front_stream(seed: int, step: int, front_id: int, role: int) -> np.random.Generator:
    """Independent generator for one front at one step (role 0 move, 1 spawn)."""
    return np.random.default_rng(substream_key(seed, step, front_id, role))


def substream_key(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence keyed by arbitrary non-negative ints (split to 32 bits).

    Each key part k becomes the two words (k >> 32, k & 0xFFFFFFFF) of
    `SeedSequence(entropy=seed, spawn_key=words)`. That SeedSequence
    mixes one entropy array: the seed split into 32-bit words, low word
    first, padded with zeros to the 4-word pool, followed by the
    spawn-key words. The fast path assembles that same array as
    `np.uint32` and passes it as the entropy with an empty spawn key, so
    the pool, and every state drawn from it, is the same, while skipping
    the per-int coercion that dominates the keyed form. Three inputs keep
    the keyed form: no key parts (the seed is then not padded), a key part
    of 2**64 or more (its high word does not fit in 32 bits) and a
    negative seed (which SeedSequence rejects).
    """
    entries: list[int] = []
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"substream key parts must be >= 0, got {k}")
        entries.append(k >> 32)
        entries.append(k & _MASK32)
    if not entries or seed < 0 or max(entries) > _MASK32:
        return np.random.SeedSequence(entropy=seed, spawn_key=tuple(entries))
    words: list[int] = []
    rest = int(seed)
    while rest:
        words.append(rest & _MASK32)
        rest >>= 32
    words.extend([0] * (_POOL_WORDS - len(words)))
    return np.random.SeedSequence(np.array(words + entries, dtype=np.uint32))
