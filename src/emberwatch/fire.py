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

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

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

# numpy's documented SeedSequence mix (after O'Neill's seed_seq_fe): the
# entropy hash constant and multiplier, the output hash constant and
# multiplier, the two mixing multipliers and the xor-shift.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905) and modulus mask.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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

    def validate_range(self, max_wind_speed: float, samples: int = 257) -> None:
        """Raise DomainError unless 1 <= LB and (2 LB)^2 is finite on [0, max_wind_speed].

        The spread model and its Jacobian square LB + sqrt(LB^2 - 1).
        """
        for u in np.linspace(0.0, max(max_wind_speed, 0.0), samples):
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
    windless boundary where the analytic slope diverges.
    """
    r = max(rate, 0.0)
    lb, lb_prime, gb, sq = _ellipse(wind_speed, params)
    factor = 1.0 - lb / (lb + sq)
    c = r * factor

    dc_dr = 0.0 if rate < 0 else factor
    if wind_speed < 0 or gb <= _GB_FLOOR or r == 0.0:
        dc_du = 0.0
    else:
        dc_du = r * lb_prime / (sq * (lb + sq) ** 2)

    s, co = math.sin(azimuth), math.cos(azimuth)
    jacobian = np.array(
        [
            [dc_dr * s, dc_du * s, c * co],
            [dc_dr * co, dc_du * co, -c * s],
        ]
    )
    wrapped = azimuth % (2 * math.pi)
    return np.array([c * math.sin(wrapped), c * math.cos(wrapped)]), jacobian


def propagate_front(
    front: FireFront,
    dt: float,
    noise_std: float,
    velocity: np.ndarray,
    rng: np.random.Generator,
) -> FireFront:
    """One Euler step q + v*dt plus optional per-axis Gaussian jitter.

    `velocity` is the step's spread velocity (`front_velocity` of the
    map's wind state), which the moved front carries into the next step.
    """
    if dt <= 0:
        raise DomainError("dt", f"dt must be > 0, got {dt}")
    position = front.position + front.velocity * dt
    if noise_std > 0:
        position = position + rng.normal(0.0, noise_std, size=2)
    return FireFront(id=front.id, position=position, velocity=velocity, lineage=front.lineage)


def spawn_fronts(
    front: FireFront,
    spawn_rate_max: int,
    dt: float,
    velocity: np.ndarray,
    rng: np.random.Generator,
    id_base: int | None = None,
) -> list[FireFront]:
    """Draw 0..spawn_rate_max children inside the parent's per-step growth box.

    Children carry `velocity`, the step's spread velocity. Child ids count
    up from `id_base` (default: the lineage's id space, lineage << 32), so
    ids stay unique per lineage without global state.
    """
    if spawn_rate_max <= 0:
        return []
    count = int(rng.integers(0, spawn_rate_max + 1))
    if count == 0:
        return []
    if id_base is None:
        id_base = front.lineage << _LINEAGE_SHIFT
    half = np.abs(front.velocity) * dt
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
        raise DomainError("dt", f"dt must be > 0, got {dt}")
    step = fire_map.step
    velocity = front_velocity(fire_map.wind_fuel, fire_map.params)
    moves = keyed_generators(fire_map.rng_seed, (step,), [f.id for f in fire_map.fronts], (0,))
    fronts = [
        propagate_front(front, dt, fire_map.noise_std, velocity, rng)
        for front, rng in zip(fire_map.fronts, moves)
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
        spawns = keyed_generators(fire_map.rng_seed, (step,), [f.id for f in fronts], (1,))
        for front, rng in zip(fronts, spawns):
            if fire_map.max_per_lineage and lineage_counts[front.lineage] >= fire_map.max_per_lineage:
                continue
            base = (front.lineage << _LINEAGE_SHIFT) + next_index.get(front.lineage, 0)
            kids = spawn_fronts(
                front,
                fire_map.spawn_rate_max,
                dt,
                velocity,
                rng,
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


def _hash_constants(hash_const: int, mult: int, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiply constants of successive SeedSequence hashes.

    Each hash xors its input with the running constant, advances the
    constant by `mult` and multiplies by the new value. Returns one
    constant per hash, in C order, as read-only uint32 arrays of `shape`
    plus a trailing axis that broadcasts over ids.
    """
    xors, mults = [], []
    for _ in range(math.prod(shape)):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        mults.append(hash_const)
    out = np.array(xors, np.uint32).reshape(*shape, 1), np.array(mults, np.uint32).reshape(*shape, 1)
    for array in out:
        array.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _entropy_constants(entropy_words: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants that mix `rows` key words into a pool after `entropy_words` words.

    mix_entropy has hashed 4 times per entropy word already; each further
    word is hashed once per pool word. Cached: a run asks for a few
    shapes only, and the arrays are read-only because callers share them.
    """
    hash_const = _INIT_A * pow(_MULT_A, 4 * entropy_words, 1 << 32) & _MASK32
    return _hash_constants(hash_const, _MULT_A, (rows, _POOL_WORDS))


# generate_state(4, np.uint64) hashes the pool words 0-3 twice into 8 words.
_STATE_ROWS = np.arange(2 * _POOL_WORDS) % _POOL_WORDS
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, (2 * _POOL_WORDS,))


def keyed_generators(
    seed: int, prefix: Sequence[int], ids: Sequence[int], tail: Sequence[int] = ()
) -> Iterator[np.random.Generator]:
    """Yield, per id in order, `default_rng(substream_key(seed, *prefix, id, *tail))`.

    Every yielded generator has exactly that state, but the batch costs
    one `substream_key` call: each id's remaining key words are mixed
    into the prefix's SeedSequence pool as (4, N) uint32 arrays,
    following numpy's documented SeedSequence mix, then
    `generate_state(4, uint64)` and PCG64's seeding (two 128-bit LCG
    steps) are reproduced per id. One Generator is re-seeded in place
    for every id, so each yielded generator is valid only until the next
    one is drawn.

    The prefix must be non-empty, the seed >= 0 and every id and key
    part in [0, 2**64): then `substream_key` packs the prefix as the
    seed's words (at least 4) followed by two words per part.
    """
    ids = list(ids)
    if not ids:
        return
    parts = [*prefix, *tail, min(ids), max(ids)]
    if not prefix or seed < 0 or min(parts) < 0 or max(parts) >> 64:
        raise ValueError(f"keyed_generators needs a prefix and key parts in [0, 2**64), got {parts}")
    prefix_key = substream_key(seed, *prefix)
    n = len(ids)
    words = [[i >> 32 for i in ids], [i & _MASK32 for i in ids]]
    for part in tail:
        words += [[part >> 32] * n, [part & _MASK32] * n]
    entropy_words = max(_POOL_WORDS, -(-int(seed).bit_length() // 32)) + 2 * len(prefix)
    xor, mult = _entropy_constants(entropy_words, len(words))
    hashed = (np.array(words, np.uint32)[:, None, :] ^ xor) * mult
    hashed ^= hashed >> _XSHIFT
    pool = prefix_key.pool[:, None]
    for word in hashed:
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * word
        pool ^= pool >> _XSHIFT
    out = pool[_STATE_ROWS] ^ _STATE_XOR
    out *= _STATE_MULT
    out ^= out >> _XSHIFT
    # Little-endian pairs of 32-bit words are the four uint64 state words.
    state = out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << 32
    # Any PCG64 will do here: its state is replaced before each yield.
    rng = np.random.default_rng(prefix_key)
    bit_generator = rng.bit_generator
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*state.tolist()):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
