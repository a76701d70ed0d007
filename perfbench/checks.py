"""Output checks that do not trust the program under test.

Every check recomputes a result by another route (scipy's MST, a plain
loop over tour edges, the fixed-point equation of the spreading bound, a
recount of fronts inside footprints) or tests a property the method must
have. None compares against a stored copy of earlier output. Each check
takes plain data and raises CheckFailed with a message naming what broke.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

REL_TOL = 1e-9
# A ratio at most this far above 1 still passes the program's safety test.
RATIO_PASS_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _close(a: float, b: float) -> bool:
    # abs_tol covers zero-length tours and trees of one node.
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def cycle_length(nodes: np.ndarray, order: Sequence[int]) -> float:
    """Closed-cycle length by an explicit edge loop."""
    total = 0.0
    for k in range(len(order)):
        a = nodes[order[k]]
        b = nodes[order[(k + 1) % len(order)]]
        total += math.hypot(float(a[0] - b[0]), float(a[1] - b[1]))
    return total if len(order) > 1 else 0.0


def check_tour(
    nodes: np.ndarray,
    in_order: Sequence[int],
    out_order: Sequence[int],
    out_length: float,
) -> None:
    """A k-opt result is a permutation, its length is right, and it is no longer than its input."""
    n = len(nodes)
    if sorted(out_order) != list(range(n)):
        raise CheckFailed(f"k_opt_improve returned {list(out_order)}, not a permutation of {n} nodes")
    length = cycle_length(nodes, out_order)
    if not _close(out_length, length):
        raise CheckFailed(f"k_opt_improve reported length {out_length!r}, edges sum to {length!r}")
    before = cycle_length(nodes, in_order)
    if length > before * (1 + REL_TOL) + 1e-12:
        raise CheckFailed(f"k_opt_improve lengthened a tour from {before!r} to {length!r}")


def mst_total(nodes: np.ndarray) -> float:
    """Total weight of scipy's minimum spanning tree over the complete graph."""
    if len(nodes) < 2:
        return 0.0
    # csgraph reads a (near-)zero weight as "no edge", which would drop the
    # edge between coincident nodes. Every spanning tree has n - 1 edges, so
    # adding 1 to every weight keeps the same tree and adds n - 1 to its total.
    shifted = squareform(pdist(nodes) + 1.0)
    return float(minimum_spanning_tree(shifted).sum()) - (len(nodes) - 1)


def check_mst(nodes: np.ndarray, total: float) -> None:
    expected = mst_total(nodes)
    if not _close(total, expected):
        raise CheckFailed(f"build_mst total {total!r} differs from scipy's {expected!r}")


def check_steiner(
    points: np.ndarray,
    ids: Sequence[int],
    fov_width: float,
    waypoints: Iterable[tuple[np.ndarray, Sequence[int]]],
) -> None:
    """Every fire is in exactly one waypoint, within fov_width / 2 of its centre."""
    by_id = {fid: points[k] for k, fid in enumerate(ids)}
    seen: list[int] = []
    limit = fov_width / 2.0 * (1 + REL_TOL)
    for position, members in waypoints:
        for fid in members:
            if fid not in by_id:
                raise CheckFailed(f"steiner_reduce invented fire id {fid}")
            p = by_id[fid]
            d = math.hypot(float(p[0] - position[0]), float(p[1] - position[1]))
            if d > limit:
                raise CheckFailed(
                    f"fire {fid} lies {d!r} m from its waypoint, beyond fov_width/2 = {fov_width / 2!r}"
                )
            seen.append(fid)
    if sorted(seen) != sorted(by_id):
        raise CheckFailed("steiner_reduce does not place every fire in exactly one waypoint")


def check_spreading_bound(
    seconds: float,
    mst_length: float,
    fire_count: int,
    worst_speed: float,
    fov_width: float,
    uav_speed: float,
) -> None:
    """A feasible case-3 bound T solves T = delta + a*T*(b*T + 1).

    delta is the moving-case tour time, a = 2*n*s/v and b = 2*s/g, all
    recomputed here from the bound's inputs.
    """
    delta = mst_length / (uav_speed / 2.0 - 2.0 * worst_speed * (fire_count - 1))
    a = 2.0 * fire_count * worst_speed / uav_speed
    b = 2.0 * worst_speed / fov_width
    rhs = delta + a * seconds * (b * seconds + 1.0)
    if not (math.isfinite(seconds) and seconds >= 0 and _close(seconds, rhs)):
        raise CheckFailed(f"case-3 bound T={seconds!r} but delta + aT(bT+1) = {rhs!r}")


def check_feasible_plan(feasible: bool, ratios: dict[int, float]) -> None:
    if feasible:
        worst = max(ratios.values(), default=0.0)
        if not worst <= 1.0 + RATIO_PASS_TOL:
            raise CheckFailed(f"plan marked feasible has uncertainty ratio {worst!r} > 1")


def check_covariances(stack: np.ndarray) -> None:
    """Each 8x8 covariance in the stack is finite, symmetric and PSD."""
    if len(stack) == 0:
        return
    if not np.isfinite(stack).all():
        raise CheckFailed("a returned covariance has a non-finite entry")
    scale = np.abs(stack).max(axis=(1, 2))
    asym = np.abs(stack - np.swapaxes(stack, 1, 2)).max(axis=(1, 2))
    if (asym > 1e-12 * scale).any():
        raise CheckFailed(f"a returned covariance is asymmetric by {asym.max()!r}")
    lowest = np.linalg.eigvalsh(stack).min(axis=1)
    bad = lowest < -REL_TOL * scale
    if bad.any():
        raise CheckFailed(f"a returned covariance has eigenvalue {lowest[bad].min()!r} < 0")


def recount_uncovered(
    fronts: np.ndarray, footprints: Sequence[tuple[float, float, float, float]]
) -> int:
    """Fronts outside every square footprint (x, y, altitude, half_angle)."""
    if len(fronts) == 0:
        return 0
    covered = np.zeros(len(fronts), dtype=bool)
    for x, y, z, half_angle in footprints:
        half = z * math.tan(half_angle)
        covered |= (np.abs(fronts[:, 0] - x) <= half) & (np.abs(fronts[:, 1] - y) <= half)
    return int((~covered).sum())


def check_uncovered(
    uncovered: Sequence[int],
    cum_uncertainty: Sequence[int],
    recount: Sequence[int] | None = None,
) -> None:
    """cum_uncertainty is the running sum of uncovered, and both match a recount when given."""
    running = 0
    for step, (u, c) in enumerate(zip(uncovered, cum_uncertainty)):
        running += u
        if u < 0 or c != running:
            raise CheckFailed(f"step {step}: cum_uncertainty {c} is not the running sum {running}")
    if recount is None:
        return
    if len(recount) != len(uncovered):
        raise CheckFailed(f"recount covers {len(recount)} steps, the run reported {len(uncovered)}")
    for step, (u, r) in enumerate(zip(uncovered, recount)):
        if u != r:
            raise CheckFailed(f"step {step}: run reports {u} unobserved fronts, recount finds {r}")
    if cum_uncertainty and cum_uncertainty[-1] != sum(recount):
        raise CheckFailed(
            f"cum_uncertainty {cum_uncertainty[-1]} differs from the recount {sum(recount)}"
        )
