"""Planar geometry helpers: row norms, golden-angle rings and the smallest enclosing circle.

Incremental Welzl-style construction. The input order is left untouched
so that results are deterministic; group sizes in this codebase are small
enough that the randomized-order speedup is irrelevant.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Welzl membership tests need a hair of slack so boundary points are not
# rejected by rounding.
_REL_EPSILON = 1 + 1e-14

GOLDEN_ANGLE = 2.399963229728653


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, equal bit for bit to `np.linalg.norm` of each vector.

    `np.linalg.norm(v)` is the square root of the dot product `v @ v`; a
    stacked `matmul` takes that same dot product for every vector, where
    `norm(..., axis=-1)` squares and sums in a different order and moves
    the last bit of about one distance in twelve.
    """
    vectors = np.asarray(vectors, dtype=float)
    return np.sqrt((vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0])


def golden_ring(centre: np.ndarray, radius: float, k: int) -> np.ndarray:
    """Point k of a ring about `centre`, k golden angles round: point k depends only on k."""
    return centre + radius * np.array([math.cos(GOLDEN_ANGLE * k), math.sin(GOLDEN_ANGLE * k)])


def smallest_enclosing_circle(points: Sequence) -> tuple[tuple[float, float], float]:
    """Return (center, radius) of the smallest circle containing all points."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("need at least one point")

    circle = (pts[0][0], pts[0][1], 0.0)
    for i, p in enumerate(pts[1:], start=1):
        if not _contains(circle, p):
            circle = _circle_with_one(pts[: i + 1], p)
    return (circle[0], circle[1]), circle[2]


def _contains(circle: tuple[float, float, float], p: tuple[float, float]) -> bool:
    return math.hypot(p[0] - circle[0], p[1] - circle[1]) <= circle[2] * _REL_EPSILON


def _circle_with_one(pts, p):
    circle = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _contains(circle, q):
            if circle[2] == 0.0:
                circle = _diameter(p, q)
            else:
                circle = _circle_with_two(pts[: i + 1], p, q)
    return circle


def _circle_with_two(pts, p, q):
    circle = _diameter(p, q)
    left = None
    right = None
    px, py = p
    qx, qy = q

    for r in pts:
        if _contains(circle, r):
            continue
        cross = _cross(px, py, qx, qy, r[0], r[1])
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        elif cross > 0.0 and (
            left is None
            or _cross(px, py, qx, qy, c[0], c[1]) > _cross(px, py, qx, qy, left[0], left[1])
        ):
            left = c
        elif cross < 0.0 and (
            right is None
            or _cross(px, py, qx, qy, c[0], c[1]) < _cross(px, py, qx, qy, right[0], right[1])
        ):
            right = c

    if left is None and right is None:
        return circle
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _diameter(a, b):
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _circumcircle(a, b, c):
    # Shift toward the bounding-box midpoint to tame cancellation.
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - p[0], y - p[1]) for p in (a, b, c))
    return (x, y, r)


def _cross(x0, y0, x1, y1, x2, y2) -> float:
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
