import math

import numpy as np
import pytest

from emberwatch.geometry import row_norms, smallest_enclosing_circle
from oracles import naive_enclosing_circle


def test_single_point():
    center, radius = smallest_enclosing_circle([(3.0, 4.0)])
    assert center == pytest.approx((3.0, 4.0))
    assert radius == 0.0


def test_coincident_points():
    center, radius = smallest_enclosing_circle([(1.0, 1.0), (1.0, 1.0)])
    assert center == pytest.approx((1.0, 1.0))
    assert radius == pytest.approx(0.0, abs=1e-12)


def test_two_points_diameter():
    center, radius = smallest_enclosing_circle([(0.0, 0.0), (2.0, 0.0)])
    assert center == pytest.approx((1.0, 0.0))
    assert radius == pytest.approx(1.0)


def test_collinear_points():
    center, radius = smallest_enclosing_circle([(0.0, 0.0), (1.0, 0.0), (4.0, 0.0)])
    assert center == pytest.approx((2.0, 0.0))
    assert radius == pytest.approx(2.0)


def test_equilateral_triangle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    center, radius = smallest_enclosing_circle(pts)
    assert radius == pytest.approx(1 / math.sqrt(3))
    assert center == pytest.approx((0.5, math.sqrt(3) / 6))


def test_matches_naive_oracle_on_random_sets():
    rng = np.random.default_rng(1234)
    for trial in range(120):
        n = int(rng.integers(1, 12))
        pts = rng.uniform(-50, 50, size=(n, 2))
        center, radius = smallest_enclosing_circle(pts)
        _, expected_radius = naive_enclosing_circle(pts)
        assert radius == pytest.approx(expected_radius, rel=1e-9, abs=1e-9)
        dists = np.linalg.norm(pts - np.asarray(center), axis=1)
        assert dists.max() <= radius * (1 + 1e-12)


def test_deterministic_ordering():
    pts = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0), (5.0, 1.0)]
    first = smallest_enclosing_circle(pts)
    second = smallest_enclosing_circle(pts)
    assert first == second


def test_row_norms_equal_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(127)
    vectors = rng.uniform(-3000.0, 3000.0, size=(5000, 2))
    assert row_norms(vectors).tolist() == [float(np.linalg.norm(v)) for v in vectors]
