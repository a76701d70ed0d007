"""Tests of the benchmark's own checks and input generation.

Run from the repository root: python3 -m pytest perfbench -q
"""

import math

import numpy as np
import pytest

import checks
from hostspeed import REFERENCE_PIECE_S, HostSpeed
from workloads import WORKLOADS

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_tour_check_accepts_an_improved_permutation():
    checks.check_tour(SQUARE, (0, 2, 1, 3), (0, 1, 2, 3), 4.0)


@pytest.mark.parametrize("order", [(0, 1, 1, 3), (0, 1, 2), (0, 1, 2, 3, 4)])
def test_tour_check_rejects_a_non_permutation(order):
    with pytest.raises(checks.CheckFailed, match="permutation"):
        checks.check_tour(SQUARE, (0, 1, 2, 3), order, 4.0)


def test_tour_check_rejects_a_wrong_length_and_a_longer_tour():
    with pytest.raises(checks.CheckFailed, match="reported length"):
        checks.check_tour(SQUARE, (0, 1, 2, 3), (0, 1, 2, 3), 4.5)
    crossed = 2.0 + 2.0 * math.sqrt(2.0)
    with pytest.raises(checks.CheckFailed, match="lengthened"):
        checks.check_tour(SQUARE, (0, 1, 2, 3), (0, 2, 1, 3), crossed)


def test_mst_check_accepts_the_true_total_and_rejects_a_wrong_one():
    checks.check_mst(SQUARE, 3.0)
    with pytest.raises(checks.CheckFailed, match="scipy"):
        checks.check_mst(SQUARE, 3.0 + 1e-6)


def test_mst_check_handles_coincident_nodes():
    nodes = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
    checks.check_mst(nodes, 5.0)


def test_covariance_check_rejects_a_negative_eigenvalue():
    good = np.stack([np.eye(8), 2.0 * np.eye(8)])
    checks.check_covariances(good)
    bad = good.copy()
    bad[1, 0, 0] = -1e-3
    with pytest.raises(checks.CheckFailed, match="eigenvalue"):
        checks.check_covariances(bad)


def test_covariance_check_rejects_asymmetric_and_non_finite():
    asym = np.eye(8)[None].copy()
    asym[0, 0, 1] = 0.1
    with pytest.raises(checks.CheckFailed, match="asymmetric"):
        checks.check_covariances(asym)
    nan = np.eye(8)[None].copy()
    nan[0, 3, 3] = np.nan
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_covariances(nan)


def test_recount_uses_square_footprints():
    half_angle = math.atan(0.5)  # half-width 0.5 * altitude
    fronts = np.array([[0.0, 0.0], [9.9, 9.9], [9.9, 0.0], [25.0, 0.0]])
    footprints = [(0.0, 0.0, 20.0, half_angle)]  # covers |dx|, |dy| <= 10
    assert checks.recount_uncovered(fronts, footprints) == 1
    assert checks.recount_uncovered(fronts, []) == 4


def test_uncovered_check_rejects_a_miscounted_total():
    checks.check_uncovered([2, 1, 0], [2, 3, 3], recount=[2, 1, 0])
    with pytest.raises(checks.CheckFailed, match="running sum"):
        checks.check_uncovered([2, 1, 0], [2, 3, 4])
    with pytest.raises(checks.CheckFailed, match="recount"):
        checks.check_uncovered([2, 1, 0], [2, 3, 3], recount=[2, 2, 0])


def test_steiner_check_rejects_a_far_member_and_a_duplicate():
    points = np.array([[0.0, 0.0], [4.0, 0.0], [50.0, 0.0]])
    good = [(np.array([2.0, 0.0]), (7, 8)), (np.array([50.0, 0.0]), (9,))]
    checks.check_steiner(points, [7, 8, 9], 4.0, good)
    far = [(np.array([0.0, 0.0]), (7, 8)), (np.array([50.0, 0.0]), (9,))]
    with pytest.raises(checks.CheckFailed, match="fov_width"):
        checks.check_steiner(points, [7, 8, 9], 4.0, far)
    twice = good + [(np.array([4.0, 0.0]), (8,))]
    with pytest.raises(checks.CheckFailed, match="exactly one"):
        checks.check_steiner(points, [7, 8, 9], 4.0, twice)


def test_spreading_bound_check_uses_the_fixed_point_equation():
    mst, n, s, g, v = 120.0, 3, 0.2, 50.0, 10.0
    delta = mst / (v / 2 - 2 * s * (n - 1))
    a, b = 2 * n * s / v, 2 * s / g
    # Smaller root of a*b*T^2 - (1 - a)*T + delta = 0.
    beta = 1 - a
    root = 2 * delta / (beta + math.sqrt(beta * beta - 4 * a * b * delta))
    checks.check_spreading_bound(root, mst, n, s, g, v)
    with pytest.raises(checks.CheckFailed, match="case-3 bound"):
        checks.check_spreading_bound(root * 1.001, mst, n, s, g, v)


def test_feasible_plan_check():
    checks.check_feasible_plan(True, {1: 0.5, 2: 1.0})
    checks.check_feasible_plan(False, {1: 3.0})
    with pytest.raises(checks.CheckFailed, match="feasible"):
        checks.check_feasible_plan(True, {1: 0.5, 2: 1.0 + 1e-9})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_inputs(name):
    make = WORKLOADS[name]
    assert make(3) == make(3)
    assert make(3) != make(4)
    seeds = lambda ops: {op.config["rng_seed"] for op in ops}  # noqa: E731
    assert not seeds(make(3)) & seeds(make(4))


def test_scaling_takes_out_the_hosts_speed():
    speed = HostSpeed()
    speed.samples, speed.piece_s = 4, 4 * 2 * REFERENCE_PIECE_S  # host at half speed
    assert speed.scaled(3.0) == pytest.approx(1.5)
    speed.reset()
    speed.sample()
    assert speed.samples == 1 and speed.piece_s > 0
