"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its headline numbers (run with -s to
see them live). The heavy closed-loop criteria build their scenarios from
the shipped config files so the CLI and this suite exercise the same
defaults.
"""

import itertools
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ttest_rel

from emberwatch.bounds import (
    BoundInputs,
    FleetParams,
    bound_moving,
    bound_spreading,
    bound_stationary,
    fov_width,
)
from emberwatch.config import FilterSection, load_config
from emberwatch.coordination import UavAgent, plan_safety_tour
from emberwatch.fire import DEFAULT_ELLIPSE, calibrate_spread_rate, spread_velocity
from emberwatch.harness import compare_controllers, run_scenario, sweep_safety
from emberwatch.routing import build_mst, k_opt_improve, steiner_reduce, tour_from_mst
from emberwatch.tracking import (
    FIRE_X,
    FIRE_Y,
    SPREAD_RATE,
    UAV_X,
    UAV_Z,
    WIND_AZIMUTH,
    WIND_SPEED,
    FilterConfig,
    TrackEstimate,
    observation_jacobian,
    observe,
    predict,
    step_track,
    transition,
)
from emberwatch.cli import main as cli_main
from oracles import (
    chase_moving_targets,
    exact_mst_prufer,
    exact_tsp_held_karp,
    finite_difference_jacobian,
    jacobian_mismatch,
)

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _random_state(rng) -> np.ndarray:
    return np.array(
        [
            rng.uniform(-500, 500),  # fire_x
            rng.uniform(-500, 500),  # fire_y
            rng.uniform(-500, 500),  # uav_x
            rng.uniform(-500, 500),  # uav_y
            rng.uniform(10, 200),  # uav_z
            rng.uniform(0.1, 3.0),  # spread_rate
            rng.uniform(0.5, 12.0),  # wind_speed
            rng.uniform(0, 2 * math.pi),  # wind_azimuth
        ]
    )


def test_criterion_1_jacobian_fidelity():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    dt = 1.0
    worst_f = 0.0
    worst_h = 0.0
    for _ in range(100):
        s = _random_state(rng)
        pose = s[UAV_X:UAV_Z + 1].copy()

        def f(vec):
            return transition(vec, dt, DEFAULT_ELLIPSE, uav_pose=pose)[0]

        worst_f = max(
            worst_f,
            jacobian_mismatch(
                transition(s, dt, DEFAULT_ELLIPSE)[1],
                finite_difference_jacobian(f, s, h=1e-6),
            ),
        )
        worst_h = max(
            worst_h,
            jacobian_mismatch(
                observation_jacobian(s), finite_difference_jacobian(observe, s, h=1e-6)
            ),
        )
    elapsed = time.perf_counter() - tic
    assert worst_f < 1e-4
    assert worst_h < 1e-4
    assert elapsed < 5.0
    _report("1 jacobian fidelity", f"max err F {worst_f:.2e}, H {worst_h:.2e}, {elapsed:.2f}s")


def test_criterion_2_bound_self_consistency():
    fleet = FleetParams(speed=10.0, altitude=50.0, half_angle=0.3)
    rng = np.random.default_rng(7)

    tiny = BoundInputs(150.0, 5, 1e-8, 40.0)
    c1 = bound_stationary(tiny, fleet).seconds
    c2 = bound_moving(tiny, fleet).seconds
    assert abs(c2 - c1) / c1 < 1e-6

    checked = 0
    worst_residual = 0.0
    while checked < 1000:
        inputs = BoundInputs(
            mst_length=float(rng.uniform(0, 400)),
            fire_count=int(rng.integers(1, 10)),
            worst_speed=float(rng.uniform(0, 1.5)),
            fov_width=float(rng.uniform(5, 100)),
        )
        spreading = bound_spreading(inputs, fleet)
        if not spreading.feasible:
            continue
        checked += 1
        stationary = bound_stationary(inputs, fleet)
        moving = bound_moving(inputs, fleet)
        assert stationary.seconds <= moving.seconds + 1e-9
        assert moving.seconds <= spreading.seconds + 1e-9
        a = 2 * inputs.fire_count * inputs.worst_speed / fleet.speed
        b = 2 * inputs.worst_speed / inputs.fov_width
        residual = abs(
            spreading.seconds
            - (spreading.delta + a * spreading.seconds * (b * spreading.seconds + 1.0))
        )
        worst_residual = max(worst_residual, residual / max(1.0, spreading.seconds))
        assert residual < 1e-9 * max(1.0, spreading.seconds)
    _report(
        "2 bound self-consistency",
        f"1000 ordered feasible triples, worst fixed-point residual {worst_residual:.2e}",
    )


def _mc_tracks(rng, count):
    tracks = {}
    for fid in range(1, count + 1):
        pos = rng.uniform(0, 150, size=2)
        azimuth = float(rng.uniform(0, 2 * math.pi))
        rate = calibrate_spread_rate(0.5, 5.0, DEFAULT_ELLIPSE)
        mean = np.array([pos[0], pos[1], pos[0], pos[1], 40.0, rate, 5.0, azimuth])
        track = TrackEstimate(
            mean=mean,
            covariance=np.diag([1.0, 1.0, 4.0, 4.0, 4.0, 4e-4, 9e-4, 1e-4]),
            process_noise=np.diag([0.0025, 0.0025, 4.0, 4.0, 4.0, 1e-4, 4e-4, 2.5e-5]),
            observation_noise=np.diag([1e-4, 1e-4, 0.0025, 0.01, 4e-4]),
        )
        tracks[fid] = predict(track, 1.0, DEFAULT_ELLIPSE)
    return tracks


def test_criterion_3_urr_guarantee_monte_carlo():
    tic = time.perf_counter()
    uav = UavAgent(id=0, pose=np.array([75.0, 75.0, 40.0]), speed=10.0, half_angle=0.6)
    g = fov_width(uav.fleet())
    passes = 0
    violations = 0
    attempts = 0
    while passes < 500 and attempts < 3000:
        attempts += 1
        rng = np.random.default_rng(10_000 + attempts)
        tracks = _mc_tracks(rng, int(rng.integers(3, 6)))
        plan, _ = plan_safety_tour(
            tracks, [uav], [], case=2, confidence_level=0.05, dt=1.0, params=DEFAULT_ELLIPSE
        )
        if not plan.feasible:
            continue
        passes += 1

        # realized fire velocities drawn from each track's own posterior
        ids = sorted(tracks)
        velocities = {}
        for fid in ids:
            s = tracks[fid].mean
            _, jac = spread_velocity(s[SPREAD_RATE], s[WIND_SPEED], s[WIND_AZIMUTH], DEFAULT_ELLIPSE)
            vel_cov = jac @ tracks[fid].covariance[5:8, 5:8] @ jac.T
            mean_vel = np.array(
                [
                    0.5 * math.sin(s[WIND_AZIMUTH]),
                    0.5 * math.cos(s[WIND_AZIMUTH]),
                ]
            )
            velocities[fid] = rng.multivariate_normal(mean_vel, vel_cov)

        # fly the planned tour against the realized motion
        fire_sequence = [m for w in plan.segments[0].waypoints for m in w.members]
        targets = [tracks[f].mean[:2] for f in fire_sequence]
        vels = [velocities[f] for f in fire_sequence]
        t_real = chase_moving_targets(
            start=targets[0], targets=targets, velocities=vels,
            speed=uav.speed, capture_radius=g / 2.0,
        )
        steps_real = max(1, math.ceil(t_real))
        from emberwatch.bounds import uncertainty_ratio

        realized = max(
            uncertainty_ratio(tracks[f], float(steps_real), 1.0) for f in ids
        )
        if realized > 1.0 + 1e-12:
            violations += 1

    elapsed = time.perf_counter() - tic
    assert passes >= 500, f"only {passes} feasible cases in {attempts} attempts"
    rate = violations / passes
    assert rate <= 0.05 + 0.02
    assert elapsed < 120.0
    _report(
        "3 urr guarantee",
        f"{passes} passing runs, violation rate {rate:.3f} <= 0.07, {elapsed:.1f}s",
    )


def test_criterion_4_tsp_suite():
    rng = np.random.default_rng(404)

    # double-tree bound on every instance
    for _ in range(200):
        n = int(rng.integers(2, 30))
        nodes = rng.uniform(0, 300, size=(n, 2))
        edges, mst_len = build_mst(nodes)
        tour = tour_from_mst(nodes, edges)
        assert tour.length <= 2 * mst_len + 1e-9

    # 2-opt never increases and stays within 2x of the exact optimum
    worst_ratio = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 10))
        nodes = rng.uniform(0, 300, size=(n, 2))
        edges, _ = build_mst(nodes)
        start = tour_from_mst(nodes, edges)
        improved = k_opt_improve(start, nodes)
        assert improved.length <= start.length + 1e-9
        optimum = exact_tsp_held_karp(nodes)
        assert improved.length <= 2 * optimum + 1e-9
        worst_ratio = max(worst_ratio, improved.length / max(optimum, 1e-12))

    # MST against the exhaustive spanning-tree enumeration
    for n in range(2, 9):
        nodes = rng.uniform(0, 100, size=(n, 2))
        _, mst_len = build_mst(nodes)
        assert mst_len == pytest.approx(exact_mst_prufer(nodes), rel=1e-9)

    _report("4 tsp suite", f"worst 2-opt/optimum ratio {worst_ratio:.3f} <= 2")


@pytest.mark.slow
def test_criterion_5_safety_sweep_ordinal():
    tic = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "sweep.yaml")
    result = sweep_safety(cfg, max_teams=8, trials=10)
    elapsed = time.perf_counter() - tic

    for case in (1, 2, 3):
        means = [result.summary[case][t][0] for t in range(1, 9)]
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:])), (case, means)
    for teams in range(1, 9):
        by_case = [result.summary[case][teams][0] for case in (1, 2, 3)]
        assert by_case[0] <= by_case[1] + 1e-9 <= by_case[2] + 2e-9, (teams, by_case)

    assert elapsed < 600.0
    summary = "; ".join(
        f"case{case}: " + ",".join(f"{result.summary[case][t][0]:.1f}" for t in range(1, 9))
        for case in (1, 2, 3)
    )
    _report("5 safety sweep ordinal", f"{elapsed:.0f}s; mean min drones {summary}")


# Only the slow criteria 6 and 7 request this fixture, so deselecting
# them with -m "not slow" also skips building it.
@pytest.fixture(scope="module")
def comparison_result():
    cfg = load_config(CONFIG_DIR / "compare.yaml")
    return compare_controllers(cfg, [1, 2, 4, 8], trials=10)


@pytest.mark.slow
def test_criterion_6_fleet_size_ordinal(comparison_result):
    for case in (1, 2, 3):
        means = [
            comparison_result.summary[(case, "proposed", n)][0] for n in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(means, means[1:])), (case, means)
    detail = "; ".join(
        f"case{case}: "
        + ">".join(f"{comparison_result.summary[(case, 'proposed', n)][0]:.0f}" for n in (1, 2, 4, 8))
        for case in (1, 2, 3)
    )
    _report("6 fleet size ordinal", detail)


@pytest.mark.slow
def test_criterion_7_controller_comparison(comparison_result):
    rows = comparison_result.rows
    detail = []
    for case in (1, 2, 3):
        proposed = [r[4] for r in rows if r[0] == case and r[1] == "proposed" and r[2] == 8]
        gradient = [r[4] for r in rows if r[0] == case and r[1] == "gradient" and r[2] == 8]
        assert len(proposed) == len(gradient) == 10
        assert np.mean(proposed) < np.mean(gradient)
        stat = ttest_rel(proposed, gradient, alternative="less")
        assert stat.pvalue < 0.05, (case, stat.pvalue)
        detail.append(
            f"case{case}: {np.mean(proposed):.0f} vs {np.mean(gradient):.0f}, p={stat.pvalue:.2e}"
        )
    _report("7 controller comparison", "; ".join(detail))


def test_criterion_8_filter_sanity():
    # zero-noise lock-on
    truth = np.array([120.0, 80.0, 100.0, 90.0, 50.0, 0.0, 5.0, 0.8])
    start = np.array([117.0, 84.0, 100.0, 90.0, 50.0, 0.05, 4.8, 0.7])
    track = TrackEstimate(
        mean=start,
        covariance=np.diag([25.0, 25.0, 1e-6, 1e-6, 1e-6, 0.01, 0.04, 0.0025]),
        process_noise=np.diag([1e-8, 1e-8, 1e-12, 1e-12, 1e-12, 1e-10, 1e-10, 1e-10]),
        observation_noise=np.diag([1e-12] * 5),
    )
    cfg = FilterConfig(alpha_forget=1.0)
    for _ in range(50):
        track = step_track(
            track, observe(truth), 1.0, cfg, DEFAULT_ELLIPSE, uav_pose=truth[UAV_X:UAV_Z + 1]
        )
    err = math.hypot(track.mean[FIRE_X] - truth[FIRE_X], track.mean[FIRE_Y] - truth[FIRE_Y])
    assert err < 1e-6

    # adaptive observation-noise recovery on a static scene
    rng = np.random.default_rng(808)
    true_std = np.array([0.01, 0.01, 0.05, 0.1, 0.02])
    truth2 = np.array([5.0, -3.0, 0.0, 0.0, 60.0, 0.0, 5.0, 1.0])
    track2 = TrackEstimate(
        mean=truth2,
        covariance=np.diag([4.0, 4.0, 1.0, 1.0, 1.0, 0.01, 0.04, 0.0025]),
        process_noise=np.diag([1e-6] * 5 + [1e-8] * 3),
        observation_noise=np.diag((true_std * 2.0) ** 2),
    )
    cfg2 = FilterConfig(alpha_forget=0.97)
    for _ in range(500):
        z = observe(truth2) + rng.normal(size=5) * true_std
        track2 = step_track(track2, z, 1.0, cfg2, DEFAULT_ELLIPSE)
    estimated = float(np.trace(track2.observation_noise))
    expected = float(np.sum(true_std**2))
    rel = abs(estimated - expected) / expected
    assert rel < 0.25
    _report("8 filter sanity", f"lock-on err {err:.2e} m, R trace off by {rel:.1%}")


def test_criterion_9_cli_determinism(tmp_path):
    sim_cfg = tmp_path / "sim.yaml"
    sim_cfg.write_text(
        "area: {width: 600.0, height: 600.0}\n"
        "case: 2\n"
        "fire: {initial_count: 5, layout: clusters, cluster_count: 2}\n"
        "teams: {count: 1}\n"
        "uavs: {count: 2}\n"
        "vicinity_radius: 150.0\n"
        "duration: 15\n"
    )
    sweep_cfg = tmp_path / "sweep.yaml"
    sweep_cfg.write_text(
        "area: {width: 1600.0, height: 1600.0}\n"
        "fire: {initial_count: 2, layout: team_clusters, spawn_interval: 25, max_per_lineage: 4}\n"
        "teams: {count: 1}\n"
        "uavs: {count: 0}\n"
        "vicinity_radius: 100.0\n"
        "duration: 20\n"
    )
    commands = {
        "simulate-csv": ["simulate", "--config", str(sim_cfg), "--seed", "4", "--format", "csv"],
        "simulate-json": ["simulate", "--config", str(sim_cfg), "--seed", "4", "--format", "json"],
        "sweep-safety": ["sweep-safety", "--config", str(sweep_cfg), "--max-teams", "2", "--trials", "2"],
        "compare": ["compare", "--config", str(sim_cfg), "--drones", "1,2", "--trials", "2"],
    }
    for name, argv in commands.items():
        contents = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            files = sorted(p.name for p in out.iterdir())
            assert files, f"{name} produced no output"
            contents.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert contents[0] == contents[1], f"{name} output differs between reruns"
    _report("9 cli determinism", f"{len(commands)} commands byte-identical across reruns")
