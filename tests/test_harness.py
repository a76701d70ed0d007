from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emberwatch.config import (
    AreaConfig,
    FireConfigSection,
    ScenarioConfig,
    TeamConfigSection,
    UavConfigSection,
    load_config,
    scenario_from_dict,
    team_positions,
)
from emberwatch.harness import (
    compare_controllers,
    min_drones_for_run,
    run_scenario,
    sweep_safety,
)

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def coverage_config(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        area=AreaConfig(600.0, 600.0),
        case=1,
        fire=FireConfigSection(initial_count=6, layout="clusters", cluster_count=2, cluster_spread=8.0),
        teams=TeamConfigSection(count=0),
        uavs=UavConfigSection(count=2),
        duration=40,
        rng_seed=0,
    )
    return replace(cfg, **overrides)


def safety_config(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        area=AreaConfig(1600.0, 1600.0),
        case=1,
        fire=FireConfigSection(initial_count=3, layout="team_clusters", spawn_interval=25, max_per_lineage=4),
        teams=TeamConfigSection(count=1),
        uavs=UavConfigSection(count=0),
        vicinity_radius=100.0,
        duration=60,
        rng_seed=0,
    )
    return replace(cfg, **overrides)


class TestRunScenario:
    def test_single_step_run(self):
        metrics = run_scenario(coverage_config(duration=1))
        assert len(metrics.uncovered) == 1
        assert len(metrics.cum_uncertainty) == 1
        assert len(metrics.mean_trace_covariance) == 1

    def test_cumulative_is_non_decreasing(self):
        metrics = run_scenario(coverage_config(duration=60))
        cum = metrics.cum_uncertainty
        assert all(a <= b for a, b in zip(cum, cum[1:]))
        assert cum[-1] == sum(metrics.uncovered)

    def test_same_seed_identical_different_seed_not(self):
        a = run_scenario(coverage_config())
        b = run_scenario(coverage_config())
        c = run_scenario(coverage_config(rng_seed=1))
        assert a.uncovered == b.uncovered
        assert a.mean_trace_covariance == b.mean_trace_covariance
        assert (a.uncovered != c.uncovered) or (
            a.mean_trace_covariance != c.mean_trace_covariance
        )

    def test_update_below_ground_skips_one_update_not_the_run(self):
        # A near-90-degree camera with a 300 m detection spread: the first
        # update moves a track's UAV altitude estimate below zero.
        cfg = scenario_from_dict({
            "area": {"width": 300.0, "height": 300.0},
            "fire": {"initial_count": 4},
            "teams": {"count": 2},
            "uavs": {"count": 3, "half_angle": 1.5707963267948963},
            "duration": 3,
            "rng_seed": 77,
            "filter": {"init_position_std": 300.0},
        })
        assert len(run_scenario(cfg).uncovered) == 3

    def test_filter_fault_skips_one_update_not_the_run(self, monkeypatch):
        import emberwatch.tracking as tracking
        from emberwatch.errors import SingularResidual

        cfg = replace(load_config(CONFIG_DIR / "case3.yaml"), duration=40)
        clean = run_scenario(cfg)
        gain = tracking.kalman_gain

        def run_with_fault():
            calls = 0

            def faulty(*args):
                nonlocal calls
                calls += 1
                if calls == 3:
                    raise SingularResidual("injected")
                return gain(*args)

            monkeypatch.setattr(tracking, "kalman_gain", faulty)
            return run_scenario(cfg), calls

        a, calls = run_with_fault()
        b, _ = run_with_fault()
        assert calls > 3  # the fault fired and filtering went on
        assert len(a.uncovered) == cfg.duration
        assert a.to_csv() == b.to_csv()
        assert a.to_csv() != clean.to_csv()  # the faulted track was only predicted

    def test_uav_eventually_covers_single_cluster(self):
        cfg = coverage_config(
            fire=FireConfigSection(initial_count=3, layout="clusters", cluster_count=1, cluster_spread=5.0),
            uavs=UavConfigSection(count=1),
            duration=100,
        )
        metrics = run_scenario(cfg)
        # once the UAV parks on the cluster nothing stays uncovered
        assert metrics.uncovered[-1] == 0
        assert sum(metrics.uncovered[-20:]) == 0

    def test_gradient_controller_runs(self):
        metrics = run_scenario(coverage_config(controller="gradient", duration=30))
        assert len(metrics.uncovered) == 30
        assert metrics.final_cum_uncertainty >= 0

    def test_no_fires_scores_zero(self):
        cfg = coverage_config(
            fire=FireConfigSection(initial_count=0, layout="uniform"), duration=10
        )
        for controller in ("proposed", "gradient"):
            metrics = run_scenario(replace(cfg, controller=controller))
            assert metrics.final_cum_uncertainty == 0

    def test_safety_run_recruits_and_reports(self):
        metrics = run_scenario(safety_config(), safety_only=True)
        assert metrics.drones_recruited[0] >= 1
        assert 0 in metrics.bound_confidence
        joint, complement = metrics.bound_confidence[0]
        assert joint == pytest.approx(1 - complement)

    def test_wind_schedule_applies(self):
        shift = {"step": 5, "wind_speed": 9.0, "wind_azimuth": 2.0}
        cfg = coverage_config(duration=10)
        cfg = replace(cfg, fire=replace(cfg.fire, schedule=()))
        from emberwatch.config import WindShift

        shifted = replace(cfg, fire=replace(cfg.fire, schedule=(WindShift(**shift),)))
        a = run_scenario(cfg)
        b = run_scenario(shifted)
        assert len(b.uncovered) == 10
        # schedules change the run (weather observations move)
        assert (a.mean_trace_covariance != b.mean_trace_covariance)


class TestFleetMonotonicity:
    def test_more_uavs_never_hurt_below_saturation(self):
        for name in ("case1.yaml", "case2.yaml"):
            cfg = replace(load_config(CONFIG_DIR / name), duration=80)
            finals = {}
            for n in (1, 2, 3):
                finals[n] = run_scenario(
                    replace(cfg, uavs=replace(cfg.uavs, count=n))
                ).final_cum_uncertainty
            assert finals[2] <= finals[1]
            assert finals[3] <= finals[2]

    def test_doubling_ladder_non_increasing(self):
        cfg = replace(load_config(CONFIG_DIR / "case1.yaml"), duration=80)
        finals = [
            run_scenario(replace(cfg, uavs=replace(cfg.uavs, count=n))).final_cum_uncertainty
            for n in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(finals, finals[1:]))


class TestSafetyDemand:
    def test_easy_single_team_needs_one_drone(self):
        cfg = safety_config(rng_seed=0)
        drones, feasible = min_drones_for_run(cfg)
        assert feasible
        assert drones == 1

    def test_demand_monotone_in_teams_per_seed(self):
        values = []
        for teams in (1, 2, 3):
            cfg = safety_config(teams=TeamConfigSection(count=teams), case=2)
            drones, _ = min_drones_for_run(cfg)
            values.append(drones)
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_team_zero_outputs_ignore_added_teams(self, case):
        base = load_config(CONFIG_DIR / "sweep.yaml")
        for seed in (0, 1, 2):
            seen = set()
            for teams in (1, 2, 4, 8):
                cfg = replace(base, case=case, rng_seed=seed, teams=replace(base.teams, count=teams))
                metrics = run_scenario(cfg, safety_only=True)
                seen.add((metrics.drones_recruited[0], metrics.bound_confidence[0]))
            assert len(seen) == 1, (seed, seen)

    def test_team_positions_nested(self):
        small = safety_config(teams=TeamConfigSection(count=2))
        large = safety_config(teams=TeamConfigSection(count=5))
        a = team_positions(small)
        b = team_positions(large)
        for pa, pb in zip(a, b):
            assert np.allclose(pa, pb)


class TestSweeps:
    def test_sweep_shapes_and_rows(self):
        result = sweep_safety(safety_config(duration=40), max_teams=2, trials=2)
        assert len(result.rows) == 3 * 2 * 2  # cases x teams x trials
        for case in (1, 2, 3):
            assert set(result.summary[case]) == {1, 2}
        header = result.to_csv().splitlines()[0]
        assert header == "case,teams,trial,min_drones"

    def test_compare_shapes_and_rows(self):
        cfg = coverage_config(duration=25)
        result = compare_controllers(cfg, [1, 2], trials=2)
        assert len(result.rows) == 3 * 2 * 2 * 2
        header = result.to_csv().splitlines()[0]
        assert header == "case,controller,drones,trial,cum_uncertainty"
        for key, (mean, se) in result.summary.items():
            assert mean >= 0 and se >= 0


class TestRunInvariants:
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_every_covariance_stays_symmetric_finite_and_psd(self, case, monkeypatch):
        import emberwatch.harness as harness

        covariances = []
        for name in ("step_track", "predict"):
            step = getattr(harness, name)

            def capture(*args, _step=step, **kwargs):
                track = _step(*args, **kwargs)
                covariances.append(track.covariance)
                return track

            monkeypatch.setattr(harness, name, capture)
        cfg = load_config(CONFIG_DIR / f"case{case}.yaml")
        for seed in (0, 1):
            run_scenario(replace(cfg, duration=80, rng_seed=seed))
        assert len(covariances) >= 2 * 80 * cfg.fire.initial_count
        for P in covariances:
            assert np.isfinite(P).all()
            assert np.array_equal(P, P.T)
            eigenvalues = np.linalg.eigvalsh(P)
            assert eigenvalues[0] >= -1e-12 * max(1.0, eigenvalues[-1])

    def test_in_process_reruns_are_byte_identical(self):
        # Each second call follows a call on another config, so state left
        # behind by one run (a cache, a shared array) would show.
        runs = [replace(load_config(CONFIG_DIR / f"case{c}.yaml"), duration=40) for c in (1, 2, 3)]
        first = [run_scenario(cfg) for cfg in runs]
        second = [run_scenario(cfg) for cfg in reversed(runs)][::-1]
        for a, b in zip(first, second):
            assert a.to_csv() == b.to_csv()
            assert a.to_json() == b.to_json()

        sweep = replace(load_config(CONFIG_DIR / "sweep.yaml"), duration=30)
        first_sweep = sweep_safety(sweep, max_teams=2, trials=2).to_csv()
        sweep_safety(replace(sweep, rng_seed=sweep.rng_seed + 5), max_teams=1, trials=1)
        assert sweep_safety(sweep, max_teams=2, trials=2).to_csv() == first_sweep

        compare = replace(load_config(CONFIG_DIR / "compare.yaml"), duration=20)
        first_compare = compare_controllers(compare, [1, 2], trials=1).to_csv()
        compare_controllers(replace(compare, rng_seed=compare.rng_seed + 5), [1], trials=1)
        assert compare_controllers(compare, [1, 2], trials=1).to_csv() == first_compare


class TestMetricsSerialization:
    def test_csv_header_and_shape(self):
        metrics = run_scenario(coverage_config(duration=5))
        lines = metrics.to_csv().splitlines()
        assert lines[0] == "step,uncovered_count,cum_uncertainty,mean_trace_P,active_uavs"
        assert len(lines) == 6
        assert lines[1].startswith("0,")

    def test_json_round_trip(self):
        import json

        metrics = run_scenario(coverage_config(duration=5))
        payload = json.loads(metrics.to_json())
        assert len(payload["steps"]) == 5
        assert payload["summary"]["final_cum_uncertainty"] == metrics.final_cum_uncertainty

    def test_wall_clock_not_serialized(self):
        metrics = run_scenario(coverage_config(duration=3))
        assert len(metrics.wall_clock) == 3
        assert "wall" not in metrics.to_csv()
        assert "wall" not in metrics.to_json()
