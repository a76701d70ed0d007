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
    experiment_cells,
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
            "rng_seed": 76,
            "filter": {"init_position_std": 300.0},
        })
        metrics = run_scenario(cfg)
        assert len(metrics.uncovered) == 3
        assert metrics.filter_faults >= 1

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

    def test_filter_faults_are_counted_in_the_json_summary(self, monkeypatch):
        import json

        import emberwatch.tracking as tracking
        from emberwatch.errors import SingularResidual

        cfg = replace(load_config(CONFIG_DIR / "case3.yaml"), duration=20)
        clean = run_scenario(cfg)
        gain = tracking.kalman_gain
        calls = 0

        def faulty(*args):
            nonlocal calls
            calls += 1
            if calls == 5:
                raise SingularResidual("injected")
            return gain(*args)

        monkeypatch.setattr(tracking, "kalman_gain", faulty)
        faulted = run_scenario(cfg)
        assert calls > 5
        assert clean.filter_faults == 0
        assert faulted.filter_faults == 1
        assert json.loads(faulted.to_json())["summary"]["filter_faults"] == 1
        assert "fault" not in faulted.to_csv()

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
        metrics = run_scenario(safety_config())
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
    def test_fleetless_config_recruits_on_demand(self):
        cfg = load_config(CONFIG_DIR / "sweep.yaml")
        metrics = run_scenario(cfg)
        assert metrics.drones_recruited == {0: 1}
        assert metrics.plans_feasible
        assert metrics.final_cum_uncertainty == 13
        assert min_drones_for_run(cfg) == (sum(metrics.drones_recruited.values()), True)

    def test_min_drones_ignores_the_fleet(self):
        cfg = load_config(CONFIG_DIR / "sweep.yaml")
        fleet = replace(cfg, uavs=replace(cfg.uavs, count=4))
        assert min_drones_for_run(fleet) == min_drones_for_run(cfg)

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
                metrics = run_scenario(cfg)
                seen.add((metrics.drones_recruited[0], metrics.bound_confidence[0]))
            assert len(seen) == 1, (seed, seen)

    def test_team_positions_nested(self):
        small = safety_config(teams=TeamConfigSection(count=2))
        large = safety_config(teams=TeamConfigSection(count=5))
        a = team_positions(small)
        b = team_positions(large)
        for pa, pb in zip(a, b):
            assert np.allclose(pa, pb)


class TestFleetRecruitment:
    """Teams that recruit from a coverage fleet rather than from staging pools."""

    @staticmethod
    def record_steps(monkeypatch):
        """Per step: each planning team's assigned UAVs and whether it took a coverage UAV;
        and coverage_step's step, the due it was passed and the due it returned.

        The proposed controller calls coverage_step once per step, after
        every team's plan of that step.
        """
        import emberwatch.harness as harness

        plan_safety_tour, coverage_step = harness.plan_safety_tour, harness.coverage_step
        plans, calls = [{}], []

        def recorded_plan(*args, **kwargs):
            plan, assigned = plan_safety_tour(*args, **kwargs)
            # apply_safety_plan has not run yet, so a UAV taken off coverage still says so.
            plans[-1][kwargs["team"].id] = ([a.id for a in assigned], any(a.mode == "coverage" for a in assigned))
            return plan, assigned

        def recorded_coverage(*args, **kwargs):
            due = coverage_step(*args, **kwargs)
            calls.append((kwargs["step"], kwargs["due"], due))
            plans.append({})
            return due

        monkeypatch.setattr(harness, "plan_safety_tour", recorded_plan)
        monkeypatch.setattr(harness, "coverage_step", recorded_coverage)
        return plans, calls

    def test_teams_share_no_uav_and_take_only_fleet_uavs(self, monkeypatch):
        base = load_config(CONFIG_DIR / "sweep.yaml")
        cfg = replace(base, case=2, uavs=replace(base.uavs, count=3), teams=replace(base.teams, count=6))
        plans, _ = self.record_steps(monkeypatch)
        metrics = run_scenario(cfg)
        assert sum(metrics.drones_recruited.values()) == 3  # the pool runs dry
        assert metrics.active_uavs == [3] * cfg.duration
        held: dict[int, list[int]] = {}
        for step in plans:
            held.update({team: ids for team, (ids, _) in step.items()})
            taken = [uav for ids in held.values() for uav in ids]
            assert len(taken) == len(set(taken))
            assert set(taken) <= set(range(cfg.uavs.count))

    def test_coverage_replans_exactly_when_a_team_takes_a_coverage_uav(self, monkeypatch):
        base = load_config(CONFIG_DIR / "case3.yaml")
        cfg = replace(base, teams=replace(base.teams, count=2))
        plans, calls = self.record_steps(monkeypatch)
        run_scenario(cfg)
        took = [any(t for _, t in step.values()) for step in plans[: len(calls)]]
        # The run passes on the due that the last call returned, and makes
        # the step itself due exactly when a team took a coverage UAV.
        kept = 0
        for (step, passed, returned), taken in zip(calls, took):
            assert passed == (step if taken else kept)
            kept = returned
        assert any(took)


class TestSweeps:
    def test_sweep_shapes_and_rows(self):
        result = sweep_safety(safety_config(duration=40), max_teams=2, trials=2)
        assert len(result.rows) == 3 * 2 * 2  # cases x teams x trials
        assert set(result.summary) == {(case, teams) for case in (1, 2, 3) for teams in (1, 2)}
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

    @pytest.mark.parametrize(
        "command, sizes, run",
        [
            ("sweep-safety", range(1, 3), lambda cfg: sweep_safety(cfg, 2, 2)),
            ("compare", [2, 1], lambda cfg: compare_controllers(cfg, [2, 1], 2)),
        ],
    )
    def test_plan_keys_are_the_csv_row_keys_in_order(self, command, sizes, run):
        cfg = safety_config(duration=20) if command == "sweep-safety" else coverage_config(duration=10)
        keys = [key for key, _ in experiment_cells(cfg, command, sizes, 2)]
        rows = [line.split(",")[:-1] for line in run(cfg).to_csv().splitlines()[1:]]
        assert rows == [[str(part) for part in key] for key in keys]
        assert len(keys) == 3 * (1 if command == "sweep-safety" else 2) * 2 * 2

    def test_plan_derives_each_cell_from_the_base_config(self):
        cfg = coverage_config(rng_seed=7)
        for (case, teams, trial), cell in experiment_cells(cfg, "sweep-safety", [3], 2):
            assert (cell.case, cell.teams.count, cell.rng_seed) == (case, teams, 7 + trial)
            assert (cell.fire.layout, cell.uavs.count, cell.controller) == ("team_clusters", 0, "proposed")
        for (case, controller, drones, trial), cell in experiment_cells(cfg, "compare", [3], 2):
            assert (cell.case, cell.controller, cell.uavs.count, cell.rng_seed) == (case, controller, drones, 7 + trial)
            assert (cell.fire.layout, cell.teams.count) == ("clusters", 0)

    @pytest.mark.parametrize(
        "command, sizes, trials",
        [("compare", [4, 1, 4], 1), ("sweep-safety", [1], 0), ("compare", [1], 0), ("simulate", [1], 1)],
    )
    def test_plan_refuses_bad_arguments_before_any_cell(self, command, sizes, trials):
        with pytest.raises(ValueError):
            experiment_cells(coverage_config(), command, sizes, trials)


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


def keyed_draw_mismatches(cfg, monkeypatch):
    """Run cfg and check every keyed draw a front receives against the single-id draw of its key.

    Detection noise is checked where `_init_track` receives it, spawn
    draws where `spawn_fronts` does, and observation noise row by row
    where `_make_observations` receives a step's batch; every observed
    front of every step has its row checked. Motion noise is checked on
    each fire step's result: a moved front sits at its Euler step plus
    noise_std times the single-id motion draw. Returns the number of
    draws seen per kind and the (kind, key) of each draw that differs.
    """
    import emberwatch.fire as fire
    import emberwatch.harness as harness
    from emberwatch.fire import keyed_normal, keyed_uniform

    seed = cfg.rng_seed
    received = []
    step = [0]
    front_counts = []
    simulate_step = harness.simulate_step

    def stepping(fire_map, dt):
        step[0] = fire_map.step
        moved = simulate_step(fire_map, dt)
        front_counts.append(len(moved.fronts))
        for f, after in zip(fire_map.fronts, moved.fronts):
            key = (fire._S_MOTION, step[0])
            noise = fire_map.noise_std * keyed_normal(seed, key, [f.id], 2)[0]
            expected = f.position + fire.front_velocity(fire_map.wind_fuel, fire_map.params) * dt + noise
            received.append(("motion", (*key, f.id), np.array_equal(after.position, expected)))
        return moved

    def audit(module, name, noise_at, key, draw, k):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            prefix, front_ids = key(args)
            rows = np.reshape(args[noise_at], (len(front_ids), k(args)))
            for front_id, row in zip(front_ids, rows):
                expected = draw(seed, prefix, [front_id], k(args))[0]
                received.append((name, (*prefix, front_id), np.array_equal(row, expected)))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(harness, "simulate_step", stepping)
    audit(harness, "_init_track", 5, lambda a: ((harness._S_DETECT,), [a[0].id]), keyed_normal, lambda a: 5)
    audit(
        harness,
        "_make_observations",
        4,
        lambda a: ((harness._S_OBS, step[0]), [f.id for f in a[0]]),
        keyed_normal,
        lambda a: 5,
    )
    audit(
        fire, "spawn_fronts", 4, lambda a: ((fire._S_SPAWN, step[0]), [a[0].id]), keyed_uniform, lambda a: 1 + 2 * a[1]
    )
    metrics = run_scenario(cfg)

    counts: dict[str, int] = {}
    wrong = []
    for name, key, equal in received:
        counts[name] = counts.get(name, 0) + 1
        if not equal:
            wrong.append((name, key))
    observed = sum(n - uncovered for n, uncovered in zip(front_counts, metrics.uncovered))
    assert counts.get("_make_observations", 0) == observed
    return counts, wrong


class TestKeyedStreams:
    """Each keyed draw of a run is the single-id draw of its own key."""

    AUDITED = {"_init_track", "_make_observations", "motion", "spawn_fronts"}

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_every_case_config_draws_from_its_keys(self, case, monkeypatch):
        cfg = replace(load_config(CONFIG_DIR / f"case{case}.yaml"), duration=40, rng_seed=3)
        counts, wrong = keyed_draw_mismatches(cfg, monkeypatch)
        assert not wrong, wrong[:5]
        assert set(counts) == self.AUDITED - ({"spawn_fronts"} if case != 3 else set())

    def test_sweep_cell_draws_from_its_keys(self, monkeypatch):
        base = load_config(CONFIG_DIR / "sweep.yaml")
        cfg = replace(base, case=3, duration=40, rng_seed=2, teams=replace(base.teams, count=3))
        counts, wrong = keyed_draw_mismatches(cfg, monkeypatch)
        assert not wrong, wrong[:5]
        assert set(counts) == self.AUDITED

    def test_a_batch_drawn_out_of_id_order_fails_the_audit(self, monkeypatch):
        import emberwatch.fire as fire
        import emberwatch.harness as harness

        def reversed_batch(seed, prefix, ids, k):
            return fire.keyed_normal(seed, prefix, list(ids)[::-1], k)

        monkeypatch.setattr(harness, "keyed_normal", reversed_batch)
        cfg = replace(load_config(CONFIG_DIR / "case2.yaml"), duration=40, rng_seed=3)
        counts, wrong = keyed_draw_mismatches(cfg, monkeypatch)
        assert {name for name, _ in wrong} == {"_init_track", "_make_observations"}

    def test_every_purpose_has_its_own_key(self):
        import emberwatch.fire as fire
        import emberwatch.harness as harness

        purposes = [getattr(harness, name) for name in dir(harness) if name.startswith("_S_")]
        purposes += [fire._S_MOTION, fire._S_SPAWN]
        assert len(purposes) == 6
        assert len(set(purposes)) == len(purposes)


def layout_per_fire(cfg):
    """Uniform or clusters positions drawn one (2,) call per fire, as the layout once was."""
    from emberwatch.harness import _S_LAYOUT, _stream

    w, h, n = cfg.area.width, cfg.area.height, cfg.fire.initial_count
    rng = _stream(cfg.rng_seed, _S_LAYOUT)
    if cfg.fire.layout == "uniform":
        return [rng.uniform([0.0, 0.0], [w, h]) for _ in range(n)]
    margin = 0.15
    centers = [
        rng.uniform([margin * w, margin * h], [(1 - margin) * w, (1 - margin) * h])
        for _ in range(cfg.fire.cluster_count)
    ]
    return [centers[i % len(centers)] + rng.normal(0.0, cfg.fire.cluster_spread, size=2) for i in range(n)]


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestBatchedPaths:
    """Each batched step path gives the bits of its per-entity form."""

    @pytest.mark.parametrize("layout", ["uniform", "clusters"])
    @pytest.mark.parametrize("n", [0, 1, 60])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
    def test_layout_equals_one_draw_per_fire(self, layout, n, seed):
        from emberwatch.harness import _initial_layout

        base = coverage_config()
        cfg = replace(base, fire=replace(base.fire, layout=layout, initial_count=n, cluster_count=3), rng_seed=seed)
        positions, ids = _initial_layout(cfg, ())
        assert ids == list(range(1, n + 1))
        assert same_bits(np.reshape(positions, (-1, 2)), np.reshape(layout_per_fire(cfg), (-1, 2)))

    def test_mean_trace_equals_the_per_matrix_traces(self):
        from emberwatch.harness import _mean_trace

        rng = np.random.default_rng(11)
        random = rng.normal(size=(2000, 8, 8)) * rng.uniform(1e-3, 1e3, size=(2000, 1, 1))
        huge = rng.normal(size=(50, 8, 8)) * 1e300  # diagonal sums overflow to +-inf
        bad = rng.normal(size=(30, 8, 8))
        for k, value in enumerate((np.inf, -np.inf, np.nan)):
            bad[k::3, k, k] = value
        for batch in (random, huge, bad, bad[:2], bad[:1]):
            expected = [float(P.trace()) for P in batch]
            assert repr(_mean_trace(list(batch))) == repr(sum(expected) / len(expected))
        for P in random:
            assert same_bits(_mean_trace([P]), float(P.trace()))
        assert _mean_trace([]) == 0.0

    def test_observations_equal_observe_plus_noise_per_front(self):
        from emberwatch.fire import FireFront, WindFuelState
        from emberwatch.harness import _make_observations
        from emberwatch.tracking import observe

        cfg = coverage_config()
        fl = cfg.filter
        sigma = np.array([fl.obs_angle_std, fl.obs_angle_std, *fl.obs_weather_std])
        rng = np.random.default_rng(5)
        wind = WindFuelState(0.3, 4.0, 2.5)
        # numpy's SIMD arctan differs from math.atan in the last bit on about
        # 0.1% of random angles (AVX-512 host), so a large batch shows it.
        for n in (0, 1, 40, 3000):
            fronts = [FireFront(i, rng.uniform(-500.0, 500.0, size=2)) for i in range(n)]
            poses = [np.array([*rng.uniform(-500.0, 500.0, size=2), rng.uniform(1e-3, 200.0)]) for _ in range(n)]
            noise = rng.normal(size=(n, 5))
            rows = _make_observations(fronts, poses, wind, cfg, noise)
            assert rows.shape == (n, 5)
            for f, pose, row, eps in zip(fronts, poses, rows, noise):
                truth = np.array([*f.position, *pose, wind.spread_rate, wind.wind_speed, wind.wind_azimuth])
                assert same_bits(row, observe(truth) + eps * sigma)

    def test_observing_from_the_ground_is_refused_as_observe_refuses_it(self):
        from emberwatch.errors import DomainError
        from emberwatch.fire import FireFront, WindFuelState
        from emberwatch.harness import _make_observations

        front = FireFront(1, np.zeros(2))
        wind, pose = WindFuelState(0.1, 1.0, 0.0), np.array([1.0, 1.0, 0.0])
        with pytest.raises(DomainError, match="uav_z"):
            _make_observations([front], [pose], wind, coverage_config(), np.zeros((1, 5)))


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
