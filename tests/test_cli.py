import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from emberwatch.cli import main
from emberwatch.config import ScenarioConfig, load_config

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def write_tiny_config(path: Path, teams: int = 0, extra: str = "") -> Path:
    path.write_text(
        "area: {width: 600.0, height: 600.0}\n"
        "case: 1\n"
        "fire:\n"
        "  initial_count: 4\n"
        "  layout: clusters\n"
        "  cluster_count: 2\n"
        f"teams: {{count: {teams}}}\n"
        "uavs: {count: 2}\n"
        "vicinity_radius: 100.0\n"
        "duration: 12\n"
        "rng_seed: 3\n"
        + extra
    )
    return path


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "steps.csv").read_text().splitlines()
    assert lines[0] == "step,uncovered_count,cum_uncertainty,mean_trace_P,active_uavs"
    assert len(lines) == 13
    assert "final cumulative uncertainty" in capsys.readouterr().out


def test_simulate_json_format(tmp_path):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    import json

    payload = json.loads((out / "steps.json").read_text())
    assert len(payload["steps"]) == 12


def test_simulate_seed_and_controller_overrides(tmp_path):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(out_a), "--seed", "9"])
    main(["simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "9",
          "--controller", "gradient"])
    assert (out_a / "steps.csv").read_text() != (out_b / "steps.csv").read_text()


def test_sweep_safety_writes_schema(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "area: {width: 1600.0, height: 1600.0}\n"
        "fire: {initial_count: 2, layout: team_clusters, spawn_interval: 25, max_per_lineage: 4}\n"
        "teams: {count: 1}\n"
        "uavs: {count: 0}\n"
        "vicinity_radius: 100.0\n"
        "duration: 25\n"
    )
    out = tmp_path / "out"
    assert main(["sweep-safety", "--config", str(cfg), "--out", str(out),
                 "--max-teams", "2", "--trials", "2"]) == 0
    rows = (out / "safety_sweep.csv").read_text().splitlines()
    assert rows[0] == "case,teams,trial,min_drones"
    assert len(rows) == 1 + 3 * 2 * 2
    summary = (out / "safety_summary.csv").read_text().splitlines()
    assert summary[0] == "case,teams,mean_min_drones,se_min_drones"


def test_compare_writes_schema(tmp_path):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out),
                 "--drones", "1,2", "--trials", "2"]) == 0
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0] == "case,controller,drones,trial,cum_uncertainty"
    assert len(rows) == 1 + 3 * 2 * 2 * 2


def test_config_error_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("case: 1\nnonsense: true\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


BAD_VALUES = [
    pytest.param("dt", {"dt": "1"}, id="dt-string"),
    pytest.param("duration", {"duration": 2.5}, id="duration-float"),
    pytest.param("uavs.count", {"uavs": {"count": "abc"}}, id="uavs-count-string"),
    pytest.param("vicinity_radius", {"vicinity_radius": [1]}, id="vicinity-radius-list"),
    pytest.param("vicinity_radius", {"vicinity_radius": 0.0}, id="vicinity-radius-zero"),
    pytest.param(
        "filter.init_weather_std[0]", {"filter": {"init_weather_std": ["a", 1, 1]}}, id="weather-std-string"
    ),
    pytest.param(
        "teams.positions[0][0]", {"teams": {"count": 1, "positions": [["a", 1]]}}, id="team-position-string"
    ),
    pytest.param("area.width", {"area": {"width": float("inf")}}, id="area-width-inf"),
    pytest.param("rng_seed", {"rng_seed": -1}, id="rng-seed-negative"),
    pytest.param("case", {"case": True}, id="case-bool"),
    pytest.param("case", {"case": 1.0}, id="case-float"),
    pytest.param(
        "fire.schedule[0].step",
        {"fire": {"schedule": [{"step": 1.5, "wind_speed": 5.0, "wind_azimuth": 0.5}]}},
        id="schedule-step-float",
    ),
    pytest.param("fire.wind_speed", {"fire": {"wind_speed": 1.0e300}}, id="wind-speed-overflow"),
    pytest.param("filter.obs_angle_std", {"filter": {"obs_angle_std": 1.0e300}}, id="obs-angle-std-overflow"),
    pytest.param(
        "filter.init_position_std", {"filter": {"init_position_std": 1.0e200}}, id="init-position-std-overflow"
    ),
    # rules owned by the domain objects that validation builds
    pytest.param("fire.wind_speed", {"fire": {"wind_speed": -1.0}}, id="wind-speed-negative"),
    pytest.param(
        "fire.schedule[1].wind_speed",
        {"fire": {"schedule": [
            {"step": 2, "wind_speed": 4.0, "wind_azimuth": 0.5},
            {"step": 5, "wind_speed": -2.0, "wind_azimuth": 0.5},
        ]}},
        id="schedule-wind-negative",
    ),
    pytest.param("fire.spawn_interval", {"fire": {"spawn_interval": 0}}, id="spawn-interval-zero"),
    pytest.param("fire.spawn_rate_max", {"fire": {"spawn_rate_max": 8}}, id="spawn-rate-above-max"),
    pytest.param("fire.spawn_rate_max", {"fire": {"spawn_rate_max": -1}}, id="spawn-rate-negative"),
    pytest.param("fire.spawn_rate_max", {"case": 3, "fire": {"spawn_rate_max": 0}}, id="case3-no-spawning"),
    pytest.param("fire.speed", {"case": 2, "fire": {"speed": -0.5}}, id="fire-speed-negative"),
    pytest.param("fire.speed", {"fire": {"speed": 0.5}}, id="case1-fire-speed"),
    pytest.param("fire.speed", {"case": 2, "fire": {"wind_speed": 0.0}}, id="speed-without-wind"),
    pytest.param("fire.ellipse", {"fire": {"ellipse": {"l": -0.5}}}, id="ellipse-below-one"),
    pytest.param("uavs.speed", {"uavs": {"speed": 0.0}}, id="uav-speed-zero"),
    pytest.param("uavs.altitude", {"uavs": {"altitude": -40.0}}, id="uav-altitude-negative"),
    pytest.param("uavs.half_angle", {"uavs": {"half_angle": 1.6}}, id="half-angle-too-wide"),
    pytest.param("filter.alpha_forget", {"filter": {"alpha_forget": 1.5}}, id="alpha-forget-above-one"),
    pytest.param("gradient.step_size", {"gradient": {"step_size": 0.0}}, id="gradient-step-zero"),
    pytest.param(
        "gradient.separation_radius", {"gradient": {"separation_radius": -1.0}}, id="separation-radius-negative"
    ),
    pytest.param(
        "gradient.separation_weight", {"gradient": {"separation_weight": -1.0}}, id="separation-weight-negative"
    ),
    pytest.param(
        "gradient.altitude_min", {"gradient": {"altitude_min": 50.0, "altitude_max": 20.0}}, id="altitude-band-inverted"
    ),
    pytest.param("uavs.altitude", {"uavs": {"altitude": 500.0}}, id="altitude-outside-band"),
    # values that used to pass validation and then crash the run
    pytest.param("dt", {"case": 2, "dt": 1.0e300}, id="dt-1e300"),
    pytest.param("dt", {"case": 3, "dt": 1.0e308}, id="dt-1e308"),
    pytest.param("area.width", {"case": 2, "area": {"width": 1.0e308}}, id="area-width-1e308"),
    pytest.param("area.height", {"case": 3, "area": {"height": 1.0e300}}, id="area-height-1e300"),
    pytest.param("fire.speed", {"case": 2, "fire": {"speed": 1.0e300}}, id="fire-speed-1e300"),
    pytest.param("fire.speed", {"case": 3, "fire": {"speed": 1.0e308}}, id="fire-speed-1e308"),
    pytest.param("fire.cluster_spread", {"case": 2, "fire": {"cluster_spread": 1.0e300}}, id="cluster-spread-1e300"),
    pytest.param("fire.cluster_spread", {"case": 3, "fire": {"cluster_spread": 1.0e308}}, id="cluster-spread-1e308"),
    pytest.param(
        "filter.init_position_std", {"filter": {"init_position_std": 1.0e154}}, id="init-position-std-1e154"
    ),
    pytest.param(
        "fire.initial_count",
        {"fire": {"initial_count": 100_001, "layout": "team_clusters"}, "teams": {"count": 2}},
        id="team-cluster-id-collision",
    ),
    pytest.param(
        "uavs.altitude",
        {"uavs": {"altitude": 5.0e-324}, "gradient": {"altitude_min": 5.0e-324}},
        id="altitude-footprint-underflow",
    ),
    # more fronts than the routing layer's dense distance arrays can hold
    pytest.param("fire.initial_count", {"fire": {"initial_count": 100_001, "layout": "uniform"}}, id="front-cap-initial"),
    # every other per-run entity count shares the front cap
    pytest.param("fire.cluster_count", {"fire": {"cluster_count": 10**400}}, id="cluster-count-1e400"),
    pytest.param("teams.count", {"teams": {"count": 4097}}, id="team-count-above-cap"),
    pytest.param("uavs.count", {"uavs": {"count": 4097}}, id="uav-count-above-cap"),
    pytest.param(
        "fire.max_per_lineage",
        {"case": 3, "duration": 300, "fire": {"initial_count": 12, "spawn_interval": 30, "max_per_lineage": 0}},
        id="front-cap-uncapped-lineages",
    ),
    pytest.param(
        "filter.init_weather_std",
        {"case": 2, "filter": {"init_weather_std": [0.08, 1.0e4, 0.04]}},
        id="first-wind-estimate-overflow",
    ),
    pytest.param("fire.ellipse", {"fire": {"ellipse": {"b": 1.7e308}}}, id="ellipse-exponent-overflow"),
    # 1 - alpha_conf rounds to 1, which has no finite normal quantile
    pytest.param("alpha_conf", {"case": 3, "teams": {"count": 1}, "alpha_conf": 1.0e-17}, id="alpha-conf-below-2**-54"),
    pytest.param("fire.ellipse", {"case": 2, "fire": {"ellipse": {"l": 1.0e154}}}, id="ellipse-square-overflow"),
    # 1.5 * wind + 1 is inf, which math.exp takes without an OverflowError
    pytest.param("fire.wind_speed", {"fire": {"wind_speed": 1.7e308}}, id="wind-range-inf"),
    pytest.param(
        "fire.schedule[0].wind_speed",
        {"fire": {"schedule": [{"step": 1, "wind_speed": 1.7e308, "wind_azimuth": 0.5}]}},
        id="schedule-wind-range-inf",
    ),
    # integers beyond float range, where a float conversion overflows
    pytest.param("fire.wind_speed", {"fire": {"wind_speed": 10**400}}, id="wind-speed-int-beyond-float"),
    pytest.param("duration", {"duration": 10**400}, id="duration-beyond-float"),
    # the extent rule charges the travel to its largest factor
    pytest.param("duration", {"duration": 10**300}, id="duration-1e300"),
    pytest.param("duration", {"duration": 10**99}, id="duration-1e99"),
    pytest.param(
        "fire.schedule[1].step",
        {"case": 2, "fire": {"schedule": [
            {"step": 5, "wind_speed": 3.0, "wind_azimuth": 0.5},
            {"step": 5, "wind_speed": 9.0, "wind_azimuth": 0.5},
        ]}},
        id="schedule-step-repeated",
    ),
]


@pytest.mark.parametrize("field, override", BAD_VALUES)
def test_bad_value_exits_two_naming_field(tmp_path, capsys, field, override):
    data = yaml.safe_load(write_tiny_config(tmp_path / "base.yaml").read_text())
    for key, value in override.items():
        data[key] = {**data[key], **value} if isinstance(value, dict) and key in data else value
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        # written as text: dumping an int of more than 4300 digits raises the same error
        pytest.param("fire: {wind_speed: 1" + "0" * 5000 + "}\n", id="int-beyond-digit-limit"),
        pytest.param("dt: 2024-13-45\n", id="timestamp-month-13"),
    ],
)
def test_unconstructible_yaml_value_exits_two_naming_file(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {cfg}: invalid YAML: " in capsys.readouterr().err


FUZZ_FLOATS = [
    "area.width", "area.height", "fire.speed", "fire.wind_speed", "fire.wind_azimuth", "fire.cluster_spread",
    "fire.process_noise_std", "fire.ellipse.b", "fire.ellipse.l", "uavs.speed", "uavs.altitude",
    "uavs.half_angle", "filter.alpha_forget", "filter.init_position_std", "filter.init_pose_std",
    "filter.process_pose_std", "filter.obs_angle_std", "gradient.step_size", "gradient.separation_weight",
    "gradient.separation_radius", "gradient.altitude_min", "gradient.altitude_max", "alpha_conf",
    "vicinity_radius", "dt",
]
FUZZ_INTS = ["fire.initial_count", "fire.cluster_count", "fire.spawn_rate_max", "fire.spawn_interval",
             "fire.max_per_lineage", "uavs.count"]
FUZZ_VALUES = [
    1.7e308, 1.0e300, 1.0e154, 1.0e100, 9.0e99, 1.0e30, 1.0e4, 300.0, 1.5707963267948963, 1.0e-20,
    1.0e-300, 5.0e-324, 0.0, -1.0, -1.0e300,
]


def random_config(rng) -> dict:
    """A small scenario with up to three fields set to ordinary, extreme or invalid values."""
    cfg = {
        "area": {"width": 300.0, "height": 300.0},
        "case": int(rng.integers(1, 4)),
        "fire": {"initial_count": int(rng.integers(0, 8)), "cluster_count": 2, "spawn_interval": 2,
                 "max_per_lineage": 3, "layout": ["uniform", "clusters", "ring", "team_clusters"][rng.integers(4)]},
        "teams": {"count": int(rng.integers(0, 3))},
        "uavs": {"count": int(rng.integers(0, 4))},
        "controller": ["proposed", "gradient"][rng.integers(2)],
        "vicinity_radius": 100.0,
        "duration": int(rng.integers(1, 5)),
        "rng_seed": int(rng.integers(0, 100)),
    }
    for _ in range(rng.integers(0, 4)):
        value = float(rng.choice(FUZZ_VALUES))
        kind = rng.uniform()
        if kind < 0.1:
            key = ["filter.init_weather_std", "filter.process_weather_std", "filter.obs_weather_std"][rng.integers(3)]
            value = [0.1, 0.1, 0.1]
            value[rng.integers(3)] = float(rng.choice(FUZZ_VALUES))
        elif kind < 0.15:
            key, value = "teams.positions", [[value, 5.0]] * cfg["teams"]["count"]
        elif kind < 0.2:
            key, value = "fire.schedule", [{"step": int(rng.integers(0, 4)), "wind_speed": value, "wind_azimuth": 1.0}]
        elif kind < 0.35:
            key, value = FUZZ_INTS[rng.integers(len(FUZZ_INTS))], int(rng.choice([-1, 0, 1, 7, 8]))
        else:
            key = FUZZ_FLOATS[rng.integers(len(FUZZ_FLOATS))]
        *sections, name = key.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    return cfg


def test_random_configs_exit_zero_or_two(tmp_path, capsys):
    rng = np.random.default_rng(20261018)
    path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    codes = []
    for _ in range(200):
        cfg = random_config(rng)
        path.write_text(yaml.safe_dump(cfg))
        try:
            codes.append(main(["simulate", "--config", str(path), "--out", str(out)]))
        except Exception as exc:  # noqa: BLE001 - any exception is the failure reported
            pytest.fail(f"{cfg!r} raised {exc!r}")
        assert codes[-1] in (0, 2), cfg
    capsys.readouterr()
    assert 0 in codes and 2 in codes


def test_missing_config_exits_two(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "out")]) == 2


def test_bad_drone_list_exits_two(tmp_path):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--drones", "1,zero"]) == 2


def test_repeated_fleet_size_exits_two_before_running(tmp_path, capsys):
    # a per-size summary cannot tell two copies of a size's trials apart
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--drones", "4,1,4", "--trials", "1"]) == 2
    assert "config error: --drones: fleet sizes must not repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, extra",
    [
        ("sweep-safety", "--trials", ["--trials", "0"]),
        ("sweep-safety", "--max-teams", ["--max-teams", "0"]),
        ("compare", "--trials", ["--drones", "1", "--trials", "0"]),
    ],
)
def test_bad_count_flag_exits_two_naming_it(tmp_path, capsys, command, flag, extra):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert f"{flag}: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_max_teams_beyond_the_fire_id_range_exits_two_before_running(tmp_path, capsys):
    # 42950 teams would give fire ids of 2**32 and more; no smaller cell may run first
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    argv = ["sweep-safety", "--config", str(cfg), "--out", str(out), "--max-teams", "42950", "--trials", "1"]
    assert main(argv) == 2
    assert "--max-teams: must be at most 42949" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, fire, field",
    [
        # 3000 uniform fires pass the front cap; two teams of 3000 clustered fires do not
        ("sweep-safety", ["--max-teams", "2", "--trials", "1"],
         "  initial_count: 3000\n  layout: uniform\n", "fire.initial_count"),
        # case 1 runs in still air, but the case-2 cells need wind to spread
        ("sweep-safety", ["--max-teams", "1", "--trials", "1"],
         "  initial_count: 1\n  wind_speed: 0.0\n", "fire.speed"),
        ("compare", ["--drones", "1", "--trials", "1"],
         "  initial_count: 1\n  wind_speed: 0.0\n", "fire.speed"),
    ],
)
def test_a_cell_config_the_base_config_allows_exits_two_before_running(tmp_path, capsys, command, extra, fire, field):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "area: {width: 600.0, height: 600.0}\n"
        "case: 1\n"
        f"fire:\n{fire}"
        "teams: {count: 0}\n"
        "uavs: {count: 1}\n"
        "duration: 2\n"
    )
    out = tmp_path / "out"
    load_config(cfg).validate()  # the base config itself passes
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_an_oversized_sweep_is_refused_before_its_smaller_cells_are_validated(tmp_path, capsys, monkeypatch):
    # 2000 teams of 3 clustered fires are 6000 fronts; the 1999 smaller sizes need not be built first
    validated = []
    validate = ScenarioConfig.validate

    def counted(cfg):
        validated.append((cfg.case, cfg.teams.count))
        return validate(cfg)

    monkeypatch.setattr(ScenarioConfig, "validate", counted)
    out = tmp_path / "out"
    argv = ["sweep-safety", "--config", str(CONFIG_DIR / "sweep.yaml"), "--out", str(out),
            "--max-teams", "2000", "--trials", "1"]
    assert main(argv) == 2
    assert "config error: fire.initial_count: " in capsys.readouterr().err
    # Besides the one-team base config, only the first cell of the largest size was validated.
    assert [cell for cell in validated if cell != (1, 1)] == [(1, 2000)]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, extra, message",
    [
        # case 3 lets each of 342 * 3 fires grow into 4 fronts; cases 1 and 2 pass
        pytest.param("sweep-safety", None, ["--max-teams", "342", "--trials", "2"],
                     "fire.max_per_lineage: the run can grow past 4096 fronts (case 3, teams 342)\n",
                     id="sweep-safety"),
        # case 1 runs in still air, but the case-2 cells need wind to spread
        pytest.param("compare", "  initial_count: 1\n  wind_speed: 0.0\n", ["--drones", "1,3", "--trials", "2"],
                     "(case 2, controller proposed, drones 3)\n", id="compare"),
    ],
)
def test_a_refused_cell_is_named_by_its_key(tmp_path, capsys, command, config, extra, message):
    if config is None:
        cfg = CONFIG_DIR / "sweep.yaml"
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "area: {width: 600.0, height: 600.0}\n"
            "case: 1\n"
            f"fire:\n{config}"
            "teams: {count: 0}\n"
            "uavs: {count: 1}\n"
            "duration: 2\n"
        )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(message)
    assert not out.exists()


def test_negative_seed_exits_two_naming_the_flag(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_tiny_config(tmp_path / "cfg.yaml", teams=1)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        outs.append((out / "steps.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", []),
        ("sweep-safety", ["--max-teams", "1", "--trials", "1"]),
        ("compare", ["--drones", "1", "--trials", "1"]),
    ],
)
@pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
def test_unusable_out_exits_two_naming_it(tmp_path, capsys, command, extra, where):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker if where == "existing-file" else blocker / "out"
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert "config error: --out: " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "keep\n"


# SHA-256 of each output file and of stdout of two small experiment runs.
# They pin the experiments' bytes across commits: a change that moves one
# changes results and must say so.
PINNED_EXPERIMENTS = [
    pytest.param(
        "sweep-safety", "sweep.yaml", 30, ["--max-teams", "2", "--trials", "2"],
        {
            "safety_sweep.csv": "c29b12314a379f5afd0ebd2c7076ba55ce816b4768606e46e6e0724c1b39dfb1",
            "safety_summary.csv": "035cc091ef5ac5b4b666d704f752e0b5050ff0f8fac93514b8f4436c5b008a40",
            "stdout": "035cc091ef5ac5b4b666d704f752e0b5050ff0f8fac93514b8f4436c5b008a40",
        },
        id="sweep-safety",
    ),
    pytest.param(
        "compare", "compare.yaml", 20, ["--drones", "2,1", "--trials", "1"],
        {
            "comparison.csv": "96b313d938b369bafade03a2a95becf3dcce44faf72219f6c79b810c0c8f96cb",
            "comparison_summary.csv": "18fd286566acc6431a04ac60f0e92a67cb79c091cfc97803eab993a0005bde83",
            "stdout": "18fd286566acc6431a04ac60f0e92a67cb79c091cfc97803eab993a0005bde83",
        },
        id="compare",
    ),
]


@pytest.mark.parametrize("command, config, duration, extra, digests", PINNED_EXPERIMENTS)
def test_experiment_outputs_keep_their_bytes(tmp_path, capsys, command, config, duration, extra, digests):
    data = yaml.safe_load((CONFIG_DIR / config).read_text())
    data["duration"] = duration
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests if name != "stdout"}
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == digests


# SHA-256 of the output file and of stdout of `simulate` runs. The last two
# run case 3 with both teams and a coverage fleet, which no shipped config
# combines: there the coverage replans read tracks that the safety
# certificate's per-step pass has read too.
PINNED_SIMULATIONS = [
    pytest.param(
        "case1.yaml", {}, "csv",
        {
            "steps.csv": "24364f2c9f85e83796bf76df01068e12f92a8cde68866d709b589c185fc2a808",
            "stdout": "ddfecc8761e5e91207db0c8a9b6906a0060ca89961b83d15f127089c637b5ed4",
        },
        id="case1-csv",
    ),
    pytest.param(
        "case2.yaml", {}, "csv",
        {
            "steps.csv": "2c34ba1a7e7044172163659be5ee6ac6faebf6dfa76a5de0fab65e175a656602",
            "stdout": "35cf647b19260509b515093ba221be52617123b4bbe34f941af071914b688cb8",
        },
        id="case2-csv",
    ),
    pytest.param(
        "case3.yaml", {}, "csv",
        {
            "steps.csv": "4b1173446d81ffda89f030c6d1d1046eb4a0d5054ea2c70d17b9e8e77d90fd81",
            "stdout": "4416fb29b6ed8c4f38a44b8336334768b294c62487a8fbca71eafc2fe721ce67",
        },
        id="case3-csv",
    ),
    pytest.param(
        "case3.yaml", {"teams": {"count": 2}}, "csv",
        {
            "steps.csv": "cfe86a7b7aea2a13d8966d6f91973890241ef23a0ec7b44d95663f5c464a0402",
            "stdout": "b090525b97ff9ebb2e3426141a106e49fb18d0e2ab6563c881064581dae97254",
        },
        id="case3-teams-csv",
    ),
    pytest.param(
        "case3.yaml", {"teams": {"count": 2}}, "json",
        {
            "steps.json": "0e76e486038fc4ec460c76a9b50e67fe9b7bf0ece8b3661e16354d4aefd88a9a",
            "stdout": "b090525b97ff9ebb2e3426141a106e49fb18d0e2ab6563c881064581dae97254",
        },
        id="case3-teams-json",
    ),
    pytest.param(
        "sweep.yaml", {}, "json",
        {
            "steps.json": "0df497b58d94950532edee83e2fba59973c4341d6f0fa738d9ce928453226e61",
            "stdout": "0d88c9cb4b07bd28933d5d31709a5602e1c78ac9e695210860b7965a9e011ef6",
        },
        id="sweep-json",
    ),
]


@pytest.mark.parametrize("config, overrides, fmt, digests", PINNED_SIMULATIONS)
def test_simulate_outputs_keep_their_bytes(tmp_path, capsys, config, overrides, fmt, digests):
    data = yaml.safe_load((CONFIG_DIR / config).read_text())
    data.update(overrides)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests if name != "stdout"}
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == digests
