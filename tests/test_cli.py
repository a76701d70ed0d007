from pathlib import Path

import pytest
import yaml

from emberwatch.cli import main

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
    pytest.param(
        "filter.init_weather_std", {"filter": {"init_weather_std": ["a", 1, 1]}}, id="weather-std-string"
    ),
    pytest.param(
        "teams.positions", {"teams": {"count": 1, "positions": [["a", 1]]}}, id="team-position-string"
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
]


@pytest.mark.parametrize("field, override", BAD_VALUES)
def test_bad_value_exits_two_naming_field(tmp_path, capsys, field, override):
    data = yaml.safe_load(write_tiny_config(tmp_path / "base.yaml").read_text())
    for key, value in override.items():
        data[key] = {**data[key], **value} if isinstance(value, dict) and key in data else value
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_missing_config_exits_two(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "out")]) == 2


def test_bad_drone_list_exits_two(tmp_path):
    cfg = write_tiny_config(tmp_path / "cfg.yaml")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--drones", "1,zero"]) == 2


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
