import math
from pathlib import Path

import pytest

from emberwatch.cli import main
from emberwatch.config import (
    CASE_SPEEDS,
    ScenarioConfig,
    load_config,
    scenario_from_dict,
)
from emberwatch.errors import ConfigError

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def test_defaults_validate():
    cfg = ScenarioConfig()
    cfg.validate()
    assert cfg.case == 1
    assert cfg.fire_speed == 0.0


def test_case_speed_defaults():
    for case, speed in CASE_SPEEDS.items():
        kwargs = {"case": case}
        if case != 3:
            cfg = scenario_from_dict(kwargs)
        else:
            cfg = scenario_from_dict({"case": 3})
        assert cfg.fire_speed == speed


def test_wind_fuel_calibration():
    cfg = scenario_from_dict({"case": 2})
    wf = cfg.validate().fire_map.wind_fuel
    from emberwatch.fire import spread_coefficient

    assert spread_coefficient(wf.spread_rate, wf.wind_speed, cfg.fire.ellipse) == pytest.approx(0.5)


def test_shipped_configs_load():
    for name in ("case1.yaml", "case2.yaml", "case3.yaml", "sweep.yaml", "compare.yaml"):
        cfg = load_config(CONFIG_DIR / name)
        cfg.validate()


def test_unknown_top_level_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("case: 1\nbogus: 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bogus" in str(err.value)


def test_unknown_nested_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("fire:\n  initial_count: 4\n  wat: 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "fire.wat" in str(err.value)


@pytest.mark.parametrize(
    "text, path",
    [
        pytest.param("ratio_mode: max_eig\n", "ratio_mode", id="ratio_mode"),
        pytest.param(
            "filter:\n  residual_source: innovation\n",
            "filter.residual_source",
            id="filter.residual_source",
        ),
        # knobs that moved no output (tests/test_every_knob_acts.py)
        pytest.param("filter:\n  init_pose_std: 2.0\n", "filter.init_pose_std", id="filter.init_pose_std"),
        pytest.param("gradient:\n  altitude_min: 10.0\n", "gradient.altitude_min", id="gradient.altitude_min"),
        pytest.param("gradient:\n  altitude_max: 120.0\n", "gradient.altitude_max", id="gradient.altitude_max"),
    ],
)
def test_removed_modes_are_unknown_keys(tmp_path, capsys, text, path):
    cfg = tmp_path / "old.yaml"
    cfg.write_text("case: 1\n" + text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: unknown key" in capsys.readouterr().err


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/nowhere.yaml")


def test_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("case: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_case1_nonzero_speed_rejected():
    cfg = scenario_from_dict({"case": 1, "fire": {"speed": 0.5}})
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "fire.speed" in str(err.value)


def test_case3_requires_spawning():
    cfg = scenario_from_dict({"case": 3, "fire": {"spawn_rate_max": 0}})
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "spawn_rate_max" in str(err.value)


def test_lb_range_checked():
    cfg = scenario_from_dict({"fire": {"ellipse": {"l": -0.5}}})
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "ellipse" in str(err.value)


def test_speed_unreachable_without_wind():
    cfg = scenario_from_dict({"case": 2, "fire": {"wind_speed": 0.0}})
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "fire.speed" in str(err.value)


def test_team_position_count_mismatch():
    cfg = scenario_from_dict(
        {"teams": {"count": 2, "positions": [[1.0, 2.0]]}}
    )
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "teams.positions" in str(err.value)


def test_positions_shape_checked():
    with pytest.raises(ConfigError):
        scenario_from_dict({"teams": {"count": 1, "positions": [[1.0]]}})


def test_weather_triples_checked():
    with pytest.raises(ConfigError):
        scenario_from_dict({"filter": {"obs_weather_std": [0.1, 0.2]}})


def test_wind_schedule_parsed():
    cfg = scenario_from_dict(
        {"fire": {"schedule": [{"step": 50, "wind_speed": 8.0, "wind_azimuth": 1.0}]}}
    )
    cfg.validate()
    assert cfg.fire.schedule[0].step == 50


def test_controller_choices():
    with pytest.raises(ConfigError):
        scenario_from_dict({"controller": "wizard"}).validate()


def test_fov_width():
    # the gradient baseline's default radius and bandwidth come from the 20 m footprint
    cfg = scenario_from_dict({"uavs": {"altitude": 10.0, "half_angle": math.pi / 4}})
    gcfg = cfg.validate().gradient
    assert gcfg.separation_radius == pytest.approx(20.0)
    assert gcfg.kernel_bandwidth == pytest.approx(10.0)
