"""Every config knob moves an output.

A knob is one settable value of `ScenarioConfig`: a field found by
walking its dataclass tree through the sections and `EllipseParams`. A
tuple-valued field, such as `filter.init_weather_std`, `fire.schedule`
or `teams.positions`, counts as one knob. `KNOBS` gives each knob a base
config and one other valid value. The rule fails when the table and the
tree differ, or when a knob's run writes the same bytes as its base's.

A knob that moves nothing still doubles the configurations that tests
and benchmarks are meant to cover, so it is deleted, not kept.
"""

import functools
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml

from emberwatch.config import ScenarioConfig, scenario_from_dict
from emberwatch.harness import run_scenario

CONFIG_DIR = Path(__file__).parent.parent / "configs"

# A fleet and two teams that recruit from it; the gradient knobs act only
# under the gradient controller.
BASES = {
    "case3": ("case3.yaml", {"duration": 40, "teams.count": 2}),
    "gradient": ("compare.yaml", {"duration": 40, "controller": "gradient"}),
}

KNOBS = {
    "area.width": ("case3", 900.0),
    "area.height": ("case3", 900.0),
    "case": ("case3", 2),
    "fire.speed": ("case3", 1.5),
    "fire.wind_speed": ("case3", 7.0),
    "fire.wind_azimuth": ("case3", 1.0),
    "fire.initial_count": ("case3", 8),
    "fire.layout": ("case3", "uniform"),
    "fire.cluster_count": ("case3", 3),
    "fire.cluster_spread": ("case3", 20.0),
    "fire.spawn_rate_max": ("case3", 1),
    "fire.spawn_interval": ("case3", 10),
    "fire.process_noise_std": ("case3", 0.2),
    "fire.max_per_lineage": ("case3", 2),
    "fire.ellipse.a": ("case3", 0.95),
    "fire.ellipse.b": ("case3", 0.27),
    "fire.ellipse.c": ("case3", 0.47),
    "fire.ellipse.d": ("case3", 0.16),
    "fire.ellipse.l": ("case3", -0.39),
    "fire.schedule": ("case3", [{"step": 10, "wind_speed": 8.0, "wind_azimuth": 0.3}]),
    "teams.count": ("case3", 1),
    "teams.positions": ("case3", [[100.0, 100.0], [700.0, 700.0]]),
    "uavs.count": ("case3", 3),
    "uavs.speed": ("case3", 12.0),
    "uavs.altitude": ("case3", 50.0),
    "uavs.half_angle": ("case3", 0.5),
    "filter.alpha_forget": ("case3", 0.9),
    "filter.init_position_std": ("case3", 5.0),
    "filter.init_weather_std": ("case3", [0.1, 0.2, 0.05]),
    "filter.process_position_std": ("case3", 0.1),
    "filter.process_pose_std": ("case3", 1.0),
    "filter.process_weather_std": ("case3", [0.02, 0.03, 0.01]),
    "filter.obs_angle_std": ("case3", 0.02),
    "filter.obs_weather_std": ("case3", [0.1, 0.2, 0.04]),
    "gradient.step_size": ("gradient", 5.0),
    "gradient.separation_weight": ("gradient", 2.0),
    "gradient.separation_radius": ("gradient", 30.0),
    "alpha_conf": ("case3", 0.2),
    "vicinity_radius": ("case3", 300.0),
    "dt": ("case3", 2.0),
    "duration": ("case3", 30),
    "rng_seed": ("case3", 1),
    "controller": ("case3", "gradient"),
}


def knobs(node=ScenarioConfig(), prefix=""):
    """The dotted path of every settable value below a config node."""
    for f in fields(node):
        value = getattr(node, f.name)
        if is_dataclass(value):
            yield from knobs(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def output(base, key=None, value=None):
    """The CSV and JSON of a base's run, with one knob set when `key` is given."""
    name, overrides = BASES[base]
    data = yaml.safe_load((CONFIG_DIR / name).read_text())
    for path, setting in [*overrides.items(), *([(key, value)] if key else [])]:
        *sections, leaf = path.split(".")
        node = data
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = setting
    metrics = run_scenario(scenario_from_dict(data))
    return metrics.to_csv() + metrics.to_json()


base_output = functools.cache(output)


def test_the_table_lists_every_knob():
    tree = set(knobs())
    assert {"fire.ellipse.a", "fire.schedule", "teams.positions", "filter.init_weather_std"} <= tree
    missing = sorted(tree - set(KNOBS))
    stale = sorted(set(KNOBS) - tree)
    assert not missing and not stale, f"knobs missing from the table: {missing}; table entries for no knob: {stale}"


@pytest.mark.parametrize("key", sorted(KNOBS))
def test_knob_moves_the_run_output(key):
    base, value = KNOBS[key]
    assert output(base, key, value) != base_output(base), f"{key}: {value!r} writes the same bytes as the {base} base"
