"""Scenario configuration: dataclasses, YAML loading, strict validation.

Config files are nested key/value documents (YAML; JSON works too since
it parses as YAML). Unknown keys and values whose type does not match
the field's annotation are errors, and every error carries the dotted
path of the offending field.

Domain objects own their range rules: validation builds them once,
reports a DomainError at the config field at fault, and hands them to
the run. The rules written here are those no object owns, among them
the extent rule that keeps a run's squared distances finite.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .baseline import GradientConfig
from .bounds import FleetParams, fov_width
from .coordination import HumanTeam
from .errors import ConfigError, DomainError
from .fire import EllipseParams, FireMap, WindFuelState, calibrate_spread_rate
from .geometry import golden_ring
from .tracking import FilterConfig

CASE_SPEEDS = {1: 0.0, 2: 0.5, 3: 1.0}

# In the team_clusters layout, fire j of team t has id t * TEAM_FIRE_IDS + j + 1.
TEAM_FIRE_IDS = 100_000

# Largest distance (m) over which a run's positions may spread, filter
# standard deviation and duration (steps). Its square leaves room for sums
# of squares (the k-means++ weights, the filter's covariance sums) and for
# noise tails before a float overflows.
MAX_EXTENT = 1e100

# Most fronts a run may hold, and the cap on every other per-run entity
# count: fire clusters, teams and UAVs. Routing builds dense (n, n, 2)
# distance arrays over the fires it plans for; one steiner_reduce of 4096
# points peaks near 800 MB of RSS.
MAX_FRONTS = 4096

LAYOUTS = ("uniform", "clusters", "ring", "team_clusters")
CONTROLLERS = ("proposed", "gradient")


@dataclass(frozen=True)
class AreaConfig:
    width: float = 1000.0
    height: float = 1000.0


@dataclass(frozen=True)
class WindShift:
    """One entry of the optional piecewise wind schedule."""

    step: int
    wind_speed: float
    wind_azimuth: float


@dataclass(frozen=True)
class FireConfigSection:
    speed: float | None = None  # None picks the case default
    wind_speed: float = 5.0
    wind_azimuth: float = math.pi / 4
    initial_count: int = 12
    layout: str = "uniform"
    cluster_count: int = 4
    cluster_spread: float = 12.0
    spawn_rate_max: int = 3
    spawn_interval: int = 10
    process_noise_std: float = 0.05
    max_per_lineage: int = 8
    ellipse: EllipseParams = field(default_factory=EllipseParams)
    schedule: tuple[WindShift, ...] = ()


@dataclass(frozen=True)
class TeamConfigSection:
    count: int = 1
    positions: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class UavConfigSection:
    count: int = 4
    speed: float = 10.0
    altitude: float = 40.0
    half_angle: float = 0.6


@dataclass(frozen=True)
class FilterSection:
    alpha_forget: float = 0.97
    init_position_std: float = 3.0
    init_weather_std: tuple[float, float, float] = (0.08, 0.15, 0.04)
    process_position_std: float = 0.05
    process_pose_std: float = 2.0
    process_weather_std: tuple[float, float, float] = (0.01, 0.02, 0.005)
    obs_angle_std: float = 0.01
    obs_weather_std: tuple[float, float, float] = (0.05, 0.1, 0.02)


@dataclass(frozen=True)
class GradientSection:
    step_size: float = 0.5
    separation_weight: float = 1.0
    separation_radius: float | None = None  # None -> footprint width


@dataclass(frozen=True)
class ScenarioConfig:
    area: AreaConfig = field(default_factory=AreaConfig)
    case: int = 1
    fire: FireConfigSection = field(default_factory=FireConfigSection)
    teams: TeamConfigSection = field(default_factory=TeamConfigSection)
    uavs: UavConfigSection = field(default_factory=UavConfigSection)
    filter: FilterSection = field(default_factory=FilterSection)
    gradient: GradientSection = field(default_factory=GradientSection)
    alpha_conf: float = 0.05
    vicinity_radius: float = 150.0
    dt: float = 1.0
    duration: int = 500
    rng_seed: int = 0
    controller: str = "proposed"

    @property
    def fire_speed(self) -> float:
        return self.fire.speed if self.fire.speed is not None else CASE_SPEEDS[self.case]

    def validate(self) -> RunObjects:
        """Check every field and build the domain objects of a run from them."""
        _check(self.case in (1, 2, 3), "case", f"must be 1, 2 or 3, got {self.case}")
        _check(self.area.width > 0, "area.width", "must be > 0")
        _check(self.area.height > 0, "area.height", "must be > 0")
        _check(self.dt > 0, "dt", "must be > 0")
        _check(1 <= self.duration <= MAX_EXTENT, "duration", f"must be in [1, {MAX_EXTENT:g}]")
        _check(self.rng_seed >= 0, "rng_seed", "must be >= 0")
        # At alpha_conf <= 2**-54, 1 - alpha_conf rounds to 1 and has no finite normal quantile.
        _check(0 < 1 - self.alpha_conf < 1, "alpha_conf", "must be in (2**-54, 1)")
        _check(
            self.controller in CONTROLLERS,
            "controller",
            f"must be one of {CONTROLLERS}, got {self.controller!r}",
        )

        f = self.fire
        _check(f.layout in LAYOUTS, "fire.layout", f"must be one of {LAYOUTS}, got {f.layout!r}")
        _check(f.initial_count >= 0, "fire.initial_count", "must be >= 0")
        _check(1 <= f.cluster_count <= MAX_FRONTS, "fire.cluster_count", f"must be in [1, {MAX_FRONTS}]")
        _check(f.cluster_spread > 0, "fire.cluster_spread", "must be > 0")
        _check(f.process_noise_std >= 0, "fire.process_noise_std", "must be >= 0")
        _check(f.max_per_lineage >= 0, "fire.max_per_lineage", "must be >= 0")
        for i, shift in enumerate(f.schedule):
            _check(shift.step >= 0, f"fire.schedule[{i}].step", "must be >= 0")

        winds = {"fire.wind_speed": f.wind_speed}
        winds.update((f"fire.schedule[{i}].wind_speed", s.wind_speed) for i, s in enumerate(f.schedule))
        fastest = max(winds, key=winds.get)
        wind_range = max(winds[fastest], 0.0) * 1.5 + 1.0
        try:
            # math.exp(inf) is inf, not an OverflowError.
            if not math.isfinite(wind_range):
                raise OverflowError
            f.ellipse.length_to_breadth(wind_range)
        except OverflowError:
            raise ConfigError(
                fastest, f"too large: the length-to-breadth ratio overflows at {wind_range!r} m/s"
            ) from None
        with _fields_of("fire"):
            f.ellipse.validate_range(wind_range)
            rate = calibrate_spread_rate(self.fire_speed, f.wind_speed, f.ellipse)
            wind = WindFuelState(rate, f.wind_speed, f.wind_azimuth)
            fire_map = FireMap(
                (),
                wind,
                self.case,
                spawn_rate_max=f.spawn_rate_max,
                spawn_interval=f.spawn_interval,
                rng_seed=self.rng_seed,
                params=f.ellipse,
                noise_std=f.process_noise_std,
                max_per_lineage=f.max_per_lineage,
            )
        schedule = {}
        for i, shift in enumerate(f.schedule):
            _check(shift.step not in schedule, f"fire.schedule[{i}].step", f"step {shift.step} is already scheduled")
            with _fields_of(f"fire.schedule[{i}]"):
                schedule[shift.step] = WindFuelState(rate, shift.wind_speed, shift.wind_azimuth)

        t, u = self.teams, self.uavs
        _check(0 <= t.count <= MAX_FRONTS, "teams.count", f"must be in [0, {MAX_FRONTS}]")
        _check(0 <= u.count <= MAX_FRONTS, "uavs.count", f"must be in [0, {MAX_FRONTS}]")
        if t.positions is not None:
            _check(
                len(t.positions) == t.count,
                "teams.positions",
                f"expected {t.count} positions, got {len(t.positions)}",
            )
        if f.layout == "team_clusters":
            # Fire ids are team * TEAM_FIRE_IDS + index, and must stay below 2**32.
            _check(f.initial_count <= TEAM_FIRE_IDS, "fire.initial_count", f"team_clusters allows at most {TEAM_FIRE_IDS}")
            _check(t.count * TEAM_FIRE_IDS < 2**32, "teams.count", f"team_clusters allows at most {2**32 // TEAM_FIRE_IDS}")
        fronts = f.initial_count * (t.count if f.layout == "team_clusters" else 1)
        _check(fronts <= MAX_FRONTS, "fire.initial_count", f"the run starts with {fronts} fronts, more than {MAX_FRONTS}")
        if self.case == 3:
            # A lineage holds at most max_per_lineage fronts; with no cap, every
            # front can spawn spawn_rate_max (>= 1) children each spawn_interval
            # steps. MAX_FRONTS.bit_length() rounds already grow one front past
            # the cap, so counting no more keeps the power small.
            rounds = min(self.duration // f.spawn_interval, MAX_FRONTS.bit_length())
            most = fronts * (f.max_per_lineage or (1 + f.spawn_rate_max) ** rounds)
            _check(most <= MAX_FRONTS, "fire.max_per_lineage", f"the run can grow past {MAX_FRONTS} fronts")
        _check(self.vicinity_radius > 0, "vicinity_radius", f"must be > 0, got {self.vicinity_radius}")
        teams = tuple(HumanTeam(k, pos) for k, pos in enumerate(team_positions(self)))

        with _fields_of("uavs"):
            fleet = FleetParams(u.speed, u.altitude, u.half_angle)

        fl = self.filter
        with _fields_of("filter"):
            filter_config = FilterConfig(alpha_forget=fl.alpha_forget)
        for name in (
            "init_position_std",
            "process_position_std",
            "process_pose_std",
            "obs_angle_std",
        ):
            _check(getattr(fl, name) > 0, f"filter.{name}", "must be > 0")
            _check(getattr(fl, name) <= MAX_EXTENT, f"filter.{name}", f"too large: must be <= {MAX_EXTENT:g}")
        for name in ("init_weather_std", "process_weather_std", "obs_weather_std"):
            triple = getattr(fl, name)
            _check(
                len(triple) == 3 and all(v > 0 for v in triple),
                f"filter.{name}",
                "must be three positive values",
            )
            _check(max(triple) <= MAX_EXTENT, f"filter.{name}", f"too large: must be <= {MAX_EXTENT:g}")
        # Diagonal P0, Q0 and R of every new track. P0's UAV-pose block is 0:
        # every track is predicted in the step it is born, and F zeroes the
        # pose rows and columns, so nothing ever reads that block.
        priors = tuple(
            np.diag([std**2 for std in stds])
            for stds in (
                (fl.init_position_std,) * 2 + (0.0,) * 3 + fl.init_weather_std,
                (fl.process_position_std,) * 2 + (fl.process_pose_std,) * 3 + fl.process_weather_std,
                (fl.obs_angle_std,) * 2 + fl.obs_weather_std,
            )
        )
        try:  # a new track's first wind estimate, 10 sigma off
            f.ellipse.validate_range(max(winds[fastest], 0.0) + 10.0 * fl.init_weather_std[1])
        except DomainError as exc:
            raise ConfigError("filter.init_weather_std", f"too large: {exc}") from None

        g = self.gradient
        width = fov_width(fleet)
        with _fields_of("gradient"):
            gradient = GradientConfig(
                step_size=g.step_size,
                separation_weight=g.separation_weight,
                separation_radius=g.separation_radius if g.separation_radius is not None else width,
                kernel_bandwidth=width / 2.0,
            )

        # How far each field can spread the run's positions, in metres. For
        # dt * duration seconds fronts move at most at their spread rate,
        # estimates at that plus the initial rate error, and UAVs at their
        # speed; the travel is charged to its largest factor, first on ties.
        speeds = {"fire.speed": rate, "filter.init_weather_std": fl.init_weather_std[0], "uavs.speed": u.speed}
        factors = {**speeds, "dt": self.dt, "duration": self.duration}
        reach = {
            "area.width": self.area.width,
            "area.height": self.area.height,
            "teams.positions": max((abs(c) for team in teams for c in team.position), default=0.0),
            "vicinity_radius": self.vicinity_radius,
            "fire.cluster_spread": f.cluster_spread,
            "fire.process_noise_std": f.process_noise_std * math.sqrt(self.duration),
            "filter.init_position_std": fl.init_position_std,
            "uavs.altitude": width,
            max(factors, key=factors.get): sum(speeds.values()) * self.dt * self.duration,
        }
        extent = sum(reach.values())
        _check(extent <= MAX_EXTENT, max(reach, key=reach.get), f"too large: the run could spread over {extent:.3g} m")
        return RunObjects(schedule, fire_map, filter_config, priors, gradient, teams)


@dataclass(frozen=True)
class RunObjects:
    """The domain objects that validation builds from a config, once, for a run."""

    schedule: dict[int, WindFuelState]  # step -> wind from that step on
    fire_map: FireMap  # without fronts
    filter: FilterConfig
    priors: tuple[np.ndarray, np.ndarray, np.ndarray]  # P0, Q0 and R of a new track
    gradient: GradientConfig
    teams: tuple[HumanTeam, ...]


def team_positions(cfg: ScenarioConfig) -> list[np.ndarray]:
    """Configured team positions, or a deterministic golden-angle circle.

    Position t depends only on t, so adding teams leaves the existing
    ones (and everything keyed to them) untouched.
    """
    if cfg.teams.positions is not None:
        return [np.asarray(p, dtype=float) for p in cfg.teams.positions]
    center = np.array([cfg.area.width / 2.0, cfg.area.height / 2.0])
    radius = 0.35 * min(cfg.area.width, cfg.area.height)
    return [golden_ring(center, radius, t) for t in range(cfg.teams.count)]


@contextlib.contextmanager
def _fields_of(section: str):
    """Report a DomainError raised inside at its field of the config section."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(f"{section}.{exc.name}", str(exc)) from None


def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(path, message)


# ---------------------------------------------------------------------------
# strict dict -> dataclass building


def load_config(path: str | Path) -> ScenarioConfig:
    """Load, build, and validate a scenario config from a YAML/JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # a scalar that YAML's constructors refuse raises ValueError
        raise ConfigError(str(path), f"invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top level must be a mapping")
    cfg = scenario_from_dict(data)
    cfg.validate()
    return cfg


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a nested dict.

    Unknown keys and values of the wrong type are errors.
    """
    return _build(ScenarioConfig, data, "")


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(path or "<root>", "must be a mapping")
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        sub = f"{path}.{key}" if path else str(key)
        if key not in types:
            raise ConfigError(sub, "unknown key")
        kwargs[key] = _typed(value, types[key], sub)
    return cls(**kwargs)


def _typed(value, kind: str, path: str):
    """Check one config value against its field annotation and convert it.

    Ints reject bools and floats; floats accept ints and reject inf and
    nan; sections recurse.
    """
    if kind.endswith(" | None"):
        return None if value is None else _typed(value, kind.removesuffix(" | None"), path)
    if kind in _SECTIONS:
        return _build(_SECTIONS[kind], value, path)
    if kind.startswith("tuple["):
        if not isinstance(value, list):
            raise ConfigError(path, f"must be a list, got {value!r}")
        inner = kind.removeprefix("tuple[").removesuffix("]")
        if inner.endswith(", ..."):
            item_kinds = [inner.removesuffix(", ...")] * len(value)
        else:
            item_kinds = inner.split(", ")
            if len(value) != len(item_kinds):
                raise ConfigError(path, f"must be a list of {len(item_kinds)} values")
        return tuple(_typed(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(value, item_kinds)))
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"must be an integer, got {value!r}")
        return value
    if kind == "float":
        # An int compares exactly, so one beyond float range fails as NaN and inf do.
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ConfigError(path, f"must be a finite number, got {value!r}")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(path, f"must be a string, got {value!r}")
        return value
    raise TypeError(f"no config rule for field type {kind!r}")


_SECTIONS = {
    cls.__name__: cls
    for cls in (
        AreaConfig,
        WindShift,
        FireConfigSection,
        TeamConfigSection,
        UavConfigSection,
        FilterSection,
        GradientSection,
        EllipseParams,
    )
}
