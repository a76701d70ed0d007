"""Scenario configuration: dataclasses, YAML loading, strict validation.

Config files are nested key/value documents (YAML; JSON works too since
it parses as YAML). Unknown keys and values whose type does not match
the field's annotation are errors, and every error carries the dotted
path of the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .baseline import GradientConfig
from .bounds import FleetParams, fov_width
from .errors import ConfigError, DomainError
from .fire import EllipseParams, MAX_SPAWN_RATE, WindFuelState, calibrate_spread_rate
from .tracking import FilterConfig

CASE_SPEEDS = {1: 0.0, 2: 0.5, 3: 1.0}

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
    init_pose_std: float = 2.0
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
    altitude_min: float = 10.0
    altitude_max: float = 120.0


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

    def wind_fuel(self) -> WindFuelState:
        """Wind/fuel state with the spread rate calibrated to the fire speed."""
        rate = calibrate_spread_rate(self.fire_speed, self.fire.wind_speed, self.fire.ellipse)
        return WindFuelState(
            spread_rate=rate,
            wind_speed=self.fire.wind_speed,
            wind_azimuth=self.fire.wind_azimuth,
        )

    def filter_config(self) -> FilterConfig:
        return FilterConfig(alpha_forget=self.filter.alpha_forget)

    def gradient_config(self) -> GradientConfig:
        g = fov_width(FleetParams(self.uavs.speed, self.uavs.altitude, self.uavs.half_angle))
        radius = self.gradient.separation_radius
        return GradientConfig(
            step_size=self.gradient.step_size,
            separation_weight=self.gradient.separation_weight,
            separation_radius=radius if radius is not None else g,
            altitude_min=self.gradient.altitude_min,
            altitude_max=self.gradient.altitude_max,
            kernel_bandwidth=g / 2.0,
        )

    def validate(self) -> None:
        _check(self.case in (1, 2, 3), "case", f"must be 1, 2 or 3, got {self.case}")
        _check(self.area.width > 0, "area.width", "must be > 0")
        _check(self.area.height > 0, "area.height", "must be > 0")
        _check(self.dt > 0, "dt", "must be > 0")
        _check(self.duration >= 1, "duration", "must be >= 1")
        _check(self.rng_seed >= 0, "rng_seed", "must be >= 0")
        _check(0 < self.alpha_conf < 1, "alpha_conf", "must be in (0, 1)")
        _check(self.vicinity_radius > 0, "vicinity_radius", "must be > 0")
        _check(
            self.controller in CONTROLLERS,
            "controller",
            f"must be one of {CONTROLLERS}, got {self.controller!r}",
        )

        f = self.fire
        _check(f.layout in LAYOUTS, "fire.layout", f"must be one of {LAYOUTS}, got {f.layout!r}")
        _check(f.wind_speed >= 0, "fire.wind_speed", "must be >= 0")
        _check(f.initial_count >= 0, "fire.initial_count", "must be >= 0")
        _check(f.cluster_count >= 1, "fire.cluster_count", "must be >= 1")
        _check(f.cluster_spread > 0, "fire.cluster_spread", "must be > 0")
        _check(f.spawn_interval >= 1, "fire.spawn_interval", "must be >= 1")
        _check(f.process_noise_std >= 0, "fire.process_noise_std", "must be >= 0")
        _check(f.max_per_lineage >= 0, "fire.max_per_lineage", "must be >= 0")
        _check(
            0 <= f.spawn_rate_max <= MAX_SPAWN_RATE,
            "fire.spawn_rate_max",
            f"must be in [0, {MAX_SPAWN_RATE}]",
        )
        if self.case == 3:
            _check(f.spawn_rate_max >= 1, "fire.spawn_rate_max", "case 3 requires >= 1")
        speed = self.fire_speed
        _check(speed >= 0, "fire.speed", "must be >= 0")
        if self.case == 1:
            _check(speed == 0, "fire.speed", f"case 1 requires fire speed 0, got {speed}")
        for i, shift in enumerate(f.schedule):
            _check(shift.step >= 0, f"fire.schedule[{i}].step", "must be >= 0")
            _check(shift.wind_speed >= 0, f"fire.schedule[{i}].wind_speed", "must be >= 0")

        winds = {"fire.wind_speed": f.wind_speed}
        winds.update((f"fire.schedule[{i}].wind_speed", s.wind_speed) for i, s in enumerate(f.schedule))
        fastest = max(winds, key=winds.get)
        wind_range = winds[fastest] * 1.5 + 1.0
        try:
            f.ellipse.length_to_breadth(wind_range)
        except OverflowError:
            raise ConfigError(
                fastest, f"too large: the length-to-breadth ratio overflows at {wind_range!r} m/s"
            ) from None
        try:
            f.ellipse.validate_range(wind_range)
        except DomainError as exc:
            raise ConfigError("fire.ellipse", str(exc)) from exc
        if speed > 0:
            try:
                calibrate_spread_rate(speed, f.wind_speed, f.ellipse)
            except DomainError as exc:
                raise ConfigError("fire.speed", str(exc)) from exc

        t = self.teams
        _check(t.count >= 0, "teams.count", "must be >= 0")
        if t.positions is not None:
            _check(
                len(t.positions) == t.count,
                "teams.positions",
                f"expected {t.count} positions, got {len(t.positions)}",
            )

        u = self.uavs
        _check(u.count >= 0, "uavs.count", "must be >= 0")
        _check(u.speed > 0, "uavs.speed", "must be > 0")
        _check(u.altitude > 0, "uavs.altitude", "must be > 0")
        _check(0 < u.half_angle < math.pi / 2, "uavs.half_angle", "must be in (0, pi/2)")

        fl = self.filter
        _check(0 <= fl.alpha_forget <= 1, "filter.alpha_forget", "must be in [0, 1]")
        for name in (
            "init_position_std",
            "init_pose_std",
            "process_position_std",
            "process_pose_std",
            "obs_angle_std",
        ):
            _check(getattr(fl, name) > 0, f"filter.{name}", "must be > 0")
            _check(_square_finite(getattr(fl, name)), f"filter.{name}", "too large: its square overflows")
        for name in ("init_weather_std", "process_weather_std", "obs_weather_std"):
            triple = getattr(fl, name)
            _check(
                len(triple) == 3 and all(v > 0 for v in triple),
                f"filter.{name}",
                "must be three positive values",
            )
            _check(all(map(_square_finite, triple)), f"filter.{name}", "too large: a square overflows")

        g = self.gradient
        _check(g.step_size > 0, "gradient.step_size", "must be > 0")
        _check(g.separation_weight >= 0, "gradient.separation_weight", "must be >= 0")
        if g.separation_radius is not None:
            _check(g.separation_radius > 0, "gradient.separation_radius", "must be > 0")
        _check(
            0 < g.altitude_min <= g.altitude_max,
            "gradient.altitude_min",
            "band must satisfy 0 < min <= max",
        )
        _check(
            g.altitude_min <= self.uavs.altitude <= g.altitude_max,
            "uavs.altitude",
            "must lie inside the gradient altitude band",
        )


def _square_finite(std: float) -> bool:
    """Whether a standard deviation's variance is a finite float."""
    return std * std < math.inf


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
    except yaml.YAMLError as exc:
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
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
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
