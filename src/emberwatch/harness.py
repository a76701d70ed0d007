"""Closed-loop scenario driver, metrics, and the three experiment sweeps.

A run steps in a fixed order: the ground-truth fire advances, new fronts
are detected (truth plus noise), every UAV in the air reports which fires
sit in its footprint, each track runs one filter cycle, and only then do
the controllers act. Metrics accumulate at the end of the step.

Every random draw comes from a substream keyed by (seed, purpose, step,
entity id), so a run is a pure function of (config, seed) and per-team
quantities do not change when unrelated teams are added.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baseline import _GOLDEN_ANGLE, gradient_coverage_step
from .bounds import joint_confidence
from .config import TEAM_FIRE_IDS, ScenarioConfig
from .coordination import (
    HumanTeam,
    MissionPlan,
    UavAgent,
    apply_safety_plan,
    coverage_step,
    first_observers,
    patrol_step,
    plan_safety_tour,
    vicinity_fires,
)
from .errors import DomainError, NoUavAvailable, SingularResidual
from .fire import WindFuelState, keyed_generators, simulate_step, substream_key
from .tracking import TrackEstimate, observe, predict, step_track

# Substream purposes.
_S_LAYOUT = 1
_S_TEAMFIRE = 2
_S_DETECT = 3
_S_OBS = 4
_S_COVERAGE = 5

STEP_CSV_HEADER = "step,uncovered_count,cum_uncertainty,mean_trace_P,active_uavs"
SWEEP_CSV_HEADER = "case,teams,trial,min_drones"
COMPARE_CSV_HEADER = "case,controller,drones,trial,cum_uncertainty"


@dataclass
class RunMetrics:
    """Per-step and aggregate outputs of one scenario run.

    wall_clock is diagnostic only and never serialized, so output files
    stay byte-identical across reruns.
    """

    uncovered: list[int] = field(default_factory=list)
    cum_uncertainty: list[int] = field(default_factory=list)
    mean_trace_covariance: list[float] = field(default_factory=list)
    active_uavs: list[int] = field(default_factory=list)
    drones_recruited: dict[int, int] = field(default_factory=dict)
    bound_confidence: dict[int, tuple[float, float]] = field(default_factory=dict)
    plans_feasible: bool = True
    wall_clock: list[float] = field(default_factory=list)

    @property
    def final_cum_uncertainty(self) -> int:
        return self.cum_uncertainty[-1] if self.cum_uncertainty else 0

    def to_csv(self) -> str:
        lines = [STEP_CSV_HEADER]
        for i in range(len(self.uncovered)):
            lines.append(
                f"{i},{self.uncovered[i]},{self.cum_uncertainty[i]},"
                f"{self.mean_trace_covariance[i]!r},{self.active_uavs[i]}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "steps": [
                {
                    "step": i,
                    "uncovered_count": self.uncovered[i],
                    "cum_uncertainty": self.cum_uncertainty[i],
                    "mean_trace_P": self.mean_trace_covariance[i],
                    "active_uavs": self.active_uavs[i],
                }
                for i in range(len(self.uncovered))
            ],
            "summary": {
                "final_cum_uncertainty": self.final_cum_uncertainty,
                "drones_recruited": {str(k): v for k, v in sorted(self.drones_recruited.items())},
                "bound_confidence": {
                    str(k): list(v) for k, v in sorted(self.bound_confidence.items())
                },
                "plans_feasible": self.plans_feasible,
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of one scalar key; per-entity keys use `keyed_generators`."""
    return np.random.default_rng(substream_key(seed, *key))


def _initial_layout(cfg: ScenarioConfig, teams: tuple[HumanTeam, ...]) -> tuple[list, list[int]]:
    """Initial fire positions and their ids (roots of the spawn lineages)."""
    w, h = cfg.area.width, cfg.area.height
    n = cfg.fire.initial_count
    layout = cfg.fire.layout

    if layout == "team_clusters":
        positions: list[np.ndarray] = []
        ids: list[int] = []
        for t, team in enumerate(teams):
            rng = _stream(cfg.rng_seed, _S_TEAMFIRE, t)
            for j in range(n):
                radius = 0.6 * cfg.vicinity_radius * math.sqrt(rng.uniform())
                angle = rng.uniform(0, 2 * math.pi)
                positions.append(
                    team.position + radius * np.array([math.cos(angle), math.sin(angle)])
                )
                ids.append(t * TEAM_FIRE_IDS + j + 1)
        return positions, ids

    rng = _stream(cfg.rng_seed, _S_LAYOUT)
    if layout == "uniform":
        positions = [rng.uniform([0.0, 0.0], [w, h]) for _ in range(n)]
    elif layout == "clusters":
        margin = 0.15
        centers = [
            rng.uniform([margin * w, margin * h], [(1 - margin) * w, (1 - margin) * h])
            for _ in range(cfg.fire.cluster_count)
        ]
        positions = [
            centers[i % len(centers)] + rng.normal(0.0, cfg.fire.cluster_spread, size=2)
            for i in range(n)
        ]
    else:  # ring
        center = np.array([w / 2.0, h / 2.0])
        radius = min(w, h) / 3.0
        positions = [
            center + radius * np.array([math.sin(2 * math.pi * k / max(n, 1)), math.cos(2 * math.pi * k / max(n, 1))])
            for k in range(n)
        ]
    return positions, list(range(1, n + 1))


def _initial_agents(cfg: ScenarioConfig) -> list[UavAgent]:
    center = np.array([cfg.area.width / 2.0, cfg.area.height / 2.0])
    agents = []
    for i in range(cfg.uavs.count):
        offset = 40.0 * np.array([math.cos(_GOLDEN_ANGLE * i), math.sin(_GOLDEN_ANGLE * i)])
        agents.append(
            UavAgent(
                id=i,
                pose=np.array([center[0] + offset[0], center[1] + offset[1], cfg.uavs.altitude]),
                speed=cfg.uavs.speed,
                half_angle=cfg.uavs.half_angle,
                mode="coverage",
            )
        )
    return agents


def _init_track(
    front,
    cfg: ScenarioConfig,
    wind: WindFuelState,
    staging_pose: np.ndarray,
    priors: tuple[np.ndarray, ...],
    rng: np.random.Generator,
) -> TrackEstimate:
    """Register a detected hotspot: ground truth plus detection noise; P0, Q0 and R are the priors."""
    fl = cfg.filter
    noise = rng.normal(size=5)
    mean = np.array(
        [
            front.position[0] + noise[0] * fl.init_position_std,
            front.position[1] + noise[1] * fl.init_position_std,
            *staging_pose,
            max(wind.spread_rate + noise[2] * fl.init_weather_std[0], 0.0),
            max(wind.wind_speed + noise[3] * fl.init_weather_std[1], 0.0),
            wind.wind_azimuth + noise[4] * fl.init_weather_std[2],
        ]
    )
    return TrackEstimate(mean, *priors)


def _init_tracks(
    born, cfg: ScenarioConfig, wind: WindFuelState, staging_pose: np.ndarray, priors: tuple[np.ndarray, ...]
) -> dict[int, TrackEstimate]:
    """A track per newly detected front, in the order given, each with its keyed detection noise."""
    detections = keyed_generators(cfg.rng_seed, (_S_DETECT,), [f.id for f in born])
    return {f.id: _init_track(f, cfg, wind, staging_pose, priors, rng) for f, rng in zip(born, detections)}


def _make_observation(
    front, pose: np.ndarray, wind: WindFuelState, cfg: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """The sensor model `observe` at the true state, plus Gaussian noise."""
    fl = cfg.filter
    truth = np.array([*front.position, *pose, wind.spread_rate, wind.wind_speed, wind.wind_azimuth])
    sigma = np.array([fl.obs_angle_std, fl.obs_angle_std, *fl.obs_weather_std])
    return observe(truth) + rng.normal(size=5) * sigma


def run_scenario(cfg: ScenarioConfig, safety_only: bool = False) -> RunMetrics:
    """Run one closed-loop scenario and return its metrics.

    safety_only drops the coverage controller and starts with an empty
    fleet; every safety UAV is minted from an unlimited staging pool per
    team (the safety sweep).
    """
    built = cfg.validate()
    params = cfg.fire.ellipse
    wind = built.fire_map.wind_fuel
    case = cfg.case
    dt = cfg.dt

    fire_map = built.fire_map.with_fronts(*_initial_layout(cfg, built.teams))

    agents: list[UavAgent] = [] if safety_only else _initial_agents(cfg)
    staging = np.array([cfg.area.width / 2.0, cfg.area.height / 2.0, cfg.uavs.altitude])
    supply_counts: dict[int, int] = {}

    def _supply_for(team: HumanTeam):
        def mint() -> UavAgent:
            k = supply_counts.get(team.id, 0)
            supply_counts[team.id] = k + 1
            offset = 20.0 * np.array([math.cos(_GOLDEN_ANGLE * k), math.sin(_GOLDEN_ANGLE * k)])
            agent = UavAgent(
                id=10_000_000 * (team.id + 1) + k,
                pose=np.array([team.position[0] + offset[0], team.position[1] + offset[1], cfg.uavs.altitude]),
                speed=cfg.uavs.speed,
                half_angle=cfg.uavs.half_angle,
                mode="idle",
            )
            agents.append(agent)
            return agent

        return mint if safety_only else None

    tracks = _init_tracks(fire_map.fronts, cfg, wind, staging, built.priors)
    team_assigned: dict[int, list[UavAgent]] = {}
    metrics = RunMetrics()
    cum = 0

    for step in range(cfg.duration):
        tic = time.perf_counter()

        if step in built.schedule:
            wind = built.schedule[step]
            fire_map = replace(fire_map, wind_fuel=wind)

        fire_map = simulate_step(fire_map, dt)
        fronts = sorted(fire_map.fronts, key=lambda f: f.id)
        fronts_by_id = {f.id: f for f in fronts}
        tracks.update(_init_tracks([f for f in fronts if f.id not in tracks], cfg, wind, staging, built.priors))
        # Tracks are born only here, so this order holds for the rest of the step.
        track_ids = sorted(tracks)

        # Sensing against ground truth: lowest-id airborne agent wins.
        airborne = [a for a in agents if a.mode in ("coverage", "safety")]
        seen_by = first_observers(airborne, [f.position for f in fronts])
        observer = {f.id: agent for f, agent in zip(fronts, seen_by) if agent is not None}
        uncovered = sum(1 for f in fronts if f.id not in observer)

        # Every observed front has a track, so the batch is drawn in sorted id order.
        observations = keyed_generators(cfg.rng_seed, (_S_OBS, step), sorted(observer))
        for fid in track_ids:
            if fid in observer:
                agent = observer[fid]
                z = _make_observation(fronts_by_id[fid], agent.pose, wind, cfg, next(observations))
                try:
                    tracks[fid] = step_track(tracks[fid], z, dt, built.filter, params, uav_pose=agent.pose)
                except (SingularResidual, DomainError):
                    # A filter fault skips this update rather than the run; an
                    # update that moves the UAV's altitude estimate below ground
                    # fails on its post-update residual and is one.
                    tracks[fid] = predict(tracks[fid], dt, params, uav_pose=agent.pose)
            else:
                tracks[fid] = predict(tracks[fid], dt, params)

        dismissed = False
        if cfg.controller == "proposed":
            for team in built.teams:
                vicinity = vicinity_fires(tracks, team)
                if not vicinity:
                    continue
                assigned = team_assigned.get(team.id, [])
                assigned_ids = {a.id for a in assigned}
                idle = [
                    a
                    for a in agents
                    if a.mode in ("idle", "coverage") and a.id not in assigned_ids
                ]
                try:
                    plan, assigned = plan_safety_tour(
                        vicinity,
                        assigned,
                        idle,
                        case,
                        cfg.alpha_conf,
                        dt,
                        params,
                        team=team,
                        uav_supply=_supply_for(team),
                    )
                except NoUavAvailable:
                    plan = MissionPlan([], {}, False)
                if any(a.mode == "coverage" for a in assigned):
                    dismissed = True
                apply_safety_plan(plan, {a.id: a for a in assigned})
                team_assigned[team.id] = assigned
                metrics.drones_recruited[team.id] = max(
                    metrics.drones_recruited.get(team.id, 0), len(assigned)
                )
                metrics.bound_confidence[team.id] = joint_confidence(
                    len(vicinity), cfg.alpha_conf
                )
                if not plan.feasible:
                    metrics.plans_feasible = False
            patrol_step(agents, dt)
            if not safety_only:
                coverage_step(
                    agents,
                    tracks,
                    case,
                    cfg.alpha_conf,
                    dt,
                    params,
                    _stream(cfg.rng_seed, _S_COVERAGE, step),
                    step,
                    force_replan=dismissed,
                )
        else:
            fire_positions = np.array([tracks[f].mean[:2] for f in track_ids])
            movers = [a for a in agents if a.mode == "coverage"]
            gradient_coverage_step(movers, fire_positions, built.gradient, dt)

        cum += uncovered
        metrics.uncovered.append(uncovered)
        metrics.cum_uncertainty.append(cum)
        # ndarray.trace is what np.trace forwards to, without its wrapper.
        traces = [float(tracks[fid].covariance.trace()) for fid in track_ids]
        metrics.mean_trace_covariance.append(sum(traces) / len(traces) if traces else 0.0)
        metrics.active_uavs.append(sum(1 for a in agents if a.mode != "idle"))
        metrics.wall_clock.append(time.perf_counter() - tic)

    return metrics


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class SweepResult:
    rows: list[tuple[int, int, int, int]]  # (case, teams, trial, min_drones)
    summary: dict[int, dict[int, tuple[float, float]]]  # case -> teams -> (mean, se)

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        lines += [f"{c},{t},{k},{d}" for c, t, k, d in self.rows]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CompareResult:
    rows: list[tuple[int, str, int, int, int]]  # (case, controller, drones, trial, cum)
    summary: dict[tuple[int, str, int], tuple[float, float]]

    def to_csv(self) -> str:
        lines = [COMPARE_CSV_HEADER]
        lines += [f"{c},{ctrl},{n},{k},{u}" for c, ctrl, n, k, u in self.rows]
        return "\n".join(lines) + "\n"


def min_drones_for_run(cfg: ScenarioConfig) -> tuple[int, bool]:
    """Minimum fleet satisfying every safety plan across one run.

    Runs once with an unlimited per-team staging pool; because recruited
    UAVs are never released, the peak concurrent demand equals the total
    recruited, which is the smallest pool a scan over sizes would accept.
    Returns (min_drones, feasible).
    """
    metrics = run_scenario(cfg, safety_only=True)
    return sum(metrics.drones_recruited.values()), metrics.plans_feasible


def sweep_safety(cfg: ScenarioConfig, max_teams: int, trials: int) -> SweepResult:
    """Mean and standard error of the minimum fleet per team count and case."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[tuple[int, int, int, int]] = []
    summary: dict[int, dict[int, tuple[float, float]]] = {}
    for case in (1, 2, 3):
        summary[case] = {}
        case_cfg = replace(
            cfg,
            case=case,
            fire=replace(cfg.fire, speed=None, layout="team_clusters"),
            uavs=replace(cfg.uavs, count=0),
            controller="proposed",
        )
        for teams_n in range(1, max_teams + 1):
            values = []
            for trial in range(trials):
                run_cfg = replace(
                    case_cfg,
                    teams=replace(case_cfg.teams, count=teams_n, positions=None),
                    rng_seed=cfg.rng_seed + trial,
                )
                drones, _ = min_drones_for_run(run_cfg)
                rows.append((case, teams_n, trial, drones))
                values.append(drones)
            mean = float(np.mean(values))
            se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
            summary[case][teams_n] = (mean, se)
    return SweepResult(rows=rows, summary=summary)


def compare_controllers(
    cfg: ScenarioConfig, drone_counts: list[int], trials: int
) -> CompareResult:
    """Paired cumulative-uncertainty comparison of the two controllers."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[tuple[int, str, int, int, int]] = []
    summary: dict[tuple[int, str, int], tuple[float, float]] = {}
    for case in (1, 2, 3):
        case_cfg = replace(
            cfg,
            case=case,
            fire=replace(cfg.fire, speed=None),
            teams=replace(cfg.teams, count=0, positions=None),
        )
        for controller in ("proposed", "gradient"):
            for count in drone_counts:
                values = []
                for trial in range(trials):
                    run_cfg = replace(
                        case_cfg,
                        controller=controller,
                        uavs=replace(case_cfg.uavs, count=count),
                        rng_seed=cfg.rng_seed + trial,
                    )
                    cum = run_scenario(run_cfg).final_cum_uncertainty
                    rows.append((case, controller, count, trial, cum))
                    values.append(cum)
                mean = float(np.mean(values))
                se = (
                    float(np.std(values, ddof=1) / math.sqrt(len(values)))
                    if len(values) > 1
                    else 0.0
                )
                summary[(case, controller, count)] = (mean, se)
    return CompareResult(rows=rows, summary=summary)
