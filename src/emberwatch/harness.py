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
from functools import partial
from typing import Sequence

import numpy as np

from .baseline import gradient_coverage_step
from .bounds import joint_confidence
from .config import CONTROLLERS, TEAM_FIRE_IDS, ScenarioConfig
from .coordination import (
    HumanTeam,
    UavAgent,
    apply_safety_plan,
    coverage_step,
    first_observers,
    patrol_step,
    plan_safety_tour,
    take_nearest,
    vicinity_fires,
)
from .errors import DomainError, SingularResidual
from .fire import WindFuelState, keyed_normal, simulate_step, substream_key
from .geometry import golden_ring
from .tracking import TrackEstimate, predict, residual_terms, speed_terms, step_track

# Substream purposes; fire.py keys the fire step's motion (6) and spawns (7).
_S_LAYOUT = 1
_S_TEAMFIRE = 2
_S_DETECT = 3
_S_OBS = 4
_S_COVERAGE = 5

STEP_CSV_HEADER = "step,uncovered_count,cum_uncertainty,mean_trace_P,active_uavs"

# The scenario cases that sweep-safety and compare run, in order.
CASES = (1, 2, 3)

# The fields of an experiment cell's key, in order; the last is the trial.
CELL_KEY_FIELDS = {"sweep-safety": ("case", "teams", "trial"), "compare": ("case", "controller", "drones", "trial")}


@dataclass
class RunMetrics:
    """Per-step and aggregate outputs of one scenario run.

    filter_faults counts the filter updates that raised SingularResidual
    or DomainError and fell back to a predict; the JSON summary reports
    it, the CSV does not. wall_clock is diagnostic only and never
    serialized, so output files stay byte-identical across reruns.
    """

    uncovered: list[int] = field(default_factory=list)
    cum_uncertainty: list[int] = field(default_factory=list)
    mean_trace_covariance: list[float] = field(default_factory=list)
    active_uavs: list[int] = field(default_factory=list)
    drones_recruited: dict[int, int] = field(default_factory=dict)
    bound_confidence: dict[int, tuple[float, float]] = field(default_factory=dict)
    plans_feasible: bool = True
    filter_faults: int = 0
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
                "filter_faults": self.filter_faults,
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of one scalar key; per-entity keys use `keyed_normal`."""
    return np.random.default_rng(substream_key(seed, *key))


def _initial_layout(cfg: ScenarioConfig, teams: tuple[HumanTeam, ...]) -> tuple[Sequence, list[int]]:
    """Initial fire positions, one (2,) row each, and their ids (roots of the spawn lineages)."""
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

    # One draw of shape (count, 2) takes the generator's values in the
    # order one (2,) draw per fire would, so each row has the same bits.
    rng = _stream(cfg.rng_seed, _S_LAYOUT)
    if layout == "uniform":
        positions = rng.uniform([0.0, 0.0], [w, h], size=(n, 2))
    elif layout == "clusters":
        margin = 0.15
        centers = rng.uniform(
            [margin * w, margin * h], [(1 - margin) * w, (1 - margin) * h], size=(cfg.fire.cluster_count, 2)
        )
        positions = centers[np.arange(n) % len(centers)] + rng.normal(0.0, cfg.fire.cluster_spread, size=(n, 2))
    else:  # ring
        center = np.array([w / 2.0, h / 2.0])
        radius = min(w, h) / 3.0
        positions = [
            center + radius * np.array([math.sin(2 * math.pi * k / max(n, 1)), math.cos(2 * math.pi * k / max(n, 1))])
            for k in range(n)
        ]
    return positions, list(range(1, n + 1))


def _uav(cfg: ScenarioConfig, uav_id: int, position: np.ndarray, mode: str) -> UavAgent:
    """A UAV of the configured type over the planar `position`, at the configured altitude."""
    u = cfg.uavs
    return UavAgent(id=uav_id, pose=np.append(position, u.altitude), speed=u.speed, half_angle=u.half_angle, mode=mode)


def _init_track(
    front,
    cfg: ScenarioConfig,
    wind: WindFuelState,
    staging_pose: np.ndarray,
    priors: tuple[np.ndarray, ...],
    noise: np.ndarray,
) -> TrackEstimate:
    """Register a detected hotspot: ground truth plus detection noise; P0, Q0 and R are the priors.

    `noise` holds the front's five keyed standard normals.
    """
    fl = cfg.filter
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
    detections = keyed_normal(cfg.rng_seed, (_S_DETECT,), [f.id for f in born], 5)
    return {f.id: _init_track(f, cfg, wind, staging_pose, priors, noise) for f, noise in zip(born, detections)}


def _make_observations(
    fronts, poses: Sequence[np.ndarray], wind: WindFuelState, cfg: ScenarioConfig, noise: np.ndarray
) -> np.ndarray:
    """(len(fronts), 5) observations: row i is the sensor model `observe` at front i's
    true state seen from poses[i], plus noise[i] (five standard normals) scaled per axis.

    The offsets are the same float64 operations `observe` makes, and each
    look angle goes through `math.atan` as there, so every row has the
    bits of observe(truth) + noise * sigma.
    """
    fl = cfg.filter
    positions = np.array([f.position for f in fronts]).reshape(-1, 2)
    poses = np.array(poses).reshape(-1, 3)
    if (poses[:, 2] <= 0).any():
        raise DomainError("uav_z", f"uav_z must be > 0 to observe, got {poses[:, 2].min()}")
    ratios = (positions - poses[:, :2]) / poses[:, 2:]
    z = np.empty((len(positions), 5))
    z[:, :2] = np.array([math.atan(u) for u in ratios.ravel().tolist()]).reshape(-1, 2)
    z[:, 2:] = (wind.spread_rate, wind.wind_speed, wind.wind_azimuth)
    sigma = np.array([fl.obs_angle_std, fl.obs_angle_std, *fl.obs_weather_std])
    return z + noise * sigma


def _mean_trace(covariances: Sequence[np.ndarray]) -> float:
    """Mean trace of the covariances, 0.0 for none.

    One `np.trace` over the stack gives each matrix the bits of its own
    `ndarray.trace()` (the same reduction of the eight diagonal entries),
    and the traces are summed in order as Python floats.
    """
    if not covariances:
        return 0.0
    traces = np.trace(np.array(covariances), axis1=1, axis2=2).tolist()
    return sum(traces) / len(traces)


def run_scenario(cfg: ScenarioConfig) -> RunMetrics:
    """Run one closed-loop scenario and return its metrics.

    A config with a fleet (`uavs.count` > 0) flies it as coverage UAVs,
    and the proposed controller recruits each team's safety UAVs from the
    ones still on coverage, nearest first. A config without one has no
    coverage, and each team's safety UAVs are minted on demand from an
    unlimited staging pool at the team, as in a sweep-safety cell. Either
    way each team plans with one recruiter, and every UAV in the air is
    counted active.
    """
    built = cfg.validate()
    params = cfg.fire.ellipse
    wind = built.fire_map.wind_fuel
    case = cfg.case
    dt = cfg.dt

    fire_map = built.fire_map.with_fronts(*_initial_layout(cfg, built.teams))

    centre = np.array([cfg.area.width / 2.0, cfg.area.height / 2.0])
    agents = [_uav(cfg, i, golden_ring(centre, 40.0, i), "coverage") for i in range(cfg.uavs.count)]
    staging = np.append(centre, cfg.uavs.altitude)
    minted: dict[int, int] = {}

    def mint(team: HumanTeam, position: np.ndarray) -> UavAgent:
        """The team's next UAV from its staging pool; it starts at the team, whatever `position` the plan asks for."""
        k = minted.get(team.id, 0)
        minted[team.id] = k + 1
        agent = _uav(cfg, 10_000_000 * (team.id + 1) + k, golden_ring(team.position, 20.0, k), "safety")
        agents.append(agent)
        return agent

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
        tracks.update(_init_tracks([f for f in fronts if f.id not in tracks], cfg, wind, staging, built.priors))
        # Tracks are born only here, so this order holds for the rest of the step.
        track_ids = sorted(tracks)

        # Sensing against ground truth: lowest-id agent wins.
        seen_by = first_observers(agents, [f.position for f in fronts])
        seen = [(f, agent) for f, agent in zip(fronts, seen_by) if agent is not None]
        observer = {f.id: agent for f, agent in seen}
        uncovered = len(fronts) - len(observer)

        # Fronts are in id order and every observed front has a track, so
        # the rows follow track_ids.
        observations = iter(
            _make_observations(
                [f for f, _ in seen],
                [agent.pose for _, agent in seen],
                wind,
                cfg,
                keyed_normal(cfg.rng_seed, (_S_OBS, step), list(observer), 5),
            )
        )
        for fid in track_ids:
            if fid in observer:
                agent = observer[fid]
                z = next(observations)
                try:
                    tracks[fid] = step_track(tracks[fid], z, dt, built.filter, params, uav_pose=agent.pose)
                except (SingularResidual, DomainError):
                    # A filter fault skips this update rather than the run; an
                    # update that moves the UAV's altitude estimate below ground
                    # fails on its post-update residual and is one.
                    metrics.filter_faults += 1
                    tracks[fid] = predict(tracks[fid], dt, params, uav_pose=agent.pose)
            else:
                tracks[fid] = predict(tracks[fid], dt, params)

        if cfg.controller == "proposed":
            # The coverage UAVs that the teams may recruit this step.
            pool = [a for a in agents if a.mode == "coverage"]
            on_coverage = len(pool)
            vicinities = []
            if built.teams:
                # Every team's certificate reads its tracks' terms from one pass of each kind.
                vicinities = vicinity_fires(tracks, built.teams, cfg.vicinity_radius)
                near_ids = sorted(set().union(*vicinities))
                near = [tracks[f] for f in near_ids]
                terms = dict(zip(near_ids, zip(speed_terms(near, params), residual_terms(near))))
            for team, vicinity in zip(built.teams, vicinities):
                if not vicinity:
                    continue
                plan, assigned = plan_safety_tour(
                    vicinity,
                    team_assigned.get(team.id, []),
                    case,
                    cfg.alpha_conf,
                    dt,
                    terms,
                    team=team,
                    recruit=partial(take_nearest, pool) if cfg.uavs.count else partial(mint, team),
                )
                apply_safety_plan(plan, {a.id: a for a in assigned})
                team_assigned[team.id] = assigned
                metrics.drones_recruited[team.id] = len(assigned)
                metrics.bound_confidence[team.id] = joint_confidence(
                    len(vicinity), cfg.alpha_conf
                )
                if not plan.feasible:
                    metrics.plans_feasible = False
            patrol_step(agents, dt)
            coverage_step(
                agents,
                tracks,
                case,
                cfg.alpha_conf,
                dt,
                params,
                partial(_stream, cfg.rng_seed, _S_COVERAGE, step),
                step,
                force_replan=len(pool) < on_coverage,
            )
        else:
            # No team plans under this controller, so every UAV is on coverage.
            fire_positions = np.array([tracks[f].mean[:2] for f in track_ids])
            gradient_coverage_step(agents, fire_positions, built.gradient, dt)

        cum += uncovered
        metrics.uncovered.append(uncovered)
        metrics.cum_uncertainty.append(cum)
        metrics.mean_trace_covariance.append(_mean_trace([tracks[fid].covariance for fid in track_ids]))
        metrics.active_uavs.append(len(agents))
        metrics.wall_clock.append(time.perf_counter() - tic)

    return metrics


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentResult:
    """One row per cell (its key, then its value), and (mean, se) per cell key without its trial."""

    header: str
    summary_header: str
    rows: list[tuple]
    summary: dict[tuple, tuple[float, float]]

    def to_csv(self) -> str:
        return _csv(self.header, self.rows)

    def summary_csv(self) -> str:
        return _csv(self.summary_header, [(*key, *self.summary[key]) for key in sorted(self.summary)])


def _csv(header: str, rows: list[tuple]) -> str:
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def min_drones_for_run(cfg: ScenarioConfig) -> tuple[int, bool]:
    """Minimum fleet satisfying every safety plan across one run.

    Runs `cfg` once without its fleet, so each team recruits from its
    unlimited staging pool; because recruited UAVs are never released,
    the peak concurrent demand equals the total recruited, which is the
    smallest pool a scan over sizes would accept. Returns (min_drones,
    feasible).
    """
    metrics = run_scenario(replace(cfg, uavs=replace(cfg.uavs, count=0)))
    return sum(metrics.drones_recruited.values()), metrics.plans_feasible


def experiment_cells(cfg: ScenarioConfig, command: str, sizes: Sequence[int], trials: int):
    """A generator of (key, cell config) over every cell of an experiment, in row order.

    "sweep-safety" cells cluster the fires around `size` teams and fly no
    coverage fleet; their key is (case, teams, trial). "compare" cells have
    no teams and a coverage fleet of `size` UAVs under each controller; their
    key is (case, controller, drones, trial). Trial k runs at rng_seed + k.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"sizes must not repeat, got {list(sizes)}")
    if command == "sweep-safety":
        fire = replace(cfg.fire, speed=None, layout="team_clusters")
        base = replace(cfg, fire=fire, uavs=replace(cfg.uavs, count=0), controller="proposed")
        groups = (
            ((case, n), replace(base, case=case, teams=replace(cfg.teams, count=n, positions=None)))
            for case in CASES for n in sizes
        )
    elif command == "compare":
        base = replace(cfg, fire=replace(cfg.fire, speed=None), teams=replace(cfg.teams, count=0, positions=None))
        groups = (
            ((case, ctrl, n), replace(base, case=case, controller=ctrl, uavs=replace(cfg.uavs, count=n)))
            for case in CASES for ctrl in CONTROLLERS for n in sizes
        )
    else:
        raise ValueError(f"unknown experiment {command!r}")
    return (((*group, k), replace(cell, rng_seed=cfg.rng_seed + k)) for group, cell in groups for k in range(trials))


def _run_cells(cells, measure, header: str, summary_header: str) -> ExperimentResult:
    """Measure every cell in order; fold each key's trials into a mean and a standard error of the mean."""
    rows = []
    values: dict[tuple, list[int]] = {}
    for key, cell in cells:
        value = measure(cell)
        rows.append((*key, value))
        values.setdefault(key[:-1], []).append(value)
    summary = {
        key: (float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0)
        for key, v in values.items()
    }
    return ExperimentResult(header, summary_header, rows, summary)


def sweep_safety(cfg: ScenarioConfig, max_teams: int, trials: int) -> ExperimentResult:
    """Mean and standard error of the minimum fleet per case and team count."""
    return _run_cells(
        experiment_cells(cfg, "sweep-safety", range(1, max_teams + 1), trials),
        lambda cell: min_drones_for_run(cell)[0],
        "case,teams,trial,min_drones",
        "case,teams,mean_min_drones,se_min_drones",
    )


def compare_controllers(cfg: ScenarioConfig, drone_counts: list[int], trials: int) -> ExperimentResult:
    """Paired cumulative-uncertainty comparison of the two controllers."""
    return _run_cells(
        experiment_cells(cfg, "compare", drone_counts, trials),
        lambda cell: run_scenario(cell).final_cum_uncertainty,
        "case,controller,drones,trial,cum_uncertainty",
        "case,controller,drones,mean_cum_uncertainty,se",
    )
