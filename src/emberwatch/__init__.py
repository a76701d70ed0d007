"""Deterministic wildfire tracking and UAV coordination toolkit."""

from .baseline import GradientConfig, gradient_coverage_step
from .bounds import (
    BoundInputs,
    FleetParams,
    TraverseBound,
    bound_moving,
    bound_spreading,
    bound_stationary,
    fov_width,
    joint_confidence,
    traverse_bound,
    uncertainty_ratio,
    worst_case_speed,
)
from .config import ScenarioConfig, load_config, scenario_from_dict
from .coordination import (
    HumanTeam,
    MissionPlan,
    UavAgent,
    cluster_and_assign,
    coverage_step,
    patrol_step,
    plan_safety_tour,
    vicinity_fires,
)
from .errors import (
    ConfigError,
    DomainError,
    EmberwatchError,
    InvalidSplit,
    NoUavAvailable,
    SingularResidual,
)
from .fire import (
    EllipseParams,
    FireFront,
    FireMap,
    WindFuelState,
    calibrate_spread_rate,
    front_velocity,
    propagate_front,
    simulate_step,
    spawn_fronts,
    spread_coefficient,
    spread_velocity,
)
from .harness import RunMetrics, compare_controllers, run_scenario, sweep_safety
from .routing import (
    SteinerWaypoint,
    Tour,
    build_mst,
    k_opt_improve,
    steiner_reduce,
    tour_from_mst,
)
from .tracking import (
    FilterConfig,
    TrackEstimate,
    observation_jacobian,
    observe,
    predict,
    step_track,
    transition,
    update,
)

__version__ = "0.1.0"
