"""Spans around the package's public functions, and the outputs they return.

The traced run replaces each public function in the module that imports
it (`emberwatch.harness`, `emberwatch.coordination`, `emberwatch.routing`,
`emberwatch.fire`) with a wrapper that times the call. Spans nest through
a stack, so a span's self time is its duration minus the time of the
spans it encloses. Nothing in `src/` changes; the originals are put back
when the `installed` block ends.

Wrappers may also hand the call's arguments and result to a `Capture`,
which keeps what the independent checks need. Time spent capturing is
excluded from every span's self time.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Per-name span totals, kept in memory until the run reports them."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._open: list[float] = []  # time of enclosed spans, per open span

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open
        clock = time.perf_counter

        def hook(call, *args) -> None:
            start = clock()
            call(*args)
            if open_spans:
                open_spans[-1] += clock() - start

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosed = open_spans.pop()
                stats.calls += 1
                stats.self_s += elapsed - enclosed
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                hook(after, args, kwargs, result)
            return result

        return traced


@dataclass
class RunRecord:
    """Ground truth seen by one run_scenario call, step by step."""

    agents: list = field(default_factory=list)
    fronts: list[np.ndarray] = field(default_factory=list)  # (N, 2) per step
    footprints: list[list[tuple[float, float, float, float]]] = field(default_factory=list)
    metrics: object = None


@dataclass
class Capture:
    """What a traced round returned, for the checks in checks.py."""

    covariances: list[np.ndarray] = field(default_factory=list)
    tours: list[tuple[np.ndarray, tuple, tuple, float]] = field(default_factory=list)
    msts: list[tuple[np.ndarray, float]] = field(default_factory=list)
    steiner: list[tuple[np.ndarray, list, float, list]] = field(default_factory=list)
    spreading_bounds: list[tuple[float, float, int, float, float, float]] = field(default_factory=list)
    plans: list[tuple[bool, dict]] = field(default_factory=list)
    runs: list[RunRecord] = field(default_factory=list)

    # -- hooks -------------------------------------------------------------

    def start_run(self, args, kwargs) -> None:
        self.runs.append(RunRecord())

    def end_run(self, args, kwargs, metrics) -> None:
        self.runs[-1].metrics = metrics

    def agent_created(self, agent) -> None:
        self.runs[-1].agents.append(agent)

    def fire_stepped(self, args, kwargs, fire_map) -> None:
        # Sensing in this step sees these fronts and the agents as they
        # stand now; nothing moves between the fire step and sensing.
        run = self.runs[-1]
        run.fronts.append(np.array([f.position for f in fire_map.fronts]).reshape(-1, 2))
        run.footprints.append(
            [
                (float(a.pose[0]), float(a.pose[1]), float(a.pose[2]), float(a.half_angle))
                for a in run.agents
                if a.mode in ("coverage", "safety")
            ]
        )

    def track_returned(self, args, kwargs, result) -> None:
        track = result[0] if isinstance(result, tuple) else result
        self.covariances.append(track.covariance)

    def tour_improved(self, args, kwargs, tour) -> None:
        before, nodes = args[0], args[1]
        self.tours.append((np.array(nodes, dtype=float), before.order, tour.order, tour.length))

    def mst_built(self, args, kwargs, result) -> None:
        self.msts.append((np.array(args[0], dtype=float), result[1]))

    def steiner_reduced(self, args, kwargs, waypoints) -> None:
        points = np.array(args[0], dtype=float)
        ids = kwargs.get("ids")
        ids = list(range(len(points))) if ids is None else list(ids)
        self.steiner.append(
            (points, ids, float(args[1]), [(np.array(w.position), w.members) for w in waypoints])
        )

    def bound_computed(self, args, kwargs, bound) -> None:
        case, inputs, fleet = args[:3]
        if case == 3 and bound.feasible:
            self.spreading_bounds.append(
                (
                    bound.seconds,
                    inputs.mst_length,
                    inputs.fire_count,
                    inputs.worst_speed,
                    inputs.fov_width,
                    fleet.speed,
                )
            )

    def plan_made(self, args, kwargs, result) -> None:
        plan = result[0]
        self.plans.append((plan.feasible, dict(plan.uncertainty_ratios)))


def traced_functions(tracer: Tracer, capture: Capture) -> list[tuple[object, str, Callable]]:
    """(module, attribute, replacement) for every wrapped public function.

    Each function is wrapped where another module calls it, and named by
    the module that defines it, which is its layer.
    """
    from emberwatch import coordination, fire, harness, routing

    def span(module, attr, layer, before=None, after=None):
        fn = getattr(module, attr)
        return (module, attr, tracer.wrap(f"{layer}.{attr}", fn, before, after))

    uav_agent = harness.UavAgent

    def make_agent(*args, **kwargs):
        agent = uav_agent(*args, **kwargs)
        capture.agent_created(agent)
        return agent

    return [
        span(harness, "run_scenario", "harness", capture.start_run, capture.end_run),
        (harness, "UavAgent", make_agent),
        span(harness, "simulate_step", "fire", after=capture.fire_stepped),
        span(harness, "substream_key", "fire"),
        span(fire, "substream_key", "fire"),
        span(harness, "step_track", "tracking", after=capture.track_returned),
        span(harness, "predict", "tracking", after=capture.track_returned),
        span(harness, "vicinity_fires", "coordination"),
        span(harness, "plan_safety_tour", "coordination", after=capture.plan_made),
        span(harness, "apply_safety_plan", "coordination"),
        span(harness, "patrol_step", "coordination"),
        span(harness, "coverage_step", "coordination"),
        span(coordination, "cluster_and_assign", "coordination"),
        span(coordination, "steiner_reduce", "routing", after=capture.steiner_reduced),
        span(coordination, "build_mst", "routing", after=capture.mst_built),
        span(coordination, "tour_from_mst", "routing"),
        span(coordination, "k_opt_improve", "routing", after=capture.tour_improved),
        span(coordination, "split_sequence", "routing"),
        span(coordination, "traverse_bound", "bounds", after=capture.bound_computed),
        span(coordination, "worst_case_speed", "bounds"),
        span(coordination, "uncertainty_ratio", "bounds"),
        span(routing, "smallest_enclosing_circle", "geometry"),
    ]


def run_metrics_capture(sink: list) -> list[tuple[object, str, Callable]]:
    """The one shim of an untraced round: keep what run_scenario returns.

    min_drones_for_run discards the RunMetrics of its run; the benchmark
    needs them for cum_uncertainty and the output checks.
    """
    from emberwatch import harness

    run_scenario = harness.run_scenario

    def keep(*args, **kwargs):
        metrics = run_scenario(*args, **kwargs)
        sink.append(metrics)
        return metrics

    return [(harness, "run_scenario", keep)]


@contextlib.contextmanager
def installed(replacements):
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, replacement in replacements:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
