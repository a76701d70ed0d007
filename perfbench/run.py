"""Closed-loop benchmark of emberwatch.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense-track --seed 1 --seconds 25 --trace 0

Generates the workload's scenario configs from --seed under
perfbench/out/, loads them with `load_config`, and runs whole rounds of
the workload's operations in this one process, one thread, with no
pacing, until the next round would end after --seconds. Outputs are
checked as they come; a wrong output prints the reason on stderr and the
run exits 1 with "correct": false.

--trace 0 reports the end-to-end metrics from untraced rounds. Their
times are scaled to a reference host speed, sampled by a calibration
piece every 20 ms while the operations and set-up probes run
(hostspeed.py); the unscaled figures go to stderr. --trace 1 runs each
operation untraced and then traced (spans around every public function,
see tracer.py), runs the full output checks on the traced passes and
reports the per-layer metrics. The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from hostspeed import HostSpeed
from tracer import Capture, Tracer, installed, run_metrics_capture, traced_functions
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
# Steps of the untimed warm-up run, a shortened copy of the first operation.
WARMUP_STEPS = 20
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "sim_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cum_uncertainty": "count",
    "uavs_committed": "count",
}

SELF_TIMES = (
    "fire.simulate_step",
    "fire.substream_key",
    "tracking.step_track",
    "tracking.predict",
    "bounds.uncertainty_ratio",
    "bounds.worst_case_speed",
    "routing.k_opt_improve",
    "routing.steiner_reduce",
    "routing.build_mst",
    "routing.tour_from_mst",
    "routing.split_sequence",
    "geometry.smallest_enclosing_circle",
    "coordination.plan_safety_tour",
    "coordination.vicinity_fires",
    "coordination.coverage_step",
    "coordination.cluster_and_assign",
    "harness.run_scenario",
)
CALL_COUNTS = (
    "fire.substream_key",
    "tracking.step_track",
    "tracking.predict",
    "bounds.uncertainty_ratio",
    "bounds.worst_case_speed",
    "routing.k_opt_improve",
    "geometry.smallest_enclosing_circle",
    "coordination.plan_safety_tour",
)


@dataclass
class OpResult:
    name: str
    wall_s: float
    metrics: object = None  # RunMetrics, None when the operation failed
    drones: int | None = None  # min_drones_for_run's answer, safety cells only
    scaled_s: float = 0.0  # wall_s at the reference host speed, if the host was sampled


@dataclass
class Round:
    ops: list[OpResult] = field(default_factory=list)

    @property
    def done(self) -> list[OpResult]:
        return [r for r in self.ops if r.metrics is not None]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.done)

    @property
    def scaled_s(self) -> float:
        return sum(r.scaled_s for r in self.done)

    @property
    def steps(self) -> int:
        return sum(len(r.metrics.uncovered) for r in self.done)

    def csvs(self) -> dict[str, str]:
        return {r.name: r.metrics.to_csv() for r in self.done}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_program():
    """Import emberwatch from this checkout's src/, and nowhere else."""
    if not (SRC / "emberwatch" / "__init__.py").is_file():
        raise SystemExit(f"emberwatch sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import emberwatch

    if Path(emberwatch.__file__).resolve().parent != SRC / "emberwatch":
        raise SystemExit(f"imported emberwatch from {emberwatch.__file__}, not from {SRC}")
    return emberwatch


def write_configs(workload: str, seed: int, ops) -> list[Path]:
    import yaml

    folder = OUT / workload / f"seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = folder / f"{op.name}.yaml"
        path.write_text(yaml.safe_dump(op.config, sort_keys=True), encoding="utf-8")
        paths.append(path)
    return paths


def probe_setup(config: Path, kind: str) -> list[dict]:
    """Start fresh interpreters and time each from launch to its first fire step.

    Each probe samples the host while it sets up (probe.py). setup_s is its
    time less the sampling, and scaled_s that time at the reference speed.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(config), kind],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["first_step"] - started - result["spent_s"]
        speed = HostSpeed()
        speed.samples, speed.piece_s = result["samples"], result["piece_s"]
        result["scaled_s"] = speed.scaled(result["setup_s"])
        probes.append(result)
    return probes


def run_round(ew, ops, cfgs, replacements, latest_metrics, speed: HostSpeed | None = None) -> Round:
    """One pass over the given operations through the public entry points.

    With `speed`, the host is sampled while each operation runs, and the
    operation's time is also scaled to the reference host speed.
    """
    harness = ew.harness
    out = Round()
    with installed(replacements):
        for op, cfg in zip(ops, cfgs):
            sampling = contextlib.nullcontext()
            if speed is not None:
                speed.reset()
                sampling = speed.sampling()
            start = time.perf_counter()
            try:
                with sampling:
                    if op.kind == "scenario":
                        harness.run_scenario(cfg)
                        drones = None
                    else:
                        drones, _ = harness.min_drones_for_run(cfg)
            except ew.EmberwatchError as exc:
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                out.ops.append(OpResult(op.name, time.perf_counter() - start))
                continue
            wall = time.perf_counter() - start
            scaled = 0.0
            if speed is not None:
                wall -= speed.spent_s
                scaled = speed.scaled(wall)
            out.ops.append(OpResult(op.name, wall, latest_metrics(), drones, scaled))
    return out


def check_round(rnd: Round, reference: dict[str, str] | None) -> None:
    """Properties every run's outputs must have, and byte-identical reruns."""
    for r in rnd.done:
        m = r.metrics
        checks.check_uncovered(m.uncovered, m.cum_uncertainty)
        if not all(math.isfinite(x) and x >= 0 for x in m.mean_trace_covariance):
            raise checks.CheckFailed(f"{r.name}: mean trace of P is negative or not finite")
        if r.drones is not None and r.drones != max(m.active_uavs, default=0):
            # Recruited UAVs are never released, so the total recruited is
            # the peak number airborne.
            raise checks.CheckFailed(
                f"{r.name}: min_drones_for_run says {r.drones}, "
                f"peak airborne was {max(m.active_uavs, default=0)}"
            )
    if reference is not None:
        for name, csv in rnd.csvs().items():
            if name in reference and csv != reference[name]:
                raise checks.CheckFailed(f"{name}: per-step CSV differs between runs of the same config")


def check_capture(capture: Capture) -> None:
    """The full output checks on what a traced round returned."""
    if capture.covariances:
        checks.check_covariances(np.stack(capture.covariances))
    for nodes, before, after, length in capture.tours:
        checks.check_tour(nodes, before, after, length)
    for nodes, total in capture.msts:
        checks.check_mst(nodes, total)
    for points, ids, fov_width, waypoints in capture.steiner:
        checks.check_steiner(points, ids, fov_width, waypoints)
    for bound in capture.spreading_bounds:
        checks.check_spreading_bound(*bound)
    for feasible, ratios in capture.plans:
        checks.check_feasible_plan(feasible, ratios)
    for run in capture.runs:
        if run.metrics is None:
            continue
        recount = [checks.recount_uncovered(f, fp) for f, fp in zip(run.fronts, run.footprints)]
        checks.check_uncovered(run.metrics.uncovered, run.metrics.cum_uncertainty, recount)


def warm_up(ew, op, seed: int) -> None:
    """Run a short copy of `op` untimed, so that lazy imports and first-call
    costs fall outside the timed rounds."""
    short = replace(op, name="warm-up", config={**op.config, "duration": WARMUP_STEPS})
    (path,) = write_configs("warm-up", seed, [short])
    sink: list = []
    rnd = run_round(ew, [short], [ew.load_config(path)], run_metrics_capture(sink), lambda: sink[-1], HostSpeed())
    if not rnd.done:
        raise SystemExit("the warm-up run failed")


def keep_going(started: float, rounds: int, seconds: float) -> bool:
    """True while one more round of the mean length would end within budget."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def end_to_end(ew, ops, cfgs, seconds, probes):
    sink: list = []
    speed = HostSpeed()
    shim = run_metrics_capture(sink)
    rounds: list[Round] = []
    reference = None
    started = time.perf_counter()
    while not rounds or keep_going(started, len(rounds), seconds):
        rnd = run_round(ew, ops, cfgs, shim, lambda: sink[-1], speed)
        sink.clear()
        check_round(rnd, reference)
        if reference is None:
            reference = rnd.csvs()
        rounds.append(rnd)
    first = rounds[0]
    steps = sum(r.steps for r in rounds)
    unscaled_rate = steps / sum(r.wall_s for r in rounds)
    unscaled_setup = statistics.median(p["setup_s"] for p in probes)
    print(
        f"at the host's own speed: sim_steps_per_s {unscaled_rate:.4f} setup_s {unscaled_setup:.4f}",
        file=sys.stderr,
    )
    values = {
        "sim_steps_per_s": steps / sum(r.scaled_s for r in rounds),
        "setup_s": statistics.median(p["scaled_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cum_uncertainty": sum(r.metrics.final_cum_uncertainty for r in first.done),
        "uavs_committed": sum(
            r.drones if r.drones is not None else max(r.metrics.active_uavs, default=0)
            for r in first.done
        ),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return rounds, metrics


def per_layer(ew, ops, cfgs, seconds, probes):
    tracer = Tracer()
    sink: list = []
    shim = run_metrics_capture(sink)
    rounds: list[Round] = []
    reference = None
    untraced_s = traced_s = 0.0
    step_times: list[float] = []
    tour_nodes = tours = 0
    length_in = length_out = 0.0
    pairs = 0
    started = time.perf_counter()
    while not pairs or keep_going(started, pairs, seconds):
        plain, traced, capture = Round(), Round(), Capture()
        spans = traced_functions(tracer, capture)
        # Each operation runs untraced and then traced, back to back, so
        # that drift in the host's speed cancels out of the overhead ratio.
        for op, cfg in zip(ops, cfgs):
            plain.ops += run_round(ew, [op], [cfg], shim, lambda: sink[-1]).ops
            traced.ops += run_round(ew, [op], [cfg], spans, lambda: capture.runs[-1].metrics).ops
        sink.clear()
        check_round(plain, reference)
        if reference is None:
            reference = plain.csvs()
        if set(traced.csvs()) != set(plain.csvs()):
            raise checks.CheckFailed("traced and untraced rounds failed on different operations")
        check_round(traced, reference)
        check_capture(capture)
        untraced_s += plain.wall_s
        traced_s += traced.wall_s
        step_times += [t for r in plain.done for t in r.metrics.wall_clock]
        for nodes, before, after, length in capture.tours:
            tours += 1
            tour_nodes += len(after)
            if len(after) > 1:
                length_in += checks.cycle_length(nodes, before)
                length_out += length
        rounds += [plain, traced]
        pairs += 1

    stats = tracer.stats
    values = {
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "config.load_s": statistics.median(p["load_s"] for p in probes),
    }
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = stats[name].self_s / pairs
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = stats[name].calls / pairs
    plans = stats["coordination.plan_safety_tour"].calls
    values.update(
        {
            "routing.k_opt_improve.mean_nodes": tour_nodes / tours if tours else 0.0,
            "routing.k_opt_improve.length_ratio": length_out / length_in if length_in else 1.0,
            "coordination.ratio_evals_per_plan": (
                stats["bounds.uncertainty_ratio"].calls / plans if plans else 0.0
            ),
            "coordination.coverage_replans": stats["coordination.cluster_and_assign"].calls / pairs,
            "harness.step_p50_ms": statistics.median(step_times) * 1e3,
            "harness.step_max_ms": max(step_times) * 1e3,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return rounds, metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_plan")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    ew = import_program()
    ops = WORKLOADS[args.workload](args.seed)
    paths = write_configs(args.workload, args.seed, ops)
    cfgs = [ew.load_config(p) for p in paths]
    probes = probe_setup(paths[0], ops[0].kind)
    warm_up(ew, ops[0], args.seed)
    measure = per_layer if args.trace else end_to_end
    correct = True
    try:
        rounds, metrics = measure(ew, ops, cfgs, args.seconds, probes)
    except checks.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        correct, rounds, metrics = False, [], {}
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(len(r.ops) - len(r.done) for r in rounds)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
