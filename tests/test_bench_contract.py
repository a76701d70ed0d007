"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py replaces public functions of the package by name and
reads fields of what they return. This runs a short traced scenario and
one safety-sweep cell under it, so a rename that would break the
benchmark fails here rather than at the benchmark run.
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Capture, Tracer, installed, traced_functions  # noqa: E402

from emberwatch import harness  # noqa: E402
from emberwatch.config import load_config  # noqa: E402


def test_every_traced_span_fires_and_capture_fills():
    tracer, capture = Tracer(), Capture()
    case3 = load_config(ROOT / "configs" / "case3.yaml")
    scenario = replace(case3, duration=15, teams=replace(case3.teams, count=1))
    safety_cell = load_config(ROOT / "configs" / "sweep.yaml")
    assert safety_cell.fire.layout == "team_clusters"
    with installed(traced_functions(tracer, capture)):
        harness.run_scenario(scenario)
        harness.min_drones_for_run(safety_cell)
    silent = sorted(name for name, stats in tracer.stats.items() if stats.calls == 0)
    assert not silent, f"spans never called: {silent}"
    assert capture.covariances
    assert capture.plans
    assert capture.spreading_bounds
