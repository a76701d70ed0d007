"""Set-up probe: one fresh interpreter from start to the first simulated step.

Usage: python3 perfbench/probe.py CONFIG {scenario|safety_cell}

Imports emberwatch from the checkout's src/, loads and validates CONFIG
with load_config, then enters the workload's entry point and stops at its
first fire step. The host is sampled every 20 ms on the way (hostspeed.py).
Prints one JSON line with the import and load durations (sampling taken
out), the monotonic clock reading at the first step, which the parent
compares with the moment it started this process, and the samples.
"""

import json
import sys
import time
from pathlib import Path

started = time.monotonic()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402

speed = HostSpeed()
sampling = speed.sampling()
sampling.__enter__()

import emberwatch  # noqa: E402
from emberwatch import harness  # noqa: E402

imported = time.monotonic()
import_sampling = speed.spent_s
cfg = emberwatch.load_config(sys.argv[1])
loaded = time.monotonic()
load_sampling = speed.spent_s - import_sampling


class FirstStep(Exception):
    pass


first_step = {}


def stop_at_first_step(fire_map, dt):
    first_step["at"] = time.monotonic()
    sampling.__exit__(None, None, None)
    raise FirstStep


harness.simulate_step = stop_at_first_step
try:
    if sys.argv[2] == "scenario":
        harness.run_scenario(cfg)
    else:
        harness.min_drones_for_run(cfg)
except FirstStep:
    pass
print(
    json.dumps(
        {
            "import_s": imported - started - import_sampling,
            "load_s": loaded - imported - load_sampling,
            "first_step": first_step["at"],
            "samples": speed.samples,
            "piece_s": speed.piece_s,
            "spent_s": speed.spent_s,
        }
    )
)
