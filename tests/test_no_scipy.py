"""The simulator runs with scipy impossible to import.

scipy stays a test dependency (reference values here and in perfbench), but
nothing that `import emberwatch` or its three commands load may need it: a
fresh interpreter whose import system refuses `scipy` and `scipy.*` imports
the package, runs both controllers, a safety cell and the `simulate`
command, and ends with no scipy module loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GUARDED_RUN = r"""
import importlib.abc
import json
import sys
from dataclasses import replace

CONFIGS, OUT = sys.argv[1], sys.argv[2]


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())

import emberwatch
from emberwatch import bounds, cli, coordination
from emberwatch.harness import min_drones_for_run, run_scenario

assignments = []
assign = coordination.cluster_and_assign


def counting_assign(*args, **kwargs):
    assignments.append(1)
    return assign(*args, **kwargs)


coordination.cluster_and_assign = counting_assign

case3 = replace(emberwatch.load_config(f"{CONFIGS}/case3.yaml"), duration=40)
finals = {c: run_scenario(replace(case3, controller=c)).final_cum_uncertainty for c in ("proposed", "gradient")}
sweep = replace(emberwatch.load_config(f"{CONFIGS}/sweep.yaml"), case=3, duration=40)
drones, feasible = min_drones_for_run(sweep)
code = cli.main(["simulate", "--config", f"{CONFIGS}/case1.yaml", "--out", OUT])
print(json.dumps({
    "finals": finals,
    "drones": drones,
    "cli": code,
    "assignments": len(assignments),
    "quantiles": bounds._upper_quantile.cache_info().misses,
    "scipy_modules": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def test_simulator_path_runs_without_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN, str(ROOT / "configs"), str(tmp_path / "out")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["scipy_modules"] == []
    assert report["cli"] == 0
    assert (tmp_path / "out" / "steps.csv").is_file()
    assert set(report["finals"]) == {"proposed", "gradient"}
    assert report["drones"] >= 1
    # The coverage planner and the bounds' quantile both ran.
    assert report["assignments"] >= 1
    assert report["quantiles"] >= 1
