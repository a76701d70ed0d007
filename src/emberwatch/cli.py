"""Command-line harness: simulate, sweep-safety, compare.

All commands exit 0 on success and 2 on a bad config or a bad flag
value. Output files contain no timestamps, so reruns with the same config
and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_config
from .errors import ConfigError
from .harness import compare_controllers, run_scenario, sweep_safety


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emberwatch",
        description="Deterministic wildfire tracking and UAV coordination toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write per-step metrics")
    _common_args(sim)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep = sub.add_parser("sweep-safety", help="minimum drones vs. team count, per case")
    _common_args(sweep)
    sweep.add_argument("--max-teams", type=int, default=8)
    sweep.add_argument("--trials", type=int, default=10)

    comp = sub.add_parser("compare", help="proposed vs. gradient cumulative uncertainty")
    _common_args(comp)
    comp.add_argument("--drones", default="1,2,4,8", help="comma-separated fleet sizes")
    comp.add_argument("--trials", type=int, default=10)
    return parser


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario config file (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--controller", choices=("proposed", "gradient"), default=None, help="override controller"
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, rng_seed=args.seed)
        if args.controller is not None:
            cfg = replace(cfg, controller=args.controller)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "simulate":
            _run_simulate(cfg, out, args.format)
        elif args.command == "sweep-safety":
            _check_positive("--max-teams", args.max_teams)
            _check_positive("--trials", args.trials)
            _run_sweep(cfg, out, args.max_teams, args.trials)
        elif args.command == "compare":
            drones = _parse_drones(args.drones)
            _check_positive("--trials", args.trials)
            _run_compare(cfg, out, drones, args.trials)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(flag, f"must be >= 1, got {value}")


def _parse_drones(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError("--drones", f"expected comma-separated integers, got {text!r}") from exc
    if not counts or any(c < 1 for c in counts):
        raise ConfigError("--drones", f"fleet sizes must be positive, got {text!r}")
    return counts


def _run_simulate(cfg, out: Path, fmt: str) -> None:
    metrics = run_scenario(cfg)
    if fmt == "csv":
        (out / "steps.csv").write_text(metrics.to_csv(), encoding="utf-8")
    else:
        (out / "steps.json").write_text(metrics.to_json(), encoding="utf-8")
    print(
        f"simulate: case {cfg.case}, {cfg.duration} steps, "
        f"final cumulative uncertainty {metrics.final_cum_uncertainty}"
    )


def _run_sweep(cfg, out: Path, max_teams: int, trials: int) -> None:
    result = sweep_safety(cfg, max_teams, trials)
    (out / "safety_sweep.csv").write_text(result.to_csv(), encoding="utf-8")
    lines = ["case,teams,mean_min_drones,se_min_drones"]
    for case in sorted(result.summary):
        for teams_n in sorted(result.summary[case]):
            mean, se = result.summary[case][teams_n]
            lines.append(f"{case},{teams_n},{mean!r},{se!r}")
    (out / "safety_summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)


def _run_compare(cfg, out: Path, drones: list[int], trials: int) -> None:
    result = compare_controllers(cfg, drones, trials)
    (out / "comparison.csv").write_text(result.to_csv(), encoding="utf-8")
    lines = ["case,controller,drones,mean_cum_uncertainty,se"]
    for key in sorted(result.summary):
        case, controller, count = key
        mean, se = result.summary[key]
        lines.append(f"{case},{controller},{count},{mean!r},{se!r}")
    (out / "comparison_summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)


if __name__ == "__main__":
    sys.exit(main())
