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

from .config import TEAM_FIRE_IDS, load_config
from .errors import ConfigError
from .harness import CELL_KEY_FIELDS, compare_controllers, experiment_cells, run_scenario, sweep_safety


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
            if args.seed < 0:
                raise ConfigError("--seed", f"must be >= 0, got {args.seed}")
            cfg = replace(cfg, rng_seed=args.seed)
        if args.controller is not None:
            cfg = replace(cfg, controller=args.controller)
        cfg.validate()
        if args.command == "sweep-safety":
            _check_positive("--max-teams", args.max_teams)
            if args.max_teams * TEAM_FIRE_IDS >= 2**32:  # the largest sweep cell's fire ids
                raise ConfigError("--max-teams", f"must be at most {2**32 // TEAM_FIRE_IDS}, got {args.max_teams}")
            sizes = range(1, args.max_teams + 1)
        elif args.command == "compare":
            sizes = _parse_drones(args.drones)
        if args.command != "simulate":
            _check_positive("--trials", args.trials)
            _validate_cells(cfg, args.command, sizes, args.trials)
        # Only a run that passed every check leaves an output directory.
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            message = f"cannot create directory {args.out!r}: {exc.strerror or exc}"
            raise ConfigError("--out", message) from exc

        if args.command == "simulate":
            _run_simulate(cfg, out, args.format)
        elif args.command == "sweep-safety":
            _write(sweep_safety(cfg, args.max_teams, args.trials), out, "safety_sweep.csv", "safety_summary.csv")
        else:
            _write(compare_controllers(cfg, sizes, args.trials), out, "comparison.csv", "comparison_summary.csv")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(flag, f"must be >= 1, got {value}")


def _validate_cells(cfg, command: str, sizes, trials: int) -> None:
    """Validate every cell of the experiment, the largest size first.

    A sweep cell's front count grows with its team count, so a size the
    front cap refuses is found before thousands of smaller cells are
    built. A refusal names its cell by its key without the trial.
    """
    for size in sorted(sizes, reverse=True):
        for key, cell in experiment_cells(cfg, command, [size], trials):
            try:
                cell.validate()
            except ConfigError as exc:
                where = ", ".join(f"{name} {value}" for name, value in zip(CELL_KEY_FIELDS[command], key[:-1]))
                raise ConfigError(exc.path, f"{exc.message} ({where})") from exc


def _parse_drones(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError("--drones", f"expected comma-separated integers, got {text!r}") from exc
    if not counts or any(c < 1 for c in counts):
        raise ConfigError("--drones", f"fleet sizes must be positive, got {text!r}")
    if len(set(counts)) < len(counts):
        raise ConfigError("--drones", f"fleet sizes must not repeat, got {text!r}")
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


def _write(result, out: Path, rows_file: str, summary_file: str) -> None:
    (out / rows_file).write_text(result.to_csv(), encoding="utf-8")
    summary = result.summary_csv()
    (out / summary_file).write_text(summary, encoding="utf-8")
    print(summary, end="")


if __name__ == "__main__":
    sys.exit(main())
