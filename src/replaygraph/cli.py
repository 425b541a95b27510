"""Command-line experiment runner.

Subcommands: ``run`` (one strategy, multi-seed aggregate), ``sweep-e`` (one
aggregate per buffer size), ``validate-config`` (check a JSON config without
computing). Options may come from a JSON config file (``--config``) with
command-line flags taking precedence; relative dataset paths resolve against
``REPLAYGRAPH_DATA_DIR``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (DATASETS, ExperimentConfig, ExperimentError, read_config_file,
                         run_experiment, sweep_e, validate_config_file)
from .optim import TrainingDiverged
from .replay import EVAL_MODES, STRATEGIES


def parse_seeds(text: str) -> list[int]:
    """``"0..9"`` (inclusive range) or a comma list like ``"0,3,7"``."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_v, hi_v = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad seed range {text!r}; expected like 0..9") from None
        if hi_v < lo_v:
            raise ValueError(f"bad seed range {text!r}: end below start")
        return list(range(lo_v, hi_v + 1))
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad seed list {text!r}; expected like 0,1,2 or 0..9") from None


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    # Defaults are all None so that only flags the user actually set override
    # the config file; real defaults live on ExperimentConfig.
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--dataset", choices=DATASETS)
    parser.add_argument("--content", help="citation .content file")
    parser.add_argument("--cites", help="citation .cites file")
    parser.add_argument("--mnist-dir", help="directory holding IDX files")
    parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--e", type=int, help="experiences stored per class")
    parser.add_argument("--k", type=int, help="feature propagation depth")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--decay", type=float, help="L2 weight decay")
    parser.add_argument("--tasks", type=int)
    parser.add_argument("--classes-per-task", type=int)
    parser.add_argument("--train-per-class", type=int)
    parser.add_argument("--eval-mode", choices=EVAL_MODES)
    parser.add_argument("--seeds", help="e.g. 0..9 or 0,1,2")
    parser.add_argument("--jobs", type=int, help="parallel seed workers")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replaygraph",
        description="Continual node classification with experience replay.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one strategy over the configured seeds")
    _add_run_flags(run_p)

    sweep_p = sub.add_parser("sweep-e", help="repeat the run for several buffer sizes")
    _add_run_flags(sweep_p)
    sweep_p.add_argument("--e-values", required=True,
                         help="comma list of e values, e.g. 1,5,10,20")

    val_p = sub.add_parser("validate-config", help="check a config file and exit")
    val_p.add_argument("path", help="JSON config file")
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    data = read_config_file(args.config) if args.config is not None else {}
    skip = {"config", "command", "e_values"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        data[key] = parse_seeds(value) if key == "seeds" else value
    return ExperimentConfig.from_dict(data)


def _print_report(report: dict, prefix: str = "") -> None:
    fm = report["fm_mean"]
    print(f"{prefix}pm {report['pm_mean']:.4f} +/- {report['pm_std']:.4f}")
    if fm == fm:  # not NaN; single-task runs have no forgetting value
        print(f"{prefix}fm {fm:.4f} +/- {report['fm_std']:.4f}")
    print(f"{prefix}report: {Path(report['config']['out']) / 'report.json'}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate-config":
            errors = validate_config_file(args.path)
            if errors:
                for e in errors:
                    print(e, file=sys.stderr)
                return 1
            print("ok")
            return 0

        config = _build_config(args)
        if args.command == "run":
            _print_report(run_experiment(config))
            return 0

        try:
            e_values = [int(v) for v in args.e_values.split(",") if v.strip() != ""]
        except ValueError:
            raise ValueError(f"bad --e-values {args.e_values!r}; expected a comma list of "
                             "integers like 1,5,10") from None
        reports = sweep_e(config, e_values)
        for e, report in zip(e_values, reports):
            _print_report(report, prefix=f"e={e}: ")
        print(f"sweep: {Path(config.out) / 'sweep_e.csv'}")
        return 0
    except (ExperimentError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
