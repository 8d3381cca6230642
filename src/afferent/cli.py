"""Command-line entry point.

Subcommands: simulate, train, evolve, evaluate, ablate, probe-lipschitz.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .config import (
    ABLATIONS,
    DEFAULTS,
    ExperimentConfig,
    _parse_scalar,
    apply_cli_overrides,
    load_config,
)
from .env import SCENARIOS
from .errors import ConfigError, TrainingError, ValidationError
from .metrics import age_key

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afferent",
        description="Afferent-sensing experiments on the synthetic knee twin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "emit knee-twin rollout JSONL files",
        "train": "train one policy under the configured wiring",
        "evolve": "run the outer CMA-ES loop over afferent genomes",
        "evaluate": "evaluate a saved policy checkpoint across ages",
        "ablate": "train and compare every ablation arm",
        "probe-lipschitz": "estimate local fitness smoothness at a genome",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key=value config document")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--ablation", choices=ABLATIONS,
                       help="variant wiring for train/evaluate")
        p.add_argument("--ages", help="comma-separated ages, e.g. 20,60,80")
        p.add_argument("--scenario", choices=sorted(SCENARIOS),
                       help="override the scenario")
        p.add_argument("--steps", type=int,
                       help="override ppo.total_steps")
        p.add_argument("--jobs", type=int,
                       help="override the process count, the calling "
                            "process included")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    ages = None
    if args.ages is not None:
        try:
            ages = _parse_scalar(args.ages, DEFAULTS["ages"])
        except ConfigError as exc:
            raise ConfigError(f"--ages: {exc}") from None
    return apply_cli_overrides(
        cfg, seed=args.seed, out=args.out, ablation=args.ablation,
        ages=ages, scenario=args.scenario, steps=args.steps, jobs=args.jobs,
    )


def _dispatch(command: str, cfg: ExperimentConfig) -> str:
    if command == "simulate":
        manifest = harness.simulate(cfg)
        return (f"wrote {len(manifest['files'])} rollout files x "
                f"{manifest['lines_per_file']} lines under {cfg.out}/runs")
    if command == "train":
        report = harness.train(cfg)
        line = (f"trained {report['variant']} at age {age_key(report['age'])}: "
                f"d_total={report['eval']['d_total']:.6f} "
                f"action_mean={report['eval']['action_mean']:.4f}")
        return line
    if command == "evolve":
        report = harness.evolve(cfg)
        return (f"evolved {report['generations']} generations: "
                f"best fitness {report['best_fitness']:.6f} "
                f"({report['genome_file']})")
    if command == "evaluate":
        report = harness.evaluate(cfg)
        eff = report.cat_efficiency
        eff_text = "n/a" if eff is None else f"{eff:.4f}"
        return (f"evaluated over ages {','.join(sorted(report.mean_action))}: "
                f"cat_efficiency={eff_text}")
    if command == "ablate":
        reports = harness.run_ablation(cfg)
        parts = []
        for variant in ABLATIONS:
            d = [r["d_total"] for r in reports[variant].d_total]
            parts.append(f"{variant}={sum(d) / len(d):.6f}")
        return "ablation mean d_total: " + " ".join(parts)
    if command == "probe-lipschitz":
        report = harness.probe_lipschitz(cfg)
        return f"l_hat={report['l_hat']:.6f} over {report['n_pairs']} pairs"
    raise ConfigError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        print(_dispatch(args.command, cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, ValidationError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
