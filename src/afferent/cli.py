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
    _FLAGS,
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
    choices = {"ablation": ABLATIONS, "scenario": sorted(SCENARIOS)}
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key=value config document")
        for flag, key in _FLAGS.items():
            p.add_argument(f"--{flag}", choices=choices.get(flag),
                           help=f"override config key {key}")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    """The --config document with each given flag parsed as its key's value."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    flags = {}
    for flag, key in _FLAGS.items():
        text = getattr(args, flag)
        if text is not None:
            try:
                flags[flag] = _parse_scalar(text, DEFAULTS[key])
            except ConfigError as exc:
                raise ConfigError(f"--{flag}: {exc}") from None
    return apply_cli_overrides(cfg, **flags)


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
