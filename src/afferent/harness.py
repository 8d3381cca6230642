"""Batch experiment driver behind the CLI subcommands.

Each operation reads an ExperimentConfig, runs the relevant pipeline, and
writes into a fixed output tree: out/{runs/*.jsonl, reports/*.json,
curves/*.csv, genomes/*.bin}.  Independent (variant, age, seed) cells are
dealt round-robin over cfg.jobs processes in total: the calling process plus
cfg.jobs - 1 workers, one forked per slice.  Each cell derives its randomness
from its own seeds, so neither the process count nor its placement changes results.
Evaluations are pooled, summarized and compared in metrics.py; this module
runs the cells and writes the results.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from . import env as twin
from .afferents import Genome, compute_cat, decode_genome, handcrafted_genome
from .config import ABLATIONS, ARMS, FITNESS_ARM, Arm, ExperimentConfig
from .errors import ConfigError, TrainingError, ValidationError
from .evolution import evaluate_fitness, lipschitz_probe, run_evolution
from .memory import MemoryStore
from .metrics import MetricsReport, age_key, compare_arms, compute_metrics, pool, summary
from .policy import obs_dim
from .rollout import AgentSetup, calibrate_predictive, evaluate_policy, rl_train
from .storage import (
    load_genome,
    load_policy,
    save_genome,
    save_policy,
    save_safe_model,
    validate_rollout_line,
    write_csv,
    write_json_report,
    write_jsonl,
)
from .util import rng_for

__all__ = [
    "variant_plan",
    "resolve_predictive",
    "fitness_setup",
    "evolve_genome",
    "simulate",
    "train",
    "evolve",
    "evaluate",
    "run_ablation",
    "probe_lipschitz",
]


def variant_plan(cfg: ExperimentConfig, variant: str) -> Arm:
    """ARMS[variant]; an unknown arm is a ConfigError.

    cfg is unused: it stays for the two-argument call in bench/workloads.py.
    """
    if variant not in ARMS:
        raise ConfigError(f"unknown ablation {variant!r}")
    return ARMS[variant]


def resolve_predictive(cfg: ExperimentConfig):
    """Calibrated safe-state model with config-selected signal weights."""
    model, disc = calibrate_predictive(cfg.pred_seed, cfg.pred_samples,
                                       cfg.episode_len)
    disc = replace(disc, kappa=cfg.pred_kappa, lambda_env=cfg.pred_lambda_env,
                   lambda_pred=cfg.pred_lambda_pred)
    return model, disc


def _load_checkpoint(load, key: str, path: str):
    """load(path) of the file config key names; missing or malformed is a ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{key} file not found: {path}")
    try:
        return load(path)
    except (ValueError, EOFError, LookupError, TypeError, BadZipFile, ValidationError) as exc:
        raise ConfigError(f"{key} file {path} is not a {key} checkpoint: {exc}") from exc


def _resolve_genome(cfg: ExperimentConfig) -> Genome:
    if cfg.genome:
        genome, _ = _load_checkpoint(load_genome, "genome", cfg.genome)
        if genome.m != cfg.m or genome.k != cfg.k:
            raise ConfigError(
                f"genome shape ({genome.m}, {genome.k}) does not match config "
                f"({cfg.m}, {cfg.k})")
        return genome
    return handcrafted_genome(cfg.m, cfg.k, cfg.dt)


def fitness_setup(cfg: ExperimentConfig):
    """The genome -> AgentSetup builder evolution scores candidates under."""
    return lambda genome: _build_setup(cfg, FITNESS_ARM, genome, cfg.ages[0], None, None)


def evolve_genome(cfg: ExperimentConfig):
    """Run the outer CMA-ES loop under the config's evolution settings."""
    return run_evolution(
        cfg.fitness, cfg.evo_generations, cfg.evo_popsize, fitness_setup(cfg),
        cfg.m, cfg.k, cfg.ppo, seed=cfg.seed, sigma0=cfg.evo_sigma0,
    )


def _build_setup(cfg: ExperimentConfig, arm: Arm, genome: Genome,
                 age: float, model, disc) -> AgentSetup:
    """One agent under arm's wiring, trained on cfg.reward."""
    array = decode_genome(genome, cfg.dt)
    memory = (MemoryStore(cfg.memory_capacity, cfg.memory_k_ret, cfg.memory_eps_d,
                          cfg.memory_kappa_cat) if arm.use_memory else None)
    return AgentSetup(
        scenario=twin.SCENARIOS[cfg.scenario], age=float(age), array=array,
        reward=cfg.reward, mode=arm.mode, memory=memory,
        safe_model=model if arm.use_predictive else None,
        disc=disc if arm.use_predictive else None,
        episode_len=cfg.episode_len,
    )


def _episode_rows(episodes) -> list:
    return [{"episode": i, **summary(ep)} for i, ep in enumerate(episodes)]


def _train_eval_cell(args):
    """One (variant, age, seed) cell: train a policy, evaluate it, summarize."""
    cfg, variant, age, seed, genome, model, disc = args
    setup = _build_setup(cfg, variant_plan(cfg, variant), genome, age, model, disc)
    try:
        result = rl_train(setup, cfg.ppo, int(seed))
    except TrainingError as exc:
        return {"failure": {"variant": variant, "age": float(age),
                            "seed": int(seed), "error": str(exc)}}
    episodes = evaluate_policy(setup, result.policy, cfg.eval_seeds,
                               cfg.eval_episodes)
    return {
        "run_log": pool(episodes, variant=variant, age=float(age), seed=int(seed)),
        "episodes": _episode_rows(episodes),
        "history": result.history,
        "policy": result.policy,
    }


def _arm_inputs(cfg: ExperimentConfig):
    """Arm, genome and safe model (None, None without one) of cfg.ablation."""
    arm = variant_plan(cfg, cfg.ablation)
    genome = (_resolve_genome(cfg) if arm.evolved
              else handcrafted_genome(cfg.m, cfg.k, cfg.dt))
    model, disc = resolve_predictive(cfg) if arm.use_predictive else (None, None)
    return arm, genome, model, disc


def _ablation_cell(args):
    """A cell's report rows only; its policy and history stay where it ran."""
    cell = _train_eval_cell(args)
    return {k: cell[k] for k in ("run_log", "episodes", "failure") if k in cell}


def _fail(out: Path, failures: list, logs=()):
    """Report the failed cells and the completed cells' logs, then raise TrainingError."""
    completed = [{"variant": log.variant, "age": log.age, "seed": log.seed} for log in logs]
    write_json_report(out / "reports" / "failure_manifest.json",
                      {"failures": failures, "completed": completed})
    raise TrainingError(f"{len(failures)} cell(s) failed; first: {failures[0]['error']}")


def _parallel_map(fn, items, jobs: int) -> list:
    """[fn(it) for it in items] on P = min(jobs, len(items)) processes in total.

    Item i runs in process i mod P: the caller runs items[0::P], and each other
    slice runs in one worker, forked with its own pipe before any work or thread.
    Every worker is joined, so if fn raises, the other slices finish first.
    """
    procs = min(jobs, len(items))
    if procs < 2:
        return [fn(it) for it in items]
    # Imported here so that a process that never pools never loads multiprocessing.
    import multiprocessing

    def run_slice(p):
        try:
            return True, [fn(it) for it in items[p::procs]]
        except Exception as exc:
            return False, exc

    ctx = multiprocessing.get_context("fork")  # Python 3.14 defaults to forkserver on Linux
    workers = []
    for p in range(1, procs):
        recv, send = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=lambda p, send: send.send(run_slice(p)), args=(p, send))
        worker.start()
        send.close()  # the worker holds the only send end, so its death is an EOFError below
        workers.append((worker, recv))
    replies = [run_slice(0)]
    for worker, recv in workers:
        try:
            replies.append(recv.recv())
        except Exception as exc:  # the worker died before replying, or its reply does not unpickle
            replies.append((False, exc))
        worker.join()
    for ok, value in replies:
        if not ok:
            raise value
    return [replies[i % procs][1][i // procs] for i in range(len(items))]


# ---------------------------------------------------------------------------
# Subcommand implementations


def simulate(cfg: ExperimentConfig) -> dict:
    """Emit knee-twin rollout logs: scenarios x repeats, one JSONL each."""
    out = Path(cfg.out)
    array = decode_genome(handcrafted_genome(cfg.m, cfg.k, cfg.dt), cfg.dt)
    manifest = {"files": [], "lines_per_file": int(cfg.sim_steps)}
    for si, name in enumerate(twin.SCENARIOS):
        scen = twin.SCENARIOS[name]
        load_factor = (scen.stress_mult + scen.strain_mult + scen.shear_mult) / 3.0
        for rep in range(cfg.sim_repeats):
            seed = int(rng_for(cfg.seed, 21, si, rep).integers(0, 2**62))
            state = twin.reset(scen, cfg.sim_age, seed)
            acts = np.zeros(array.m)
            rows = []
            for t in range(cfg.sim_steps):
                state, res = twin.step(state, cfg.sim_action, scen,
                                       episode_len=cfg.sim_steps + 1)
                cat, acts = compute_cat(array, acts, res.x_next)
                row = {
                    "time": t / twin.GAIT_PERIOD,
                    "stress": float(res.x_next[0]),
                    "strain": float(res.x_next[1]),
                    "shear": float(res.x_next[2]),
                    "scenario": name,
                    "load_factor": float(load_factor),
                    "instability_index": float(scen.instability),
                    "cat": float(cat),
                    "cat_embedding": [float(a) for a in acts],
                    "damage_increment": float(res.delta_d),
                }
                validate_rollout_line(row)
                rows.append(row)
            rel = f"runs/dkt_{name}_rep{rep}.jsonl"
            write_jsonl(out / rel, rows)
            manifest["files"].append(rel)
    write_json_report(out / "reports" / "simulate.json", manifest)
    return manifest


def train(cfg: ExperimentConfig) -> dict:
    """Train one policy (cfg.seed) under the cfg.ablation wiring and evaluate."""
    out = Path(cfg.out)
    age = float(cfg.ages[0])
    _, genome, model, disc = _arm_inputs(cfg)
    cell = _train_eval_cell((cfg, cfg.ablation, age, cfg.seed, genome, model, disc))
    if "failure" in cell:
        _fail(out, [cell["failure"]])
    tag = f"{cfg.scenario}_age{age_key(age)}_seed{cfg.seed}"
    save_policy(out / "genomes" / f"policy_{tag}.bin", cell["policy"])
    if model is not None:
        save_safe_model(out / "genomes" / "safe_model.bin", model, disc)
    columns = ["step", "mean_reward", "mean_cat", "mean_delta_d", "clip_fraction", "loss"]
    write_csv(out / "curves" / f"train_{tag}.csv", columns,
              [[h[c] for c in columns] for h in cell["history"]])
    write_jsonl(out / "runs" / f"train_{tag}.jsonl", cell["episodes"])
    report = {
        "variant": cfg.ablation,
        "scenario": cfg.scenario,
        "age": age,
        "seed": int(cfg.seed),
        "steps": int(cfg.ppo.total_steps),
        "eval": summary(cell["run_log"]),
        "policy_file": f"genomes/policy_{tag}.bin",
    }
    write_json_report(out / "reports" / f"train_{tag}.json", report)
    return report


def evolve(cfg: ExperimentConfig) -> dict:
    """Outer-loop search; saves the best genome, curves, and a report."""
    out = Path(cfg.out)
    best, history = evolve_genome(cfg)
    best_fitness = max(h["best"] for h in history)
    tag = f"{cfg.scenario}_seed{cfg.seed}"
    save_genome(out / "genomes" / f"evolved_{tag}.bin", best,
                meta={"generations": cfg.evo_generations,
                      "fitness": best_fitness})
    write_csv(
        out / "curves" / f"evolution_{tag}.csv",
        ["generation", "best", "mean", "std"],
        [[h["generation"], h["best"], h["mean"], h["std"]] for h in history],
    )
    report = {
        "scenario": cfg.scenario,
        "age": float(cfg.ages[0]),
        "seed": int(cfg.seed),
        "generations": int(cfg.evo_generations),
        "popsize": int(cfg.evo_popsize),
        "n_params": int(cfg.m * (cfg.k + 4)),
        "best_fitness": best_fitness,
        "history": history,
        "genome_file": f"genomes/evolved_{tag}.bin",
    }
    write_json_report(out / "reports" / f"evolve_{tag}.json", report)
    return report


def evaluate(cfg: ExperimentConfig) -> MetricsReport:
    """Evaluate a saved policy across cfg.ages; memory starts empty."""
    out = Path(cfg.out)
    if not cfg.policy:
        raise ConfigError("evaluate requires policy = <path to .bin checkpoint>")
    policy = _load_checkpoint(load_policy, "policy", cfg.policy)
    arm, genome, model, disc = _arm_inputs(cfg)
    if policy.mode != arm.mode:
        raise ConfigError(
            f"policy was trained in mode {policy.mode!r}; config wires {arm.mode!r}")
    if policy.obs_dim != obs_dim(arm.mode, cfg.k, cfg.m):
        raise ConfigError("policy observation size does not match m/k in config")
    logs = []
    for age in cfg.ages:
        setup = _build_setup(cfg, arm, genome, age, model, disc)
        episodes = evaluate_policy(setup, policy, cfg.eval_seeds, cfg.eval_episodes)
        logs.append(pool(episodes, variant=cfg.ablation, age=float(age), seed=int(cfg.seed)))
        write_jsonl(
            out / "runs" / f"evaluate_{cfg.scenario}_age{age_key(age)}.jsonl",
            _episode_rows(episodes),
        )
    report = compute_metrics(logs)
    write_json_report(out / "reports" / f"evaluate_{cfg.scenario}.json",
                      asdict(report))
    return report


def run_ablation(cfg: ExperimentConfig, genome: Genome | None = None) -> dict:
    """Train and evaluate every ablation arm across cfg.ages x cfg.seeds.

    The evolved arms share one genome: the configured file if given,
    otherwise the best genome from a fresh outer-loop run.  Returns
    {variant: MetricsReport}.  reports/ablation.json holds these reports
    under "variants", metrics.compare_arms' full-vs-arm Welch tests under
    "welch", and their count as "bonferroni_multiplier".
    """
    out = Path(cfg.out)
    if genome is None:
        if cfg.genome:
            genome = _resolve_genome(cfg)
        else:
            genome, _ = evolve_genome(cfg)
            save_genome(out / "genomes" / f"ablation_{cfg.scenario}_seed{cfg.seed}.bin",
                        genome, meta={"role": "shared evolved genome"})
    baseline = handcrafted_genome(cfg.m, cfg.k, cfg.dt)
    model, disc = resolve_predictive(cfg)

    cells = [
        (cfg, variant, float(age), int(seed),
         genome if ARMS[variant].evolved else baseline, model, disc)
        for variant in ABLATIONS
        for age in cfg.ages
        for seed in cfg.seeds
    ]
    results = _parallel_map(_ablation_cell, cells, cfg.jobs)

    failures, logs = [], []  # logs in grid order: variant, then age, then seed
    for res in results:
        if "failure" in res:
            failures.append(res["failure"])
            continue
        log = res["run_log"]
        logs.append(log)
        write_jsonl(out / "runs" /
                    f"ablation_{log.variant}_age{age_key(log.age)}_seed{log.seed}.jsonl",
                    res["episodes"])
    if failures:
        _fail(out, failures, logs)

    reports = {v: compute_metrics([log for log in logs if log.variant == v])
               for v in ABLATIONS}
    welch = compare_arms(logs)
    aggregate = {
        "variants": {v: asdict(reports[v]) for v in ABLATIONS},
        "welch": welch,
        "bonferroni_multiplier": len(welch),
    }
    write_json_report(out / "reports" / "ablation.json", aggregate)
    columns = ("d_total", "action_mean", "safe_fraction", "cat_mean")
    write_csv(
        out / "curves" / f"ablation_{cfg.scenario}.csv",
        ["variant", "age", "seed", *columns],
        [[log.variant, log.age, log.seed, *(summary(log).get(c, "") for c in columns)]
         for log in logs],
    )
    return reports


def probe_lipschitz(cfg: ExperimentConfig) -> dict:
    """Empirical fitness-smoothness probe around a genome."""
    out = Path(cfg.out)
    genome = _resolve_genome(cfg)
    build = fitness_setup(cfg)

    def fitness_fn(raw):
        g = Genome(raw=np.asarray(raw, dtype=float), m=cfg.m, k=cfg.k)
        return evaluate_fitness(g, cfg.fitness, build, cfg.ppo,
                                cfg.fitness.rl_steps_short, (0,))

    l_hat = lipschitz_probe(genome, fitness_fn, n_pairs=cfg.probe_pairs,
                            radius=cfg.probe_radius, pert_sd=cfg.probe_sd,
                            seed=cfg.seed)
    report = {
        "scenario": cfg.scenario,
        "age": float(cfg.ages[0]),
        "seed": int(cfg.seed),
        "n_pairs": int(cfg.probe_pairs),
        "radius": float(cfg.probe_radius),
        "pert_sd": float(cfg.probe_sd),
        "rl_steps": int(cfg.fitness.rl_steps_short),
        "genome": cfg.genome or "handcrafted",
        "l_hat": float(l_hat),
    }
    write_json_report(
        out / "reports" / f"lipschitz_{cfg.scenario}_seed{cfg.seed}.json", report)
    return report
