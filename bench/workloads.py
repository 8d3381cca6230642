"""The three pipeline workloads: generated configs, expected call counts, output checks.

A config is generated from the benchmark seed, and the program sees that seed
only through the config keys ``seed`` and ``seeds``.  Every call count a
traced run reports is derived here from the parsed config alone, so a traced
run must match it exactly; a mismatch is either a gap in the tracing or a
change in behaviour.

This module imports nothing from ``afferent`` at load time: run.py uses
it for configs without importing the package, and the pipeline process
imports the package lazily for the checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

JOBS = 2  # pool size for every workload; matches nproc on the reference machine


def _train_full_config(seed: int, inputs: Path) -> str:
    return (
        "# train_full: one full-arm train cell at default m/k; a single short\n"
        "# evaluation keeps evaluation near 4% of the work\n"
        "ablation = full\n"
        f"seed = {seed}\n"
        f"jobs = {JOBS}\n"
        "ppo.total_steps = 5120\n"
        "eval.seeds = 701\n"
        "eval.episodes = 1\n"
    )


def _evolve_base_config(seed: int, inputs: Path) -> str:
    return (
        "# evolve_base: one CMA-ES generation over n = m(k+4) = 448\n"
        f"seed = {seed}\n"
        f"jobs = {JOBS}\n"
        "evolution.generations = 1\n"
        "evolution.popsize = 8\n"
        "evolution.rl_steps_short = 1000\n"
        "evolution.rl_steps_long = 2000\n"
    )


def _ablate_grid_config(seed: int, inputs: Path) -> str:
    return (
        "# ablate_grid: five arms x ages {20, 80} x 2 seeds on a fixed genome\n"
        f"seed = {seed}\n"
        f"seeds = {seed}, {seed + 1}\n"
        "ages = 20, 80\n"
        f"jobs = {JOBS}\n"
        "ppo.total_steps = 1024\n"
        f"genome = {inputs / 'genome.bin'}\n"
    )


# ---------------------------------------------------------------------------
# Expected call counts


def _cell_counts(cfg, steps: int, eval_seeds, eval_episodes: int, *,
                 sensed: bool, memory: bool, predictive: bool, epi: bool) -> Counter:
    """Calls made by one rl_train plus evaluate_policy pair.

    A Runner senses once when it starts and once after every step; an episode
    boundary resets the twin and clears the predictive model's previous step.
    """
    L = cfg.episode_len
    R = cfg.ppo.rollout_len
    S = len(eval_seeds)
    E = int(eval_episodes)
    rollouts = [R] * (steps // R) + ([steps % R] if steps % R else [])
    minibatches = sum(cfg.ppo.epochs * math.ceil(n / cfg.ppo.minibatch)
                      for n in rollouts)
    eval_steps = S * E * L
    senses = (1 + steps) + S * (1 + E * L)
    c = Counter()
    c["env.step"] = steps + eval_steps
    c["env.reset"] = (1 + steps // L) + S * (1 + E)
    c["policy.sample_action_z"] = steps + eval_steps
    c["policy.ppo_update"] = len(rollouts)
    c["policy.gae"] = len(rollouts)
    c["policy.ppo_loss_and_grad"] = minibatches
    c["nets.Adam.step"] = minibatches
    c["nets.MLP.forward"] = steps + eval_steps + 2 * len(rollouts) + 2 * minibatches
    c["nets.MLP.backward"] = 2 * minibatches
    c["rollout.rl_train"] = 1
    c["rollout.evaluate_policy"] = 1
    if sensed:
        c["afferents.compute_cat"] = senses
        if predictive:
            predicted = (steps - steps // L) + S * E * (L - 1)
            c["predictive.SafeStateModel.predict"] = predicted
            c["predictive.discrepancy"] = predicted
    if memory:
        c["memory.maybe_capture"] = steps
        if epi:
            c["memory.query"] = senses
    return c


def _calibration_counts(cfg) -> Counter:
    P = cfg.pred_samples
    return Counter({
        "rollout.calibrate_predictive": 1,
        "env.step": P,
        "env.reset": math.ceil(P / cfg.episode_len),
        "predictive.SafeStateModel.predict": P,
        "predictive.discrepancy": P,
    })


def _arm_cell(cfg, variant: str, steps: int, eval_seeds, eval_episodes) -> Counter:
    from afferent.harness import variant_plan

    plan = variant_plan(cfg, variant)
    return _cell_counts(
        cfg, steps, eval_seeds, eval_episodes,
        sensed=plan.mode != "plain", memory=plan.use_memory,
        predictive=plan.use_predictive, epi=plan.mode == "epi")


def _train_full_counts(cfg) -> Counter:
    c = _arm_cell(cfg, cfg.ablation, cfg.ppo.total_steps, cfg.eval_seeds,
                  cfg.eval_episodes)
    c += _calibration_counts(cfg)
    c["harness.cell"] = 1
    c["storage.write"] = 5  # policy, safe model, curve, runs, report
    return c


def _evolve_base_counts(cfg) -> Counter:
    spec = cfg.fitness
    top_k = math.ceil(spec.top_fraction * cfg.evo_popsize)

    def fitness_cell(steps):
        # Fitness runs in base mode: no memory and no predictive layer.
        return _cell_counts(cfg, steps, spec.eval_seeds, spec.eval_episodes,
                            sensed=True, memory=False, predictive=False, epi=False)

    c = Counter()
    for _ in range(cfg.evo_generations):
        for _ in range(cfg.evo_popsize):
            c += fitness_cell(spec.rl_steps_short)
        for _ in range(2 * top_k):  # top candidates rerun at two RL seeds
            c += fitness_cell(spec.rl_steps_long)
        c["evolution.evaluate_fitness"] += cfg.evo_popsize + top_k
        c["cmaes.ask"] += 1
        c["cmaes.tell"] += 1
    c["storage.write"] = 3  # genome, curve, report
    return c


def _ablate_grid_counts(cfg) -> Counter:
    from afferent.config import ABLATIONS

    c = Counter()
    for variant in ABLATIONS:
        for _ in cfg.ages:
            for _ in cfg.seeds:
                c += _arm_cell(cfg, variant, cfg.ppo.total_steps, cfg.eval_seeds,
                               cfg.eval_episodes)
    c += _calibration_counts(cfg)
    c["harness.cell"] = len(ABLATIONS) * len(cfg.ages) * len(cfg.seeds)
    c["storage.write"] = c["harness.cell"] + 2  # runs per cell, report, curve
    c["metrics.compute_metrics"] = len(ABLATIONS)
    c["stats.welch_test"] = sum(len(keys) for keys in _welch_keys(cfg).values())
    return c


def _welch_keys(cfg) -> dict:
    """Welch comparisons the ablation must report: harness-level and per arm."""
    from afferent.config import ABLATIONS
    from afferent.harness import variant_plan
    from afferent.metrics import age_key

    with_cat = [v for v in ABLATIONS if variant_plan(cfg, v).mode != "plain"]
    harness_keys = []
    for age in cfg.ages:
        ak = age_key(age)
        harness_keys += [f"d_total:full_vs_{v}@age{ak}" for v in ABLATIONS if v != "full"]
        harness_keys += [f"cat:full_vs_{v}@age{ak}" for v in with_cat if v != "full"]
    pair = f"age{age_key(min(cfg.ages))}_vs_age{age_key(max(cfg.ages))}"
    per_arm = {
        v: [f"d_total:{pair}", f"action:{pair}"] + ([f"cat:{pair}"] if v in with_cat else [])
        for v in ABLATIONS
    }
    return {"ablation": harness_keys, **per_arm}


# ---------------------------------------------------------------------------
# Set-up inputs and output checks


def _write_genome(cfg) -> None:
    """Handcrafted genome with a small seed-derived perturbation.

    The perturbation keeps the full and no_evolution arms apart, so the grid
    does no duplicate cell.
    """
    import numpy as np

    from afferent.afferents import Genome, handcrafted_genome
    from afferent.storage import save_genome

    base = handcrafted_genome(cfg.m, cfg.k, cfg.dt)
    rng = np.random.default_rng([int(cfg.seed), 77])
    raw = base.raw + rng.normal(0.0, 0.05, size=base.raw.shape)
    save_genome(cfg.genome, Genome(raw=raw, m=cfg.m, k=cfg.k),
                meta={"role": "benchmark input"})


def _one(out: Path, pattern: str, problems: list):
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        problems.append(f"expected one {pattern}, found {len(found)}")
        return None
    return found[0]


def _check_train_full(cfg, out: Path) -> list:
    from afferent.policy import obs_dim
    from afferent.storage import load_policy

    problems = []
    report_path = _one(out, "reports/train_*.json", problems)
    if report_path is None:
        return problems
    report = json.loads(report_path.read_text())
    d_total = report["eval"]["d_total"]
    if not (math.isfinite(d_total) and d_total >= 0.0):
        problems.append(f"eval d_total {d_total!r} is not finite and >= 0")
    curve = _one(out, "curves/train_*.csv", problems)
    if curve is not None:
        rows = len(curve.read_text().splitlines()) - 1
        want = math.ceil(cfg.ppo.total_steps / cfg.ppo.rollout_len)
        if rows != want:
            problems.append(f"curve has {rows} rows, expected {want}")
    policy = load_policy(out / report["policy_file"])
    want_dim = obs_dim(cfg.mode, cfg.k, cfg.m)
    if policy.obs_dim != want_dim:
        problems.append(f"checkpoint obs_dim {policy.obs_dim}, expected {want_dim}")
    return problems


def _check_evolve_base(cfg, out: Path) -> list:
    from afferent.storage import load_genome

    problems = []
    report_path = _one(out, "reports/evolve_*.json", problems)
    if report_path is None:
        return problems
    report = json.loads(report_path.read_text())
    if len(report["history"]) != cfg.evo_generations:
        problems.append(f"history has {len(report['history'])} rows, "
                        f"expected {cfg.evo_generations}")
    if not math.isfinite(report["best_fitness"]):
        problems.append(f"best_fitness {report['best_fitness']!r} is not finite")
    genome, _ = load_genome(out / report["genome_file"])
    if (genome.m, genome.k) != (cfg.m, cfg.k):
        problems.append(f"genome shape ({genome.m}, {genome.k}), "
                        f"expected ({cfg.m}, {cfg.k})")
    return problems


def _check_ablate_grid(cfg, out: Path) -> list:
    from afferent.config import ABLATIONS
    from afferent.metrics import age_key

    problems = []
    if (out / "reports" / "failure_manifest.json").exists():
        problems.append("failure_manifest.json present")
    report_path = out / "reports" / "ablation.json"
    if not report_path.is_file():
        return problems + ["reports/ablation.json missing"]
    report = json.loads(report_path.read_text())
    if sorted(report["variants"]) != sorted(ABLATIONS):
        problems.append(f"variants {sorted(report['variants'])}")
    keys = _welch_keys(cfg)
    missing = [k for k in keys.pop("ablation") if k not in report["welch"]]
    for variant, arm_keys in keys.items():
        arm = report["variants"].get(variant, {}).get("welch", {})
        missing += [f"{variant}/{k}" for k in arm_keys if k not in arm]
    if missing:
        problems.append(f"missing Welch keys {missing}")
    want = {f"ablation_{v}_age{age_key(a)}_seed{s}.jsonl"
            for v in ABLATIONS for a in cfg.ages for s in cfg.seeds}
    have = {p.name for p in (out / "runs").glob("ablation_*.jsonl")}
    if have != want:
        problems.append(f"runs files: {len(have)} present, {len(want)} expected, "
                        f"{len(want - have)} missing")
    return problems


def tree_digest(out: Path) -> str:
    """sha256 over every file of the out tree: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # harness function the pipeline runs
    config: object  # (seed, inputs dir) -> config text
    counts: object  # parsed config -> Counter of expected span calls
    check: object  # (parsed config, out dir) -> list of problems
    prepare: object = None  # parsed config -> None; writes set-up inputs

    def env_steps(self, cfg) -> int:
        """Env steps the config implies: train, eval and predictive calibration."""
        return self.counts(cfg)["env.step"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train_full", "train", _train_full_config, _train_full_counts, _check_train_full),
        Workload(
            "evolve_base", "evolve", _evolve_base_config, _evolve_base_counts, _check_evolve_base),
        Workload(
            "ablate_grid", "run_ablation", _ablate_grid_config, _ablate_grid_counts,
            _check_ablate_grid, _write_genome),
    )
}
