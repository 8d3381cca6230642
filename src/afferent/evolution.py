"""Outer evolutionary loop: fitness on learning outcomes, two-stage schedule.

A candidate genome is scored by decoding it, training a fresh PPO policy
against it, and evaluating the trained policy: J = mean task reward minus
gamma_d times mean terminal damage.  All candidates are first trained at a
short step budget; the top fraction is re-trained at the long budget with an
extra RL seed before ranks go to CMA-ES.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .afferents import Genome
from .cmaes import ask, init_evolution, tell
from .errors import TrainingError, ValidationError
from .metrics import pool
from .policy import PPOConfig
from .rollout import evaluate_policy, rl_train
from .util import percentile_95, rng_for

__all__ = [
    "FitnessSpec",
    "evaluate_fitness",
    "run_evolution",
    "lipschitz_probe",
]


@dataclass
class FitnessSpec:
    gamma_d: float = 1.0
    eval_episodes: int = 2
    eval_seeds: tuple = (901, 902)
    rl_steps_short: int = 2000
    rl_steps_long: int = 5000
    top_fraction: float = 0.25

    def __post_init__(self):
        if not self.gamma_d > 0:
            raise ValidationError("gamma_d must be positive")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValidationError("top_fraction must lie in (0, 1]")
        if self.eval_episodes < 1:
            raise ValidationError("eval_episodes must be >= 1")
        for name in ("rl_steps_short", "rl_steps_long"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if not self.eval_seeds:
            raise ValidationError("eval_seeds must be nonempty")
        if any(s < 0 for s in self.eval_seeds):
            raise ValidationError("eval_seeds must be >= 0")


def _genome_hash(genome: Genome) -> str:
    return hashlib.sha256(np.ascontiguousarray(genome.raw).tobytes()).hexdigest()


def evaluate_fitness(genome: Genome, spec: FitnessSpec, build, ppo_cfg: PPOConfig,
                     rl_steps: int, rl_seeds=(0,)) -> float:
    """J for one genome: train per RL seed, evaluate, average.

    build maps a genome to a fresh AgentSetup, called once per RL seed.
    Training failures yield -inf so CMA-ES ranks the candidate last.  The
    genome must come back bit-identical from training (bi-level separation).
    """
    before = _genome_hash(genome)
    scores = []
    for rl_seed in rl_seeds:
        setup = build(genome)
        cfg = replace(ppo_cfg, total_steps=int(rl_steps))
        try:
            result = rl_train(setup, cfg, int(rl_seed))
        except TrainingError:
            return float("-inf")
        pooled = pool(evaluate_policy(setup, result.policy, spec.eval_seeds,
                                      spec.eval_episodes))
        scores.append(pooled.task_mean - spec.gamma_d * pooled.d_total)
    if _genome_hash(genome) != before:
        raise ValidationError("genome mutated during fitness evaluation")
    return float(np.mean(scores))


def run_evolution(spec: FitnessSpec, generations: int, popsize: int, build,
                  m: int, k: int, ppo_cfg: PPOConfig, seed: int = 0,
                  sigma0: float = 0.5):
    """CMA-ES over (m, k) genomes with the two-stage evaluation schedule.

    build maps a genome to the AgentSetup it is scored under (see
    evaluate_fitness).  Returns (best genome seen, per-generation history of
    best/mean/std fitness).  RL seeds are shared across a generation's
    candidates so within-generation comparisons use common random numbers.
    """
    n = m * (k + 4)
    state = init_evolution(n, mean0=np.zeros(n), sigma0=sigma0,
                           popsize=popsize, seed=seed)
    best_genome = Genome(raw=state.mean.copy(), m=m, k=k)
    best_fitness = float("-inf")
    history = []
    for gen in range(generations):
        candidates = ask(state)
        genomes = [Genome(raw=c.copy(), m=m, k=k) for c in candidates]
        seed_a = int(rng_for(seed, 11, gen, 0).integers(0, 2**31))
        seed_b = int(rng_for(seed, 11, gen, 1).integers(0, 2**31))
        fits = np.array([
            evaluate_fitness(g, spec, build, ppo_cfg, spec.rl_steps_short, (seed_a,))
            for g in genomes
        ])
        top_k = int(np.ceil(spec.top_fraction * len(genomes)))
        top_idx = np.argsort(-fits, kind="stable")[:top_k]
        for i in top_idx:
            fits[i] = evaluate_fitness(
                genomes[i], spec, build, ppo_cfg, spec.rl_steps_long, (seed_a, seed_b)
            )
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fitness:
            best_fitness = float(fits[gen_best])
            best_genome = genomes[gen_best]
        finite = fits[np.isfinite(fits)]
        history.append({
            "generation": gen,
            "best": float(fits.max()),
            "mean": float(finite.mean()) if finite.size else float("-inf"),
            "std": float(finite.std()) if finite.size else 0.0,
        })
        state = tell(state, candidates, fits)
    return best_genome, history


def lipschitz_probe(genome: Genome, fitness_fn, n_pairs: int = 100,
                    radius: float = 0.1, pert_sd: float = 0.01,
                    seed: int = 0) -> float:
    """Empirical local-smoothness constant of a fitness function at a genome.

    Perturbs the raw vector with isotropic Gaussian noise, keeps pairs within
    the radius, and returns the 95th percentile of |J(g) - J(g')| / distance.
    fitness_fn maps a raw parameter vector to a scalar.
    """
    rng = rng_for(seed, 13)
    base = np.asarray(genome.raw, dtype=float)
    j0 = float(fitness_fn(base))
    ratios = []
    for _ in range(n_pairs):
        u = rng.normal(0.0, pert_sd, size=base.shape)
        dist = float(np.linalg.norm(u))
        if dist > radius or dist == 0.0:
            continue
        j1 = float(fitness_fn(base + u))
        ratios.append(abs(j0 - j1) / dist)
    if not ratios:
        raise ValidationError("no perturbation pairs within the radius")
    return percentile_95(ratios)
