import numpy as np
import pytest

from afferent.afferents import Genome, decode_genome, handcrafted_genome
from afferent.config import ExperimentConfig
from afferent import evolution
from afferent.errors import TrainingError, ValidationError
from afferent.evolution import (
    FitnessSpec,
    evaluate_fitness,
    lipschitz_probe,
    run_evolution,
)
from afferent.harness import fitness_setup
from afferent.policy import PPOConfig

TINY_SPEC = FitnessSpec(eval_episodes=1, eval_seeds=(901,), rl_steps_short=64,
                        rl_steps_long=64, top_fraction=0.5)
TINY_PPO = PPOConfig(rollout_len=32, minibatch=16, hidden=(8,))


def tiny_build():
    return fitness_setup(ExperimentConfig(m=4, k=3, scenario="normal",
                                          ages=(60.0,), episode_len=32))


def test_fitness_spec_validation():
    with pytest.raises(ValidationError):
        FitnessSpec(gamma_d=0.0)
    with pytest.raises(ValidationError):
        FitnessSpec(top_fraction=0.0)
    with pytest.raises(ValidationError):
        FitnessSpec(top_fraction=1.5)
    with pytest.raises(ValidationError, match="eval_episodes must be >= 1"):
        FitnessSpec(eval_episodes=0)
    with pytest.raises(ValidationError, match="eval_seeds must be nonempty"):
        FitnessSpec(eval_seeds=())


def test_evaluate_fitness_finite_and_deterministic():
    g = handcrafted_genome(4, 3)
    j1 = evaluate_fitness(g, TINY_SPEC, tiny_build(), TINY_PPO, rl_steps=64)
    j2 = evaluate_fitness(g, TINY_SPEC, tiny_build(), TINY_PPO, rl_steps=64)
    assert np.isfinite(j1)
    assert j1 == j2


def test_evaluate_fitness_averages_rl_seeds():
    g = handcrafted_genome(4, 3)
    ja = evaluate_fitness(g, TINY_SPEC, tiny_build(), TINY_PPO, 64, rl_seeds=(0,))
    jb = evaluate_fitness(g, TINY_SPEC, tiny_build(), TINY_PPO, 64, rl_seeds=(1,))
    jab = evaluate_fitness(g, TINY_SPEC, tiny_build(), TINY_PPO, 64, rl_seeds=(0, 1))
    assert jab == pytest.approx(0.5 * (ja + jb), abs=1e-12)


def test_evaluate_fitness_scores_a_training_failure_minus_inf(monkeypatch):
    def rl_train(setup, ppo, seed):
        raise TrainingError("injected")

    monkeypatch.setattr(evolution, "rl_train", rl_train)
    j = evaluate_fitness(handcrafted_genome(4, 3), TINY_SPEC, tiny_build(), TINY_PPO, 64)
    assert j == float("-inf")


def test_run_evolution_history_and_determinism():
    build = tiny_build()
    best, hist = run_evolution(TINY_SPEC, generations=2, popsize=4, build=build,
                               m=4, k=3, ppo_cfg=TINY_PPO, seed=5)
    assert len(hist) == 2
    for row in hist:
        assert set(row) == {"generation", "best", "mean", "std"}
        assert row["best"] >= row["mean"] - 1e-12
    assert best.m == 4 and best.k == 3
    decode_genome(best, 1.0)  # evolved genome must stay decodable
    best2, hist2 = run_evolution(TINY_SPEC, generations=2, popsize=4, build=build,
                                 m=4, k=3, ppo_cfg=TINY_PPO, seed=5)
    assert hist == hist2
    assert np.array_equal(best.raw, best2.raw)


def test_lipschitz_probe_scales_linearly():
    g = Genome(raw=np.zeros(12), m=2, k=2)
    probe = dict(n_pairs=50, radius=10.0, pert_sd=0.01, seed=3)
    p1 = lipschitz_probe(g, lambda v: float(v[0]), **probe)
    p5 = lipschitz_probe(g, lambda v: 5.0 * float(v[0]), **probe)
    assert 0.0 < p1 <= 1.0 + 1e-12  # |u_0| / ||u|| never exceeds 1
    assert p5 == pytest.approx(5.0 * p1, rel=1e-12)
    flat = lipschitz_probe(g, lambda v: 4.2, **probe)
    assert flat == 0.0


def test_stock_probe_keeps_pairs():
    """At the stock m, k, sd and radius every perturbation lies within the radius."""
    cfg = ExperimentConfig()
    calls = []

    def fitness_fn(raw):
        calls.append(raw)
        return float(raw.sum())

    g = handcrafted_genome(cfg.m, cfg.k, cfg.dt)
    l_hat = lipschitz_probe(g, fitness_fn, n_pairs=cfg.probe_pairs, radius=cfg.probe_radius,
                            pert_sd=cfg.probe_sd, seed=cfg.seed)
    assert np.isfinite(l_hat)
    assert len(calls) == cfg.probe_pairs + 1


def test_lipschitz_probe_radius_guard():
    g = Genome(raw=np.zeros(12), m=2, k=2)
    with pytest.raises(ValidationError):
        lipschitz_probe(g, lambda v: float(v[0]), n_pairs=10, radius=1e-12,
                        pert_sd=0.01, seed=0)
