"""End-to-end acceptance gate.

Each test pins one numbered behavioral guarantee at a stated tolerance and
wall-clock budget; the terminal summary prints one PASS/FAIL line per
criterion (see conftest).  Reference values inside the tests are computed
independently of the library code paths they check.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from afferent.afferents import (
    AfferentArray,
    Genome,
    compute_cat,
    decode_genome,
    handcrafted_genome,
)
from afferent.cli import main
from afferent.cmaes import ask, init_evolution, tell
from afferent.config import ExperimentConfig
from afferent.env import SCENARIOS
from afferent.evolution import FitnessSpec, run_evolution
from afferent.harness import fitness_setup, run_ablation, simulate
from afferent.memory import MemoryStore, recall_risk, retrieve
from afferent.nets import Adam
from afferent.policy import (
    PPOConfig,
    RewardParams,
    gae,
    init_policy,
    ppo_loss_and_grad,
    ppo_update,
    sample_action_z,
)
from afferent.rollout import AgentSetup, calibrate_predictive, evaluate_policy, rl_train
from afferent.storage import read_jsonl, validate_rollout_line
from afferent.util import rng_for, sigmoid

E4_FIELDS = {
    "time", "stress", "strain", "shear", "scenario", "load_factor",
    "instability_index", "cat", "cat_embedding", "damage_increment",
}

MICRO_CONFIG = """
m = 8
k = 3
ages = 60
seeds = 0,1
episode_len = 64
ppo.total_steps = 256
ppo.rollout_len = 128
ppo.minibatch = 32
ppo.hidden = 8
eval.episodes = 1
eval.seeds = 701
evolution.generations = 1
evolution.popsize = 4
evolution.rl_steps_short = 128
evolution.rl_steps_long = 128
evolution.eval_episodes = 1
evolution.eval_seeds = 901
predictive.samples = 200
probe.pairs = 2
probe.radius = 10.0
sim.steps = 5
sim.repeats = 1
"""


@pytest.mark.criterion("01 unit decay law and fixed point")
def test_unit_decay_and_fixed_point():
    start = time.perf_counter()

    def one_unit(alpha, theta):
        # with v = [1] the CAT is the unit's activation itself
        return AfferentArray(W=[[1.0, 0.0, 0.0]], alpha=[alpha], theta=[theta],
                             tau=[4.0], v=[1.0], dt=1.0)

    # Zero drive: theta=1 with steep gain makes the innovation exactly 0, so
    # the activation must follow a(t) = (1-beta)^t a(0) to 1e-9.
    quiet = one_unit(800.0, 1.0)
    acts = np.array([0.9])
    beta = 1.0 / (4.0 + 1.0)
    for t in range(1, 51):
        a, acts = compute_cat(quiet, acts, np.zeros(3))
        assert abs(a - (1.0 - beta) ** t * 0.9) <= 1e-9

    # Constant drive: the map contracts toward sigma(alpha (s - theta)) with
    # per-step ratio exactly (1 - beta).
    driven = one_unit(4.0, 0.3)
    acts = np.zeros(1)
    x = np.array([0.7, 0.0, 0.0])
    a_star = sigmoid(4.0 * (0.7 - 0.3))
    a = 0.0
    for _ in range(30):
        nxt, acts = compute_cat(driven, acts, x)
        ratio = (nxt - a_star) / (a - a_star)
        assert abs(ratio - (1.0 - beta)) <= 1e-6
        a = nxt
    for _ in range(370):
        a, acts = compute_cat(driven, acts, x)
    assert abs(a - a_star) <= 1e-12
    assert time.perf_counter() - start < 1.0


@pytest.mark.criterion("02 cat bounded by unit activations")
def test_cat_bounds_on_random_sequences():
    start = time.perf_counter()
    violations = 0
    n_sequences = 0
    for gi in range(100):
        raw = rng_for(300, gi).normal(0.0, 0.8, 8 * 7)
        arr = decode_genome(Genome(raw=raw, m=8, k=3), dt=1.0)
        for si in range(100):
            acts = np.zeros(8)
            rng = rng_for(301, gi, si)
            n_sequences += 1
            for _ in range(8):
                cat, acts = compute_cat(arr, acts, rng.uniform(0.0, 1.0, 3))
                if not 0.0 <= cat <= 1.0:
                    violations += 1
                # 1e-12 slack absorbs dot-product rounding only
                if not acts.min() - 1e-12 <= cat <= acts.max() + 1e-12:
                    violations += 1
    assert n_sequences == 10_000
    assert violations == 0
    assert time.perf_counter() - start < 10.0


@pytest.mark.criterion("03 retrieval matches brute force")
def test_retrieval_against_brute_force():
    start = time.perf_counter()
    dim = 7
    for case in range(200):
        rng = rng_for(320, case)
        size = int(rng.integers(1, 1001))
        keys = rng.normal(size=(size, dim))
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        deltas = rng.uniform(0.0, 0.01, size)
        store = MemoryStore(capacity=1000)
        for j in range(size):
            store.insert(keys[j], float(deltas[j]))
        q = rng.normal(size=dim)
        q /= np.linalg.norm(q)

        idx, dist = retrieve(store, q, k_ret=5)

        # brute force with plain Python arithmetic, stable sort on index
        dists = [1.0 - sum(float(keys[j, d]) * float(q[d]) for d in range(dim))
                 for j in range(size)]
        order = sorted(range(size), key=lambda j: dists[j])[:5]
        assert list(idx) == order

        weights = [1.0 / (dists[j] + 1e-6) for j in order]
        y_hand = (sum(w * float(deltas[j]) for w, j in zip(weights, order))
                  / sum(weights))
        assert abs(recall_risk(store.delta[idx], dist).y_hat - y_hand) <= 1e-10
    assert time.perf_counter() - start < 30.0


def _train_bandit(seed: int, optimum: float = 0.7, total_steps: int = 20_000) -> float:
    """PPO on a stateless one-step task with reward -(a - optimum)^2."""
    cfg = PPOConfig(total_steps=total_steps, rollout_len=256, minibatch=64,
                    hidden=(8,))
    policy = init_policy(1, rng_for(seed, 0), mode="plain", hidden=(8,))
    opt = Adam(policy.n_params, cfg.lr)
    action_rng = rng_for(seed, 1)
    shuffle_rng = rng_for(seed, 2)
    obs1 = np.array([1.0])
    steps = 0
    while steps < cfg.total_steps:
        n = min(cfg.rollout_len, cfg.total_steps - steps)
        obs = np.ones((n, 1))
        z = np.empty(n)
        logp = np.empty(n)
        rewards = np.empty(n)
        for i in range(n):
            a, logp[i], z[i] = sample_action_z(policy, obs1, action_rng)
            rewards[i] = -(a - optimum) ** 2
        values = policy.value(obs)
        adv, returns = gae(rewards, values, np.ones(n), cfg.gamma,
                           cfg.gae_lambda, 0.0)
        traj = {"obs": obs, "z": z, "logp": logp, "adv": adv, "returns": returns}
        ppo_update(policy, traj, cfg, shuffle_rng, opt)
        steps += n
    return float(0.5 * (np.tanh(policy.actor.forward(obs1[None, :])[0][0, 0]) + 1.0))


@pytest.mark.criterion("04 ppo gradient check and bandit")
def test_ppo_gradients_and_bandit():
    start = time.perf_counter()

    # analytic gradient vs central finite differences on a 27-parameter net
    policy = init_policy(2, rng_for(5), hidden=(3,))
    assert policy.n_params <= 50
    cfg = PPOConfig(hidden=(3,))
    rng = rng_for(6)
    n = 16
    obs = rng.uniform(0.0, 1.0, (n, 2))
    z = np.empty(n)
    logp_old = np.empty(n)
    for i in range(n):
        _, logp_old[i], z[i] = sample_action_z(policy, obs[i], rng)
    adv = rng.normal(size=n)
    returns = rng.normal(size=n)
    theta0 = policy.theta + rng_for(7).normal(0.0, 1e-3, policy.n_params)
    policy.theta[:] = theta0
    _, grad, _ = ppo_loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)

    def loss_at(theta):
        policy.theta[:] = theta
        value, _, _ = ppo_loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)
        return value

    eps = 1e-6
    fd = np.empty_like(theta0)
    for i in range(theta0.size):
        up = theta0.copy()
        up[i] += eps
        dn = theta0.copy()
        dn[i] -= eps
        fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * eps)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-4

    # the same learner solves a continuous bandit on every seed
    for seed in range(5):
        learned = _train_bandit(seed)
        assert abs(learned - 0.7) < 0.1, f"seed {seed}: {learned:.4f}"
    assert time.perf_counter() - start < 300.0


@pytest.mark.criterion("05 cmaes sphere and rank invariance")
def test_cmaes_sphere_and_rank_invariance():
    start = time.perf_counter()
    for seed in (1, 2, 3):
        state = init_evolution(10, mean0=np.full(10, 3.0), sigma0=0.5,
                               popsize=10, seed=seed)
        best = np.inf
        for _ in range(600):
            cands = ask(state)
            costs = [float(np.sum(np.square(c))) for c in cands]
            best = min(best, min(costs))
            state = tell(state, cands, [-c for c in costs])
            if best < 1e-8:
                break
        assert best < 1e-8, f"seed {seed}: best {best:.3e}"

    # ranking by f and by 3f+7 must drive identical updates
    a = init_evolution(10, popsize=10, seed=5)
    b = init_evolution(10, popsize=10, seed=5)
    for _ in range(5):
        ca = ask(a)
        cb = ask(b)
        fa = [-float(np.sum(np.square(c))) for c in ca]
        fb = [3.0 * f + 7.0 for f in fa]
        a = tell(a, ca, fa)
        b = tell(b, cb, fb)
    assert np.abs(a.mean - b.mean).max() <= 1e-12
    assert np.abs(a.cov - b.cov).max() <= 1e-12
    assert abs(a.sigma - b.sigma) <= 1e-12
    assert np.abs(a.p_sigma - b.p_sigma).max() <= 1e-12
    assert time.perf_counter() - start < 60.0


@pytest.mark.criterion("06 evolution improves on initial population")
def test_evolution_trend_across_seeds():
    start = time.perf_counter()
    for seed in (0, 1, 2):
        build = fitness_setup(ExperimentConfig(m=8, k=3, scenario="normal",
                                               ages=(60.0,)))
        _, hist = run_evolution(FitnessSpec(), generations=5, popsize=8,
                                build=build, m=8, k=3, ppo_cfg=PPOConfig(),
                                seed=seed)
        assert hist[-1]["best"] >= hist[0]["mean"], (
            f"seed {seed}: final best {hist[-1]['best']:.4f} "
            f"< gen-0 mean {hist[0]['mean']:.4f}")
    assert time.perf_counter() - start < 1800.0


def _train_full_stack(age: float, seed: int, model):
    """Train the full sensing stack at one age; returns pooled eval stats."""
    array = decode_genome(handcrafted_genome(8, 3), dt=1.0)
    setup = AgentSetup(
        scenario=SCENARIOS["normal"], age=age, array=array,
        reward=RewardParams(), mode="epi", memory=MemoryStore(),
        safe_model=model,
    )
    result = rl_train(setup, PPOConfig(total_steps=20_000), seed)
    stats = evaluate_policy(setup, result.policy, (701, 702, 703), 2)
    actions = np.concatenate([s.actions for s in stats])
    return float(actions.mean()), float((actions < 0.3).mean())


@pytest.mark.criterion("07 older agents work less and safer")
def test_age_restricts_learned_behavior():
    start = time.perf_counter()
    model = calibrate_predictive(42)
    young = [_train_full_stack(20.0, s, model) for s in range(5)]
    old = [_train_full_stack(80.0, s, model) for s in range(5)]
    act_young = float(np.mean([a for a, _ in young]))
    act_old = float(np.mean([a for a, _ in old]))
    safe_young = float(np.mean([f for _, f in young]))
    safe_old = float(np.mean([f for _, f in old]))
    assert act_old < act_young, f"action {act_old:.3f} !< {act_young:.3f}"
    assert safe_old > safe_young, f"safe {safe_old:.3f} !> {safe_young:.3f}"
    assert time.perf_counter() - start < 1200.0


@pytest.mark.criterion("08 ablations increase damage or sensing cost")
def test_ablation_directions(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(m=8, k=3, ages=(60.0,), seeds=(0, 1, 2, 3, 4),
                           out=str(tmp_path))
    reports = run_ablation(cfg)

    def mean_d(variant):
        rows = reports[variant].d_total
        return float(np.mean([r["d_total"] for r in rows]))

    assert mean_d("no_predictive") >= mean_d("full"), (
        f"{mean_d('no_predictive'):.5f} < {mean_d('full'):.5f}")
    assert mean_d("no_cat") >= mean_d("full"), (
        f"{mean_d('no_cat'):.5f} < {mean_d('full'):.5f}")
    assert (reports["full"].mean_cat["60"]
            <= reports["no_amm"].mean_cat["60"]), (
        f"{reports['full'].mean_cat['60']:.4f} > "
        f"{reports['no_amm'].mean_cat['60']:.4f}")
    assert (tmp_path / "reports" / "ablation.json").is_file()
    assert time.perf_counter() - start < 1800.0


@pytest.mark.criterion("09 rollout logs satisfy the schema")
def test_simulate_schema_and_layout(tmp_path):
    start = time.perf_counter()
    manifest = simulate(ExperimentConfig(out=str(tmp_path)))
    assert len(manifest["files"]) == 15  # 3 scenarios x 5 repeats
    assert manifest["lines_per_file"] == 80
    for rel in manifest["files"]:
        rows = read_jsonl(tmp_path / rel)
        assert len(rows) == 80
        for row in rows:
            validate_rollout_line(row)
            assert set(row) == E4_FIELDS
    normal = read_jsonl(tmp_path / "runs" / "dkt_normal_rep0.jsonl")
    assert normal[0]["time"] == 0.0
    assert normal[79]["time"] == pytest.approx(79 / 80)
    assert normal[0]["load_factor"] == pytest.approx(1.0)
    assert normal[0]["instability_index"] == pytest.approx(0.05)
    assert len(normal[0]["cat_embedding"]) == 64
    acl = read_jsonl(tmp_path / "runs" / "dkt_acl_deficient_rep0.jsonl")
    assert acl[0]["load_factor"] == pytest.approx((1.15 + 1.05 + 1.5) / 3.0)
    men = read_jsonl(tmp_path / "runs" / "dkt_meniscus_overload_rep0.jsonl")
    assert men[0]["load_factor"] == pytest.approx((1.4 + 1.2 + 1.1) / 3.0)
    assert time.perf_counter() - start < 5.0


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.criterion("10 identical configs give identical bytes")
def test_reruns_are_byte_identical(tmp_path, capsys):
    config = tmp_path / "micro.cfg"
    config.write_text(MICRO_CONFIG)

    # evaluate needs a checkpoint; train it once, shared by both runs
    shared = tmp_path / "shared"
    assert main(["train", "--config", str(config), "--out", str(shared)]) == 0
    capsys.readouterr()
    policy_path = shared / "genomes" / "policy_normal_age60_seed0.bin"
    eval_config = tmp_path / "eval.cfg"
    eval_config.write_text(MICRO_CONFIG + f"policy = {policy_path}\n")

    plans = [(cmd, config) for cmd in
             ("simulate", "train", "evolve", "ablate", "probe-lipschitz")]
    plans.append(("evaluate", eval_config))
    for cmd, cfg_path in plans:
        out_a = tmp_path / f"a_{cmd}"
        out_b = tmp_path / f"b_{cmd}"
        assert main([cmd, "--config", str(cfg_path), "--out", str(out_a)]) == 0
        line_a = capsys.readouterr().out.replace(str(out_a), "OUT")
        assert main([cmd, "--config", str(cfg_path), "--out", str(out_b)]) == 0
        line_b = capsys.readouterr().out.replace(str(out_b), "OUT")
        assert line_a == line_b, f"{cmd}: summary lines differ"
        trees_a = _tree_bytes(out_a)
        trees_b = _tree_bytes(out_b)
        assert trees_a.keys() == trees_b.keys(), f"{cmd}: file sets differ"
        for rel in trees_a:
            assert trees_a[rel] == trees_b[rel], f"{cmd}: {rel} differs"
        assert trees_a, f"{cmd}: produced no files"
