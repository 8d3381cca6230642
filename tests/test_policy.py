import pickle

import numpy as np
import pytest

from afferent.errors import ValidationError
from afferent.nets import Adam
from afferent.policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    PPOConfig,
    RewardParams,
    _log_prob_z,
    build_observation,
    gae,
    init_policy,
    obs_dim,
    ppo_loss_and_grad,
    ppo_update,
    sample_action_z,
    shaped_reward,
)
from afferent.util import rng_for, softplus


def test_obs_dim_modes():
    assert obs_dim("base", 3, 8) == 12
    assert obs_dim("epi", 3, 8) == 14
    assert obs_dim("plain", 3, 8) == 3
    with pytest.raises(ValidationError):
        obs_dim("rich", 3, 8)


def test_build_observation_layouts():
    x = np.array([0.1, 0.2, 0.3])
    acts = np.array([0.4, 0.5])
    base = build_observation(x, acts, 0.6, mode="base")
    assert np.array_equal(base, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    epi = build_observation(x, acts, 0.6, y_hat=0.7, d_mean=0.8, mode="epi")
    assert np.array_equal(epi, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    plain = build_observation(x, acts, 0.6, mode="plain")
    assert np.array_equal(plain, x)
    plain[0] = 9.0
    assert x[0] == 0.1  # plain mode returns a copy
    with pytest.raises(ValidationError):
        build_observation(x, acts, 0.6, mode="rich")


def test_shaped_reward_formula():
    p = RewardParams(lambda_cat=2.0, lambda_d=5.0, lambda_mem=25.0)
    got = shaped_reward(0.9, 0.3, 0.001, 0.002, p)
    assert got == pytest.approx(0.9 - 0.6 - 0.005 - 0.05, abs=1e-12)
    free = RewardParams(lambda_cat=0.0, lambda_d=0.0, lambda_mem=0.0)
    assert shaped_reward(0.9, 1.0, 1.0, 1.0, free) == 0.9
    with pytest.raises(ValidationError):
        RewardParams(lambda_cat=-1.0)


def test_ppo_config_validation():
    with pytest.raises(ValidationError):
        PPOConfig(clip=0.0)
    with pytest.raises(ValidationError):
        PPOConfig(gamma=0.0)
    with pytest.raises(ValidationError):
        PPOConfig(gae_lambda=1.5)


def _traj(policy, n, seed):
    return dict(zip(("obs", "z", "logp", "adv", "returns"), _tiny_batch(policy, n, seed)))


def test_policy_nets_are_views_of_theta():
    policy = init_policy(3, rng_for(0), hidden=(8,))
    na = policy.actor.n_params
    assert na == 3 * 8 + 8 + 8 + 1 and policy.theta.shape == (2 * na + 1,)
    assert policy.n_params == policy.theta.size and policy.obs_dim == 3
    for net in (policy.actor, policy.critic):
        assert all(np.shares_memory(a, policy.theta) for a in (*net.weights, *net.biases))
    cfg = PPOConfig(hidden=(8,), epochs=1, minibatch=8)
    traj = _traj(policy, 16, seed=3)
    ppo_update(policy, traj, cfg, rng_for(4), Adam(policy.n_params, cfg.lr))

    def manual(flat, X):
        # W0 row-major, b0, W1, b1
        h = np.tanh(X @ flat[:24].reshape(3, 8) + flat[24:32])
        return (h @ flat[32:40].reshape(8, 1) + flat[40:41])[:, 0]

    obs = traj["obs"]
    assert np.array_equal(policy.actor.forward(obs)[0][:, 0], manual(policy.theta[:na], obs))
    assert np.array_equal(policy.value(obs), manual(policy.theta[na + 1:], obs))
    assert policy.log_std == policy.theta[na]


def test_pickled_policy_keeps_its_nets_as_views_of_theta():
    policy = init_policy(3, rng_for(1), mode="epi", hidden=(8,))
    policy.log_std = -1.5
    back = pickle.loads(pickle.dumps(policy))
    assert np.array_equal(back.theta, policy.theta) and back.mode == "epi"
    for net in (back.actor, back.critic):
        assert all(np.shares_memory(a, back.theta) for a in (*net.weights, *net.biases))
    back.theta[:] = 0.0
    assert np.all(back.actor.forward(np.ones((2, 3)))[0] == 0.0) and back.log_std == 0.0


def test_ppo_update_clips_log_std_slot():
    for hot, want in ((99.0, LOG_STD_MAX), (-99.0, LOG_STD_MIN)):
        policy = init_policy(2, rng_for(8), hidden=(4,))
        cfg = PPOConfig(hidden=(4,), epochs=1, minibatch=8)  # one Adam step
        traj = _traj(policy, 8, seed=9)
        policy.log_std = hot
        ppo_update(policy, traj, cfg, rng_for(10), Adam(policy.n_params, cfg.lr))
        assert policy.log_std == want == policy.theta[policy.actor.n_params]


def test_sample_action_range_and_determinism():
    policy = init_policy(3, rng_for(1), hidden=(8,))
    obs = np.array([0.2, 0.4, 0.6])
    draws = [sample_action_z(policy, obs, rng_for(9, i)) for i in range(200)]
    actions = np.array([a for a, _, _ in draws])
    assert np.all(actions > 0.0) and np.all(actions < 1.0)
    assert np.all(np.isfinite([lp for _, lp, _ in draws]))
    again = sample_action_z(policy, obs, rng_for(9, 0))
    assert again == draws[0]
    assert all(type(v) is float for draw in draws for v in draw)


def test_sample_action_z_consistency():
    policy = init_policy(3, rng_for(2), hidden=(8,))
    obs = np.array([0.1, 0.5, 0.9])
    action, logp, z = sample_action_z(policy, obs, rng_for(3))
    assert action == pytest.approx(0.5 * (np.tanh(z) + 1.0), abs=1e-12)
    mu = float(policy.actor.forward(obs[None, :])[0][0, 0])
    std = np.exp(policy.log_std)
    gauss = -0.5 * ((z - mu) / std) ** 2 - policy.log_std - 0.5 * np.log(2 * np.pi)
    jac = np.log(2.0) - 2.0 * z - 2.0 * softplus(-2.0 * z)
    assert logp == pytest.approx(gauss - jac, abs=1e-10)


def test_sample_action_z_matches_batch_path_bits():
    # Reference: the actor on a batch of one, then the same draw on a twin
    # generator and the log-prob on arrays, once through _log_prob_z and once
    # written out; both generators must also end in the same state.
    policy = init_policy(68, rng_for(5))
    obs_rng, rng, twin = rng_for(6), rng_for(7), rng_for(7)
    for i in range(60):
        policy.log_std = float(obs_rng.uniform(LOG_STD_MIN, LOG_STD_MAX))
        obs = obs_rng.uniform(-1.0, 1.0, 68) * (20.0 if i % 3 == 0 else 1.0)
        got = sample_action_z(policy, obs, rng)
        mu = policy.actor.forward(obs[None])[0][:, 0]
        std = np.exp(policy.log_std)
        z = mu + std * twin.standard_normal((1,))
        logp, d = _log_prob_z(mu, policy.log_std, std, z)
        assert d.tobytes() == ((z - mu) / std).tobytes()
        gauss = -0.5 * ((z - mu) / std) ** 2 - policy.log_std - 0.5 * np.log(2.0 * np.pi)
        written = gauss - (np.log(2.0) - 2.0 * z - 2.0 * softplus(-2.0 * z))
        assert logp.tobytes() == written.tobytes()
        want = (0.5 * (np.tanh(z) + 1.0), logp, z)
        assert np.array(got).tobytes() == np.concatenate(want).tobytes()
    assert rng.standard_normal() == twin.standard_normal()


def test_gae_hand_computed():
    adv, ret = gae([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                   gamma=0.5, lam=1.0, last_value=99.0)
    raw = np.array([1.75, 1.5, 1.0])  # the values are 0, so ret is the raw advantages
    assert ret == pytest.approx(raw, abs=1e-12)
    assert adv == pytest.approx((raw - raw.mean()) / raw.std(), abs=1e-12)


def test_gae_bootstraps_last_value():
    values = np.array([1.0, 2.0])
    adv, ret = gae([0.0, 0.0], values, [0.0, 0.0],
                   gamma=1.0, lam=1.0, last_value=3.0)
    assert ret == pytest.approx([3.0, 3.0], abs=1e-12)
    assert ret - values == pytest.approx([2.0, 1.0], abs=1e-12)  # raw advantages
    assert adv == pytest.approx([1.0, -1.0], abs=1e-12)


def test_gae_normalization_and_validation():
    rng = rng_for(4)
    adv, _ = gae(rng.normal(size=32), rng.normal(size=32), np.zeros(32),
                 gamma=0.99, lam=0.95)
    assert adv.mean() == pytest.approx(0.0, abs=1e-10)
    assert adv.std() == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValidationError):
        gae([1.0, 2.0], [0.0], [0.0, 0.0], gamma=0.9, lam=0.9)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 200, 513, 1024, 1100])
def test_gae_matches_numpy_scalar_loop_bits(n):
    # Reference: the recurrence on numpy float64 scalars, written out here.
    rng = rng_for(31, n)
    rewards = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 2)
    values = rng.normal(size=n)
    dones = (rng.random(n) < 0.05).astype(float)
    gamma, lam, last_value = 0.99, 0.95, float(rng.normal())
    want = np.zeros(n)
    next_adv, next_value = 0.0, last_value
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        next_adv = delta + gamma * lam * nonterminal * next_adv
        want[t] = next_adv
        next_value = values[t]
    adv, ret = gae(rewards, values, dones, gamma, lam, last_value)
    norm = (want - want.mean()) / max(want.std(), 1e-8)
    assert np.array_equal(adv, norm) and np.array_equal(ret, want + values)


def _tiny_batch(policy, n, seed):
    rng = rng_for(seed)
    obs = rng.uniform(0.0, 1.0, (n, policy.obs_dim))
    z = np.empty(n)
    logp = np.empty(n)
    for i in range(n):
        _, logp[i], z[i] = sample_action_z(policy, obs[i], rng)
    adv = rng.normal(size=n)
    returns = rng.normal(size=n)
    return obs, z, logp, adv, returns


def test_ppo_gradient_matches_finite_differences():
    policy = init_policy(2, rng_for(5), hidden=(3,))
    cfg = PPOConfig(hidden=(3,))
    obs, z, logp_old, adv, returns = _tiny_batch(policy, 8, seed=6)
    theta0 = policy.theta + rng_for(7).normal(0.0, 1e-3, policy.n_params)
    policy.theta[:] = theta0
    _, grad, stats = ppo_loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)

    def loss_at(theta):
        policy.theta[:] = theta
        val, _, _ = ppo_loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)
        return val

    eps = 1e-6
    fd = np.empty_like(theta0)
    for i in range(theta0.size):
        up = theta0.copy()
        up[i] += eps
        dn = theta0.copy()
        dn[i] -= eps
        fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * eps)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < 1e-4
    assert 0.0 <= stats["clip_fraction"] <= 1.0
    for key in ("loss", "policy_loss", "value_loss", "entropy"):
        assert np.isfinite(stats[key])


def _reference_forward(net, X):
    hs = [X]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = hs[-1] @ w + b
        hs.append(z if i == len(net.weights) - 1 else np.tanh(z))
    return hs


def _reference_backward(net, hs, delta):
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        grads[:0] = [(hs[i].T @ delta).ravel(), delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ net.weights[i].T) * (1.0 - hs[i] ** 2)
    return np.concatenate(grads)


def _reference_loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg):
    """ppo_loss_and_grad in np.mean, np.clip, nested np.where and np.sum forms."""
    n = obs.shape[0]
    actor_hs, critic_hs = (_reference_forward(net, obs) for net in (policy.actor, policy.critic))
    mu, v = actor_hs[-1][:, 0], critic_hs[-1][:, 0]
    std = np.exp(policy.log_std)
    d = (z - mu) / std
    jac = np.log(2.0) - 2.0 * z - 2.0 * softplus(-2.0 * z)
    logp = -0.5 * (d * d) - policy.log_std - 0.5 * np.log(2.0 * np.pi) - jac
    ratio = np.exp(logp - logp_old)
    surr1, surr2 = ratio * adv, np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv
    policy_loss = -float(np.mean(np.minimum(surr1, surr2)))
    value_loss = float(np.mean((v - returns) ** 2))
    entropy = policy.log_std + 0.5 * (1.0 + np.log(2.0 * np.pi))
    total = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    inside = (ratio > 1.0 - cfg.clip) & (ratio < 1.0 + cfg.clip)
    dl_dratio = np.where(surr1 <= surr2, adv, np.where(inside, adv, 0.0))
    dl_dlogp = -(dl_dratio * ratio) / n
    dl_dv = cfg.value_coef * 2.0 * (v - returns) / n
    grad = np.concatenate([
        _reference_backward(policy.actor, actor_hs, (dl_dlogp * (d / std))[:, None]),
        [float(np.sum(dl_dlogp * (d**2 - 1.0))) - cfg.entropy_coef],
        _reference_backward(policy.critic, critic_hs, dl_dv[:, None]),
    ])
    clip_fraction = float(np.mean((ratio < 1.0 - cfg.clip) | (ratio > 1.0 + cfg.clip)))
    return total, grad, clip_fraction


def test_ppo_loss_and_grad_bits_match_reference_forms():
    # Minibatches of the shape ppo_update takes, with ratios spread across
    # both clip bounds, against the np.mean / np.clip / np.where forms.
    cfg = PPOConfig(hidden=(16, 8))
    policy = init_policy(11, rng_for(13), hidden=cfg.hidden)
    for trial in range(6):
        obs, z, logp_old, adv, returns = _tiny_batch(policy, 64, seed=40 + trial)
        logp_old = logp_old + rng_for(50 + trial).normal(0.0, 0.3, 64)
        total, grad, stats = ppo_loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)
        want_total, want_grad, want_clip = _reference_loss_and_grad(
            policy, obs, z, logp_old, adv, returns, cfg)
        assert total == want_total and stats["clip_fraction"] == want_clip
        assert 0.0 < want_clip < 1.0
        assert grad.tobytes() == want_grad.tobytes()
        policy.theta += rng_for(60 + trial).normal(0.0, 0.05, policy.n_params)


def test_ppo_update_changes_params_and_reports_stats():
    policy = init_policy(2, rng_for(8), hidden=(4,))
    cfg = PPOConfig(hidden=(4,), epochs=2, minibatch=4)
    traj = _traj(policy, 16, seed=9)
    before = policy.theta.copy()
    stats = ppo_update(policy, traj, cfg, rng_for(10), Adam(policy.n_params, cfg.lr))
    assert not np.array_equal(policy.theta, before)
    assert set(stats) >= {"loss", "policy_loss", "value_loss", "entropy", "clip_fraction"}
