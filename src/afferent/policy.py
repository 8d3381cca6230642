"""Observation construction, reward shaping, and the PPO learner core.

The policy is a tanh-squashed Gaussian over a single work-intensity action in
[0, 1], with a small MLP actor (pre-squash mean, state-independent log-std)
and MLP critic.  Updates use the clipped surrogate objective with GAE, all
gradients written out by hand against the nets module.  All parameters live
in one vector theta = [actor | log_std | critic]: the actor and critic are
views into it, the gradient has its layout, and Adam updates it in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError, ValidationError, bounded, check_bounds
from .nets import MLP, Adam, clip_grad
from .util import softplus

__all__ = [
    "RewardParams",
    "PPOConfig",
    "PolicyParams",
    "obs_dim",
    "build_observation",
    "shaped_reward",
    "init_policy",
    "sample_action_z",
    "gae",
    "ppo_loss_and_grad",
    "ppo_update",
    "LOG_STD_MIN",
    "LOG_STD_MAX",
]

LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0
_HALF_LOG_2PI = float(0.5 * np.log(2.0 * np.pi))
_LOG_2 = float(np.log(2.0))


@dataclass
class RewardParams:
    """Penalty weights for shaped reward.

    Defaults are sized against the twin's signal scales: CAT sits in roughly
    [0.2, 0.7] over the useful action range, per-step damage increments reach
    a few 1e-4, and recalled damage estimates a few 1e-3, so the weights below
    put all three penalty terms within an order of magnitude of the task term.
    """

    lambda_cat: float = bounded(2.0, ">= 0")
    lambda_d: float = bounded(5.0, ">= 0")
    lambda_mem: float = bounded(25.0, ">= 0")

    def __post_init__(self):
        check_bounds(self)


@dataclass
class PPOConfig:
    clip: float = bounded(0.2, "> 0")
    gamma: float = bounded(0.99, "in (0, 1]")
    gae_lambda: float = bounded(0.95, "in [0, 1]")
    lr: float = bounded(3e-4, "> 0")
    rollout_len: int = bounded(1024, ">= 1")
    epochs: int = bounded(4, ">= 1")
    minibatch: int = bounded(64, ">= 1")
    total_steps: int = bounded(20000, ">= 0")
    hidden: tuple = bounded((64, 64), ">= 1")
    entropy_coef: float = bounded(0.01, ">= 0")
    value_coef: float = bounded(0.5, ">= 0")
    max_grad_norm: float = bounded(0.5, "> 0")

    def __post_init__(self):
        check_bounds(self)


def obs_dim(mode: str, k: int, m: int) -> int:
    if mode == "base":
        return k + m + 1
    if mode == "epi":
        return k + m + 3
    if mode == "plain":
        return k
    raise ValidationError("unknown observation mode %r" % (mode,))


def build_observation(x, activations, cat, y_hat=0.0, d_mean=0.0,
                      mode="base") -> np.ndarray:
    """Assemble the policy observation; the damage state is never an input.

    Layouts: base [x, activations, cat]; epi appends [y_hat, d_mean]; plain
    is the raw feature vector only.
    """
    if mode == "plain":
        return np.array(x, dtype=float)
    k, m = len(x), len(activations)
    obs = np.empty(obs_dim(mode, k, m))  # rejects an unknown mode
    obs[:k] = x
    obs[k:k + m] = activations
    obs[k + m:] = (cat, y_hat, d_mean) if mode == "epi" else cat
    return obs


def shaped_reward(task: float, cat: float, delta_d: float, y_hat: float,
                  p: RewardParams) -> float:
    return task - p.lambda_cat * cat - p.lambda_d * delta_d - p.lambda_mem * y_hat


class PolicyParams:
    """Actor-critic over theta = [actor | log_std | critic], both nets of ``sizes``."""

    def __init__(self, theta: np.ndarray, sizes, mode: str):
        n = MLP.count(sizes)
        self.theta = theta
        self.mode = mode
        self.n_params = theta.size
        self.obs_dim = int(sizes[0])
        # the critic's length check also rejects a theta of the wrong size
        self.actor = MLP(sizes, theta[:n])
        self.critic = MLP(sizes, theta[n + 1:])

    def __reduce__(self):
        # No run pickles a policy (pool cells ship none back); a pickle must still
        # rebuild the nets as views of theta, as pickling them would copy each layer.
        return PolicyParams, (self.theta, self.actor.sizes, self.mode)

    @property
    def log_std(self) -> float:
        return float(self.theta[self.actor.n_params])

    @log_std.setter
    def log_std(self, value: float) -> None:
        self.theta[self.actor.n_params] = value

    def value(self, obs: np.ndarray) -> np.ndarray:
        out, _ = self.critic.forward(obs)
        return out[:, 0]


def init_policy(dim: int, rng: np.random.Generator, mode: str = "base",
                hidden=(64, 64)) -> PolicyParams:
    """Fresh actor-critic; the actor output layer starts near zero."""
    sizes = [dim, *hidden, 1]
    policy = PolicyParams(np.empty(2 * MLP.count(sizes) + 1), sizes, mode)
    policy.actor.init(rng, out_gain=0.01)
    policy.critic.init(rng, out_gain=1.0)
    policy.log_std = -0.5
    return policy


def _log_prob_z(mu, log_std: float, std, z):
    """(log-probability of the pre-squash draws z, their (z - mu) / std); std = exp(log_std)."""
    # d * d, not d ** 2: an array squares either way, but a float's ** goes
    # through pow, so only d * d gives floats the same bits.  The
    # last term is log|da/dz| for a = (tanh(z)+1)/2, finite for large |z|.
    d = (z - mu) / std
    gauss = -0.5 * (d * d) - log_std - _HALF_LOG_2PI
    return gauss - (_LOG_2 - 2.0 * z - 2.0 * softplus(-2.0 * z)), d


def sample_action_z(policy: PolicyParams, obs: np.ndarray, rng: np.random.Generator):
    """Draw one action in [0, 1], its log-probability and the pre-squash draw z.

    Updates recompute log-probabilities at the stored z, so the squash
    inversion never has to run on saturated actions.  The actor runs on the
    1-D observation, giving mu of shape (1,) as a batch of one does; the rest
    runs on and returns Python floats, which round as the arrays do (exp, log1p
    and tanh stay numpy ufuncs); one scalar normal draw is a size-1 array's.
    """
    out, _ = policy.actor.forward(obs)
    mu = float(out[0])
    log_std = policy.log_std
    std = float(np.exp(log_std))
    z = mu + std * rng.standard_normal()
    logp, _ = _log_prob_z(mu, log_std, std, z)
    return float(0.5 * (np.tanh(z) + 1.0)), logp, z


def gae(rewards, values, dones, gamma: float, lam: float, last_value: float = 0.0):
    """Generalized advantage estimation over one collected rollout.

    values aligns with rewards (V(s_t)); last_value bootstraps the step after
    the final one.  Returns the advantages normalized to mean 0, sd 1, and
    the returns: the raw advantages plus values.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    if not rewards.shape == values.shape == dones.shape:
        raise ValidationError("gae inputs must have equal lengths")
    # The recurrence runs on Python floats, which round as float64 scalars do.
    r, v, d = rewards.tolist(), values.tolist(), dones.tolist()
    adv = [0.0] * len(r)
    next_adv = 0.0
    next_value = last_value
    for t in range(len(r) - 1, -1, -1):
        nonterminal = 1.0 - d[t]
        delta = r[t] + gamma * next_value * nonterminal - v[t]
        next_adv = delta + gamma * lam * nonterminal * next_adv
        adv[t] = next_adv
        next_value = v[t]
    adv = np.array(adv)
    return (adv - adv.mean()) / max(adv.std(), 1e-8), adv + values


def ppo_loss_and_grad(policy: PolicyParams, obs, z, logp_old, adv, returns,
                      cfg: PPOConfig):
    """Clipped-surrogate loss with value and entropy terms, plus its gradient.

    Gradients are exact for the stored pre-squash samples z: the squash
    Jacobian does not depend on the parameters once z is fixed, so it enters
    only through the stored old log-probabilities.  The inputs are float64
    arrays, obs with one row per sample.
    """
    n = len(obs)
    lo, hi = 1.0 - cfg.clip, 1.0 + cfg.clip

    mu_out, actor_cache = policy.actor.forward(obs)
    mu = mu_out[:, 0]
    log_std = policy.log_std
    std = np.exp(log_std)
    logp, zs = _log_prob_z(mu, log_std, std, z)
    ratio = np.exp(logp - logp_old)
    # maximum/minimum clip as np.clip does: ratio, an exp, is never -0.0,
    # the one input on which the two could differ
    surr1 = ratio * adv
    surr2 = np.minimum(np.maximum(ratio, lo), hi) * adv
    policy_loss = -float(np.add.reduce(np.minimum(surr1, surr2)) / n)

    v_out, critic_cache = policy.critic.forward(obs)
    v = v_out[:, 0]
    value_loss = float(np.add.reduce((v - returns) ** 2) / n)

    entropy = log_std + 0.5 * (1.0 + np.log(2.0 * np.pi))

    total = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    if not np.isfinite(total):
        raise TrainingError("non-finite PPO loss (policy %r, value %r)"
                            % (policy_loss, value_loss))

    # d(policy_loss)/d(ratio): the min picks the unclipped branch on ties
    inside_clip = (ratio > lo) & (ratio < hi)
    dl_dratio = np.where((surr1 <= surr2) | inside_clip, adv, 0.0)
    dl_dlogp = -(dl_dratio * ratio) / n
    dl_dmu = dl_dlogp * (zs / std)
    dl_dlogstd_policy = float(np.add.reduce(dl_dlogp * (zs**2 - 1.0)))
    na = policy.actor.n_params
    grad = np.empty(policy.n_params)
    policy.actor.backward(actor_cache, dl_dmu[:, None], grad[:na])

    dl_dv = cfg.value_coef * 2.0 * (v - returns) / n
    policy.critic.backward(critic_cache, dl_dv[:, None], grad[na + 1:])

    grad[na] = dl_dlogstd_policy - cfg.entropy_coef

    clip_fraction = np.count_nonzero((ratio < lo) | (ratio > hi)) / n
    stats = {
        "loss": float(total),
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": float(entropy),
        "clip_fraction": clip_fraction,
    }
    return float(total), grad, stats


def ppo_update(policy: PolicyParams, traj: dict, cfg: PPOConfig,
               rng: np.random.Generator, optimizer: Adam) -> dict:
    """Epochs of minibatch Adam steps on one rollout; returns mean loss stats."""
    n = traj["obs"].shape[0]
    agg: dict = {}
    count = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch):
            idx = order[start : start + cfg.minibatch]
            _, grad, stats = ppo_loss_and_grad(
                policy, traj["obs"][idx], traj["z"][idx], traj["logp"][idx],
                traj["adv"][idx], traj["returns"][idx], cfg,
            )
            grad = clip_grad(grad, cfg.max_grad_norm)
            optimizer.step(policy.theta, grad)
            policy.log_std = min(max(policy.log_std, LOG_STD_MIN), LOG_STD_MAX)
            for k_, v_ in stats.items():
                agg[k_] = agg.get(k_, 0.0) + v_
            count += 1
    return {k_: v_ / count for k_, v_ in agg.items()}
