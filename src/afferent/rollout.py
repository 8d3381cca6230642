"""Agent loop: PPO training and frozen-memory evaluation on the knee twin.

An AgentSetup holds the parameters that streams share: the afferent array,
the optional episodic store and the optional predictive model.  A Runner is
one stream that owns all it changes (twin state, activations, memory window,
previous step).  rl_train collects PPO rollouts from a Runner; evaluation
collects one episode at a time from Runners with memory captures frozen.
A rollout is written into columns allocated once per collect, so no per-step
record outlives its step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import env as twin
from .afferents import AfferentArray, compute_cat
from .memory import MemoryStore, Window, maybe_capture
from .metrics import RunLog
from .nets import Adam
from .policy import (
    PolicyParams,
    PPOConfig,
    RewardParams,
    build_observation,
    gae,
    init_policy,
    obs_dim,
    ppo_update,
    sample_action_z,
    shaped_reward,
)
from .predictive import (
    DiscrepancyParams,
    SafeStateModel,
    combine_cat,
    discrepancy,
    fit_safe_model,
    pred_signal,
)
from .util import percentile_95, rng_for

__all__ = [
    "AgentSetup",
    "Runner",
    "TrainResult",
    "rl_train",
    "evaluate_policy",
    "calibrate_predictive",
    "gait_context",
]


def gait_context(t: int, age: float) -> np.ndarray:
    """Context vector s_t = [sin phase, cos phase, age_norm] for the safe model."""
    phase = t % twin.GAIT_PERIOD
    age_norm = (age - twin.AGE_MIN) / (twin.AGE_MAX - twin.AGE_MIN)
    return np.array([twin.SIN_PHASE[phase], twin.COS_PHASE[phase], age_norm])


@dataclass(frozen=True)
class AgentSetup:
    """Everything the agent loop needs besides the policy itself."""

    scenario: twin.ScenarioConfig
    age: float
    array: AfferentArray
    reward: RewardParams = field(default_factory=RewardParams)
    mode: str = "base"
    memory: MemoryStore | None = None
    safe_model: SafeStateModel | None = None
    disc: DiscrepancyParams | None = None
    episode_len: int = twin.EPISODE_LEN


# One row per step, in this order; collect writes each step's row in place
# into one float64 array per column, "obs" (n, obs_dim) and the others (n,).
# "recalls" is the memory's recalled damage y_hat (0 without a query).
_COLUMNS = ("obs", "z", "logp", "rewards", "dones", "cats", "delta_ds",
            "actions", "tasks", "damage", "recalls")


class Runner:
    """One agent stream; collect advances environment, sensors, and memory.

    With a store, each sensed step is recorded once in the runner's window,
    before its query.  Training also captures memory episodes and seeds its
    episodes from stream 3, a frozen (capture=False) evaluation stream from
    stream 5.  Every episode starts with zero activations and an empty
    window, so no stream sees another's steps.
    """

    def __init__(self, setup: AgentSetup, policy: PolicyParams, seed: int,
                 capture: bool = True):
        self.setup = setup
        self.policy = policy
        self.seed = seed
        self.capture = capture
        self.action_rng = rng_for(seed, 1)
        self.window = Window()
        self.episode_idx = 0
        self._begin_episode()

    def _begin_episode(self) -> None:
        stream = 3 if self.capture else 5
        env_seed = int(rng_for(self.seed, stream, self.episode_idx).integers(0, 2**62))
        self.state = twin.reset(self.setup.scenario, self.setup.age, env_seed)
        self.acts = np.zeros(self.setup.array.m)
        self.window.clear()
        self.prev = None  # (x, action, t) of the last step, for the predictive model
        self._compute_current()

    def _compute_current(self) -> None:
        """Sense the current features, record them, and build the observation."""
        s = self.setup
        x = self.state.x
        cat = 0.0
        if s.mode != "plain":  # plain senses nothing; its activations stay zero
            cat, self.acts = compute_cat(s.array, self.acts, x)
            if s.safe_model is not None and s.disc is not None:
                if self.prev is None:
                    delta = 0.0
                else:
                    px, pa, pt = self.prev
                    x_hat = s.safe_model.predict(px, pa, gait_context(pt, s.age))
                    delta = discrepancy(x, x_hat)
                cat = combine_cat(cat, pred_signal(delta, s.safe_model.delta0, s.disc),
                                  s.disc)
        y_hat = d_mean = 0.0
        if s.memory is not None:
            self.window.push(x, self.acts, cat)
            if s.mode == "epi":
                rr = s.memory.query(self.window)
                y_hat, d_mean = rr.y_hat, rr.d_mean
        self.cur = (cat, y_hat)
        self.obs = build_observation(x, self.acts, cat, y_hat, d_mean, s.mode)

    def _step(self) -> tuple:
        """Act once on the current observation; one row in _COLUMNS order."""
        s = self.setup
        cat, y_hat = self.cur
        x, t_act = self.state.x, self.state.t
        action, logp, z = sample_action_z(self.policy, self.obs, self.action_rng)
        self.state, res = twin.step(self.state, action, s.scenario, s.episode_len)
        reward = shaped_reward(res.task_reward, cat, res.delta_d, y_hat, s.reward)
        if self.capture and s.memory is not None:
            maybe_capture(s.memory, self.window, cat, res.delta_d)
            if res.done:
                s.memory.end_episode(self.window)
        self.prev = (x, action, t_act)
        row = (self.obs, z, logp, reward, float(res.done), cat, res.delta_d, action,
               res.task_reward, self.state.damage, y_hat)
        if res.done:
            self.episode_idx += 1
            self._begin_episode()
        else:
            self._compute_current()
        return row

    def collect(self, n: int) -> dict:
        """Step n times into preallocated columns; one array per _COLUMNS key."""
        cols = {key: np.empty((n, *self.obs.shape) if key == "obs" else n)
                for key in _COLUMNS}
        obs, z, logp, rewards, dones, cats, delta_ds, actions, tasks, damage, recalls = (
            cols.values())
        for i in range(n):
            (obs[i], z[i], logp[i], rewards[i], dones[i], cats[i], delta_ds[i], actions[i],
             tasks[i], damage[i], recalls[i]) = self._step()
        return cols


@dataclass
class TrainResult:
    policy: PolicyParams
    history: list


def rl_train(setup: AgentSetup, cfg: PPOConfig, seed: int) -> TrainResult:
    """Train a fresh policy with PPO for cfg.total_steps environment steps."""
    dim = obs_dim(setup.mode, setup.array.k, setup.array.m)
    policy = init_policy(dim, rng_for(seed, 0), setup.mode, cfg.hidden)
    history: list = []
    if cfg.total_steps <= 0:
        return TrainResult(policy, history)
    runner = Runner(setup, policy, seed)
    optimizer = Adam(policy.n_params, cfg.lr)
    shuffle_rng = rng_for(seed, 2)
    steps_done = 0
    while steps_done < cfg.total_steps:
        n = min(cfg.rollout_len, cfg.total_steps - steps_done)
        batch = runner.collect(n)
        values = policy.value(batch["obs"])
        last_value = float(policy.value(runner.obs[None, :])[0])
        adv, returns = gae(batch["rewards"], values, batch["dones"],
                           cfg.gamma, cfg.gae_lambda, last_value)
        stats = ppo_update(policy, dict(batch, adv=adv, returns=returns), cfg,
                           shuffle_rng, optimizer)
        steps_done += n
        history.append({
            "step": steps_done,
            "mean_reward": float(batch["rewards"].mean()),
            "mean_cat": float(batch["cats"].mean()),
            "mean_delta_d": float(batch["delta_ds"].mean()),
            "clip_fraction": stats["clip_fraction"],
            "loss": stats["loss"],
        })
    return TrainResult(policy, history)


def evaluate_policy(setup: AgentSetup, policy: PolicyParams, eval_seeds,
                    eval_episodes: int) -> list:
    """Run eval_episodes per seed with memory captures frozen; one RunLog per episode."""
    with_cat = setup.mode != "plain"
    with_recall = setup.mode == "epi" and setup.memory is not None
    episodes = []
    for s in eval_seeds:
        runner = Runner(setup, policy, seed=int(s), capture=False)
        for _ in range(eval_episodes):
            ep = runner.collect(setup.episode_len)
            episodes.append(RunLog(
                task_mean=float(ep["tasks"].mean()),
                d_total=float(ep["damage"][-1]),
                actions=ep["actions"],
                cats=ep["cats"] if with_cat else None,
                recalls=ep["recalls"] if with_recall else None,
            ))
    return episodes


def calibrate_predictive(seed: int, n_samples: int = 2000,
                         episode_len: int = twin.EPISODE_LEN):
    """Fit the safe-state model and calibrate its delta0 on healthy rollouts.

    Healthy regime: normal scenario at age 20 under uniform random actions.
    Each transition is written once: row i of the design matrix holds
    [x_t, a_t, s_t, 1] and row i of the target matrix holds x_next.  delta0
    is the 95th percentile of the fit's own discrepancies over those rows,
    so the predictive signal crosses 0.5 only for residuals unusual even
    under healthy dynamics.  Returns the model and stock DiscrepancyParams.
    """
    cfg = twin.SCENARIOS["normal"]
    age = 20.0
    rng = rng_for(seed, 7)
    design, targets = np.ones((n_samples, 3 + 1 + 3 + 1)), np.empty((n_samples, 3))
    i = ep = 0
    while i < n_samples:
        state = twin.reset(cfg, age, int(rng_for(seed, 8, ep).integers(0, 2**62)))
        for _ in range(min(episode_len, n_samples - i)):
            action = float(rng.uniform(0.0, 1.0))
            row = design[i]
            row[:3], row[3], row[4:7] = state.x, action, gait_context(state.t, age)
            state, res = twin.step(state, action, cfg, episode_len)
            targets[i] = res.x_next
            i += 1
        ep += 1
    model = fit_safe_model(design, targets)
    deltas = [
        discrepancy(x_next, model.predict(row[:3], row[3], row[4:7]))
        for row, x_next in zip(design, targets)
    ]
    return replace(model, delta0=percentile_95(deltas)), DiscrepancyParams()
