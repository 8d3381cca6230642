import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from afferent import env
from afferent import memory as memory_mod
from afferent import rollout
from afferent.afferents import decode_genome, handcrafted_genome
from afferent.env import SCENARIOS
from afferent.memory import MemoryStore, maybe_capture
from afferent.policy import PPOConfig, init_policy, obs_dim, sample_action_z, shaped_reward
from afferent.rollout import (
    AgentSetup,
    Runner,
    calibrate_predictive,
    evaluate_policy,
    gait_context,
    rl_train,
)
from afferent.util import rng_for

M, K = 6, 3


def make_setup(mode="base", memory=None, episode_len=50, age=60.0):
    array = decode_genome(handcrafted_genome(M, K), dt=1.0)
    return AgentSetup(scenario=SCENARIOS["normal"], age=age, array=array,
                      mode=mode, memory=memory, episode_len=episode_len)


def make_policy(mode="base", seed=0):
    return init_policy(obs_dim(mode, K, M), rng_for(seed, 0), mode, hidden=(8,))


def test_gait_context_oracle():
    assert gait_context(0, 20.0) == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert gait_context(20, 90.0) == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)
    # phase wraps at the gait period
    assert gait_context(80, 55.0) == pytest.approx(gait_context(0, 55.0), abs=1e-12)


def test_collect_shapes_and_episode_boundaries():
    runner = Runner(make_setup(episode_len=5), make_policy(), seed=0)
    batch = runner.collect(12)
    assert set(batch) == {"obs", "z", "logp", "rewards", "dones", "cats",
                          "delta_ds", "actions", "tasks", "damage", "recalls"}
    assert batch["obs"].shape == (12, obs_dim("base", K, M))
    assert list(np.nonzero(batch["dones"])[0]) == [4, 9]
    assert np.all((batch["actions"] > 0) & (batch["actions"] < 1))
    assert np.all((batch["cats"] >= 0) & (batch["cats"] <= 1))


def _reference_collect(runner, n):
    """collect as a per-step row loop: a row tuple per step, np.array per column."""
    s, rows = runner.setup, []
    for _ in range(n):
        cat, y_hat = runner.cur
        x, t_act = runner.state.x, runner.state.t
        action, logp, z = sample_action_z(runner.policy, runner.obs, runner.action_rng)
        runner.state, res = env.step(runner.state, action, s.scenario, s.episode_len)
        reward = shaped_reward(res.task_reward, cat, res.delta_d, y_hat, s.reward)
        if runner.capture and s.memory is not None:
            maybe_capture(s.memory, runner.window, cat, res.delta_d)
            if res.done:
                s.memory.end_episode(runner.window)
        runner.prev = (x, action, t_act)
        rows.append((runner.obs, z, logp, reward, float(res.done), cat, res.delta_d,
                     action, res.task_reward, runner.state.damage, y_hat))
        if res.done:
            runner.episode_idx += 1
            runner._begin_episode()
        else:
            runner._compute_current()
    return {key: np.array(col) for key, col in zip(rollout._COLUMNS, zip(*rows))}


@pytest.mark.parametrize("mode", ["plain", "base", "epi"])
def test_collect_columns_equal_the_row_loop_bits(mode):
    # epi runs with memory captures and the predictive layer, over episode ends
    model, disc = calibrate_predictive(42, n_samples=400, episode_len=50)
    policy = make_policy(mode=mode)
    got, want = [], []
    for out, collect in ((got, Runner.collect), (want, _reference_collect)):
        setup = make_setup(mode=mode, episode_len=20)
        if mode == "epi":
            setup = replace(setup, memory=MemoryStore(eps_d=0.0), safe_model=model, disc=disc)
        runner = Runner(setup, policy, seed=5)
        out.extend(collect(runner, n) for n in (47, 1, 30))
    for g, w in zip(got, want, strict=True):
        assert list(g) == list(rollout._COLUMNS) == list(w)
        for key in g:
            assert g[key].dtype == w[key].dtype == np.float64
            assert g[key].shape == w[key].shape
            assert g[key].tobytes() == w[key].tobytes(), key
    assert np.any(got[0]["recalls"] != 0.0) == (mode == "epi")


@pytest.mark.parametrize("mode", ["base", "epi"])
def test_collect_holds_little_beyond_its_columns(mode):
    # a 1024-step rollout at the default array size; epi with a store and the
    # predictive layer.  The first collect fills the store's buffers.
    model, disc = calibrate_predictive(42, n_samples=400, episode_len=50)
    array = decode_genome(handcrafted_genome(64, 3), dt=1.0)
    setup = AgentSetup(scenario=SCENARIOS["normal"], age=60.0, array=array, mode=mode)
    if mode == "epi":
        setup = replace(setup, memory=MemoryStore(), safe_model=model, disc=disc)
    policy = init_policy(obs_dim(mode, 3, 64), rng_for(0, 0), mode, hidden=(64, 64))
    runner = Runner(setup, policy, seed=1)
    runner.collect(1024)
    tracemalloc.start()
    try:
        cols = runner.collect(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(col.nbytes for col in cols.values())


def test_runner_is_deterministic():
    a = Runner(make_setup(), make_policy(), seed=7).collect(30)
    b = Runner(make_setup(), make_policy(), seed=7).collect(30)
    for key in a:
        assert np.array_equal(a[key], b[key])
    c = Runner(make_setup(), make_policy(), seed=8).collect(30)
    assert not np.array_equal(a["actions"], c["actions"])


def test_plain_mode_hides_cat():
    runner = Runner(make_setup(mode="plain"), make_policy(mode="plain"), seed=0)
    batch = runner.collect(20)
    assert np.all(batch["cats"] == 0.0)
    assert batch["obs"].shape[1] == K


def test_memory_capture_during_training_steps():
    memory = MemoryStore(eps_d=0.0)
    # zero damage threshold makes every post-warmup step a trigger
    setup = make_setup(mode="epi", memory=memory, episode_len=20)
    runner = Runner(setup, make_policy(mode="epi"), seed=1)
    runner.collect(40)  # two full episodes
    assert len(memory) > 0
    assert len(runner.window.pending) == 0  # end_episode flushed them


def test_capture_key_is_the_query_key_bits(monkeypatch):
    # A training step records its row once; the step's query and the capture
    # it opens summarize the same rows, so the pending key is the key the
    # query retrieved with, to the last bit.
    memory = MemoryStore(eps_d=0.0)
    setup = make_setup(mode="epi", memory=memory, episode_len=20)
    queried, compared = [], []
    real_retrieve, real_capture = memory_mod.retrieve, rollout.maybe_capture

    def retrieve(store, key, k_ret):
        queried.append(key.copy())
        return real_retrieve(store, key, k_ret)

    def capture(store, window, cat, delta_d):
        opened = real_capture(store, window, cat, delta_d)
        if opened and queried:
            compared.append(window.pending[-1].key.tobytes() == queried[-1].tobytes())
        queried.clear()
        return opened

    monkeypatch.setattr(memory_mod, "retrieve", retrieve)
    monkeypatch.setattr(rollout, "maybe_capture", capture)
    Runner(setup, make_policy(mode="epi"), seed=1).collect(100)
    assert len(compared) >= 40 and all(compared)


def test_frozen_runner_never_captures():
    memory = MemoryStore(eps_d=0.0)
    setup = make_setup(mode="epi", memory=memory, episode_len=20)
    runner = Runner(setup, make_policy(mode="epi"), seed=1, capture=False)
    runner.collect(40)
    assert len(memory) == 0 and len(runner.window.pending) == 0


def test_rl_train_history_and_determinism():
    cfg = PPOConfig(total_steps=64, rollout_len=32, minibatch=16, hidden=(8,))
    res = rl_train(make_setup(), cfg, seed=3)
    assert [row["step"] for row in res.history] == [32, 64]
    for row in res.history:
        assert set(row) == {"step", "mean_reward", "mean_cat", "mean_delta_d",
                            "clip_fraction", "loss"}
    res2 = rl_train(make_setup(), cfg, seed=3)
    assert res.history == res2.history
    assert np.array_equal(res.policy.theta, res2.policy.theta)


def test_rl_train_zero_steps():
    cfg = PPOConfig(total_steps=0, hidden=(8,))
    res = rl_train(make_setup(), cfg, seed=0)
    assert res.history == []
    assert res.policy.obs_dim == obs_dim("base", K, M)


def test_evaluate_policy_stats():
    policy = make_policy()
    stats = evaluate_policy(make_setup(episode_len=25), policy,
                            eval_seeds=(701, 702), eval_episodes=2)
    assert len(stats) == 4
    for s in stats:
        assert s.actions.shape == (25,)
        assert s.cats is not None and s.recalls is None
        assert s.d_total >= 0.0
    again = evaluate_policy(make_setup(episode_len=25), policy,
                            eval_seeds=(701, 702), eval_episodes=2)
    assert [s.d_total for s in stats] == [x.d_total for x in again]


def test_evaluate_policy_epi_reports_recalls():
    memory = MemoryStore(eps_d=0.0)
    setup = make_setup(mode="epi", memory=memory, episode_len=20)
    Runner(setup, make_policy(mode="epi"), seed=1).collect(40)
    stats = evaluate_policy(setup, make_policy(mode="epi"), (701,), 1)
    assert stats[0].recalls is not None
    assert stats[0].recalls.shape == (20,)
    assert np.any(stats[0].recalls != 0.0)


def test_evaluate_policy_episodes_are_frozen_runner_rows():
    memory = MemoryStore(eps_d=0.0)
    setup = make_setup(mode="epi", memory=memory, episode_len=20)
    policy = make_policy(mode="epi")
    Runner(setup, policy, seed=1).collect(40)  # fill the store, then freeze it
    assert len(memory) > 0
    seeds, episodes, L = (701, 702), 2, setup.episode_len
    stats = evaluate_policy(setup, policy, seeds, episodes)
    assert len(stats) == len(seeds) * episodes
    for i, seed in enumerate(seeds):
        runner = Runner(setup, policy, seed, capture=False)
        rows = runner.collect(episodes * L)
        assert len(runner.window.pending) == 0
        for j in range(episodes):
            ep = stats[i * episodes + j]
            part = {key: col[j * L:(j + 1) * L] for key, col in rows.items()}
            assert np.array_equal(ep.actions, part["actions"])
            assert np.array_equal(ep.cats, part["cats"])
            assert np.array_equal(ep.recalls, part["recalls"])
            assert ep.d_total == part["damage"][-1]
            assert ep.d_total == np.cumsum(part["delta_ds"])[-1]
            assert ep.task_mean == part["tasks"].mean()
        # the second episode continues the seed's runner, not a fresh one
        assert not np.array_equal(stats[i * episodes].actions,
                                  stats[i * episodes + 1].actions)


def test_frozen_runners_share_a_setup_read_only():
    # two frozen streams stepped alternately on one setup each give the rows
    # they give alone, and evaluation leaves the shared store and array as
    # training left them, open captures and all
    model, disc = calibrate_predictive(42, n_samples=400, episode_len=50)
    memory = MemoryStore(eps_d=0.0)
    setup = replace(make_setup(mode="epi", memory=memory, episode_len=20),
                    safe_model=model, disc=disc)
    policy = make_policy(mode="epi")
    trainer = Runner(setup, policy, seed=1)
    trainer.collect(50)  # ends mid-episode
    assert len(memory) > 0 and trainer.window.pending
    seeds = (701, 702)
    runners = [Runner(setup, policy, seed, capture=False) for seed in seeds]
    steps = [[r.collect(1) for r in runners] for _ in range(50)]
    for i, seed in enumerate(seeds):
        alone = Runner(setup, policy, seed, capture=False).collect(50)
        for key, col in alone.items():
            assert np.array_equal(np.concatenate([s[i][key] for s in steps]), col)

    arr = setup.array
    shared = (memory.keys, memory.delta,
              arr.W, arr.alpha, arr.theta, arr.tau, arr.v, arr.beta)
    before = (len(memory), [a.tobytes() for a in shared])
    evaluate_policy(setup, policy, seeds, 2)
    assert (len(memory), [a.tobytes() for a in shared]) == before


def test_frozen_evaluation_starts_with_a_clean_window():
    # 300 steps over 64-step episodes end training mid-episode, with rows in
    # the training window and captures open; the first evaluation episode
    # must behave as on a store that holds the same rows but never trained
    memory = MemoryStore(eps_d=0.0)
    setup = make_setup(mode="epi", memory=memory, episode_len=64)
    cfg = PPOConfig(total_steps=300, rollout_len=128, epochs=1, minibatch=64,
                    hidden=(8,))
    policy = rl_train(setup, cfg, seed=4).policy
    assert cfg.total_steps % setup.episode_len and len(memory) > 0
    untrained = MemoryStore(eps_d=0.0)
    for i in range(len(memory)):
        untrained.insert(memory.keys[i], memory.delta[i])
    got = evaluate_policy(setup, policy, (701, 702), 1)
    want = evaluate_policy(replace(setup, memory=untrained), policy, (701, 702), 1)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.recalls, w.recalls)
        assert np.array_equal(g.actions, w.actions)
        assert (g.task_mean, g.d_total) == (w.task_mean, w.d_total)


def test_calibrate_predictive_frozen_seed():
    model, disc = calibrate_predictive(42)
    assert disc.delta0 == pytest.approx(0.13366511944281517, abs=1e-12)
    assert model.residual_rms == pytest.approx(0.045579041130796104, abs=1e-12)
    assert model.A.shape == (3, 7)
    assert disc.kappa == 10.0
    assert np.array_equal(disc.w_delta, np.ones(3))


def test_calibrate_predictive_holds_its_samples_in_place(monkeypatch):
    # 2000 float64 transition records, one design and one target matrix, and
    # lstsq's copies of both: about 0.5 MB.  A Python object per sample or
    # one array per design row takes twice that.
    monkeypatch.setattr(env, "_rows", {})  # a cold noise table, whatever ran before
    tracemalloc.start()
    try:
        calibrate_predictive(42, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600 * 1024


def test_predictive_blend_changes_cat():
    model, disc = calibrate_predictive(42, n_samples=400, episode_len=50)
    base = make_setup(episode_len=25)
    wired = replace(make_setup(episode_len=25), safe_model=model, disc=disc)
    a = Runner(base, make_policy(), seed=2).collect(25)
    b = Runner(wired, make_policy(), seed=2).collect(25)
    assert not np.array_equal(a["cats"], b["cats"])
    assert np.all((b["cats"] >= 0) & (b["cats"] <= 1))
