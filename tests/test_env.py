from dataclasses import dataclass, replace

import numpy as np
import pytest

from afferent import env
from afferent.afferents import decode_genome, handcrafted_genome
from afferent.env import (
    COS_PHASE,
    EPISODE_LEN,
    GAIT_PERIOD,
    SCENARIOS,
    SIN_PHASE,
    EnvState,
    StepResult,
    _noise,
    damage_increment,
    gen_features,
    optimal_action,
    reset,
    step,
    task_reward,
)
from afferent.errors import ValidationError
from afferent.policy import init_policy, obs_dim
from afferent.rollout import AgentSetup, evaluate_policy
from afferent.util import rng_for

QUIET = replace(SCENARIOS["normal"], noise_sd=0.0)


@pytest.fixture(autouse=True)
def empty_noise_table():
    """Each test starts from an empty row table, whatever ran before it."""
    env._rows.clear()


def state_at(t, age=20.0, seed=0):
    return EnvState(t=t, x=np.zeros(3), damage=0.0, age=age, rng_seed=seed)


def test_scenario_lookup():
    assert SCENARIOS["normal"].instability == 0.05
    assert SCENARIOS["acl_deficient"].shear_mult == 1.5


def test_scenario_validation():
    with pytest.raises(ValidationError, match=r"^stress_mult must be > 0$"):
        replace(SCENARIOS["normal"], stress_mult=0.0)
    with pytest.raises(ValidationError, match=r"^instability must be in \[0, 1\]$"):
        replace(SCENARIOS["normal"], instability=1.5)
    with pytest.raises(ValidationError, match=r"^noise_sd must be >= 0$"):
        replace(SCENARIOS["normal"], noise_sd=-0.1)


def test_features_quarter_cycle_oracle():
    # t=20 of an 80-step cycle puts the gait phase at pi/2; with unit action,
    # age 20, and zero noise the normal-scenario features are exact.
    x = gen_features(state_at(20), 1.0, QUIET)
    assert x[0] == pytest.approx(0.70, abs=1e-12)
    assert x[1] == pytest.approx(0.50, abs=1e-12)
    assert x[2] == pytest.approx(0.515, abs=1e-12)


def test_features_scale_with_action_and_age():
    half = gen_features(state_at(20), 0.5, QUIET)
    assert half == pytest.approx([0.35, 0.25, 0.2575], abs=1e-12)
    old = gen_features(state_at(20, age=60.0), 1.0, QUIET)
    assert old == pytest.approx([0.7 * 1.4, 0.5 * 1.4, 0.515 * 1.4], abs=1e-12)


def test_features_clipped_to_unit_interval():
    cfg = replace(SCENARIOS["acl_deficient"], noise_sd=0.0)
    x = gen_features(state_at(20, age=90.0), 1.0, cfg)
    assert np.all(x <= 1.0) and np.all(x >= 0.0)
    assert x[2] == 1.0  # raw shear exceeds 1 here


def test_features_action_validated():
    with pytest.raises(ValidationError):
        gen_features(state_at(0), 1.5, QUIET)
    with pytest.raises(ValidationError):
        gen_features(state_at(0), -0.1, QUIET)


def test_noise_is_counter_deterministic():
    cfg = SCENARIOS["normal"]
    a = gen_features(state_at(7, seed=11), 0.6, cfg)
    b = gen_features(state_at(7, seed=11), 0.6, cfg)
    c = gen_features(state_at(8, seed=11), 0.6, cfg)
    d = gen_features(state_at(7, seed=12), 0.6, cfg)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _fresh(seed, t, sd):
    bits = np.random.Philox(key=seed, counter=[t, 0, 0, 0])
    return np.random.Generator(bits).normal(0.0, sd, size=3)


def test_noise_equals_a_fresh_philox_draw(monkeypatch):
    # The one Philox must be rewound to the seed and counter with an empty
    # buffer, whatever the previous miss drew, and a table hit must return
    # the floats that miss stored.
    a, b, c = 11, 2**62 - 5, 2**64 + 5
    draws = [(a, 7, 0.02), (b, 7, 0.02), (a, 7, 0.02), (a, 3, 0.02), (a, 7, 0.5),
             (a, 0, 0.02), (a, 10_000, 0.02), (b, 3, 0.0), (b, 3, 0.02), (a, 7, 0.02)]
    # three seeds interleaved step by step, then each (seed, t) again
    steps = [(seed, t, 0.02) for t in range(300) for seed in (a, b, c)]
    draws += steps + steps[::-1]
    # a second sd at (seed, t) already drawn at 0.02
    draws += [(seed, t, 0.05) for seed in (a, b, c) for t in (0, 7, 299)]
    for seed, t, sd in draws:
        assert np.array(_noise(seed, t, sd)).tobytes() == _fresh(seed, t, sd).tobytes()
    # past a bound of two blocks, evicted rows are drawn afresh
    monkeypatch.setattr(env, "_NOISE_BLOCKS", 2)
    for seed, t, sd in draws:
        assert np.array(_noise(seed, t, sd)).tobytes() == _fresh(seed, t, sd).tobytes()


def test_noise_table_holds_at_most_its_bound(monkeypatch):
    monkeypatch.setattr(env, "_NOISE_BLOCKS", 2)
    for seed in range(5):
        for t in (0, 1, 2):
            _noise(seed, t, 0.02)
            assert len(env._rows) <= 2
    assert list(env._rows) == [(3, 0.02, 0), (4, 0.02, 0)]  # oldest left first
    monkeypatch.undo()
    for seed in range(env._NOISE_BLOCKS + 10):
        _noise(seed, 0, 0.02)
    assert len(env._rows) == env._NOISE_BLOCKS


def test_evaluation_ignores_rows_of_another_noise_sd():
    # A table key without sd would hand this evaluation the rows of the
    # noisier scenario drawn first at the same seeds.
    m, k = 6, 3
    array = decode_genome(handcrafted_genome(m, k), dt=1.0)
    setup = AgentSetup(scenario=SCENARIOS["normal"], age=60.0, array=array,
                       episode_len=30)
    policy = init_policy(obs_dim("base", k, m), rng_for(0, 0), "base", hidden=(8,))
    seeds = (701, 702)
    cold = evaluate_policy(setup, policy, seeds, 2)
    env._rows.clear()
    noisy = replace(setup, scenario=replace(setup.scenario, noise_sd=0.3))
    evaluate_policy(noisy, policy, seeds, 2)
    warm = evaluate_policy(setup, policy, seeds, 2)
    assert len(warm) == len(cold) == 4
    for w, c in zip(warm, cold):
        assert (w.task_mean, w.d_total) == (c.task_mean, c.d_total)
        assert w.actions.tobytes() == c.actions.tobytes()
        assert w.cats.tobytes() == c.cats.tobytes()
        assert w.recalls is c.recalls is None


def test_damage_increment_oracle():
    x = np.array([0.70, 0.50, 0.515])
    # load = 0.6045 against the age-20 safe threshold 0.6
    assert damage_increment(x, 1.0, 20.0) == pytest.approx(0.01 * 0.0045**2, abs=1e-15)
    assert damage_increment(np.array([0.1, 0.1, 0.1]), 1.0, 20.0) == 0.0
    # age-90 threshold shrinks to 0.32 and stays above the 0.2 floor
    assert damage_increment(x, 1.0, 90.0) == pytest.approx(0.01 * (0.6045 - 0.32) ** 2, abs=1e-15)


def test_task_reward_and_optimum():
    assert optimal_action(20.0) == pytest.approx(0.8)
    assert optimal_action(80.0) == pytest.approx(0.62)
    assert task_reward(0.5, 20.0) == 0.5
    assert task_reward(1.0, 20.0) == pytest.approx(0.98, abs=1e-12)
    # below the optimum the penalty is inactive
    assert task_reward(0.61, 80.0) == pytest.approx(0.61, abs=1e-12)


def test_reset_state_and_validation():
    s = reset(QUIET, 40.0, seed=3)
    assert s.t == 0 and s.damage == 0.0
    assert s.x.shape == (3,)
    with pytest.raises(ValidationError):
        reset(QUIET, 10.0, seed=3)
    with pytest.raises(ValidationError):
        reset(QUIET, 95.0, seed=3)


def test_step_advances_and_accumulates():
    s = reset(QUIET, 60.0, seed=0)
    total = 0.0
    for i in range(5):
        s, res = step(s, 0.9, QUIET)
        total += res.delta_d
        assert s.t == i + 1
        assert np.array_equal(s.x, res.x_next)
        assert res.task_reward == pytest.approx(task_reward(0.9, 60.0))
    assert s.damage == pytest.approx(total, abs=1e-15)


def test_step_done_at_episode_len():
    s = reset(QUIET, 30.0, seed=0)
    s = s._replace(t=EPISODE_LEN - 1)
    _, res = step(s, 0.5, QUIET)
    assert res.done
    _, res2 = step(reset(QUIET, 30.0, seed=0), 0.5, QUIET, episode_len=1)
    assert res2.done


@dataclass(frozen=True)
class _RefState:
    t: int
    x: np.ndarray
    damage: float
    age: float
    rng_seed: int


def _ref_features(state, action, cfg):
    """Reference gen_features: numpy's sin on each call, then np.clip."""
    phi = 2.0 * np.pi * (state.t % GAIT_PERIOD) / GAIT_PERIOD
    sin_phi = float(np.sin(phi))
    age_mult = 1.0 + 0.01 * (state.age - 20.0)
    eta = _noise(state.rng_seed, state.t, cfg.noise_sd)
    stress = cfg.stress_mult * age_mult * action * (0.45 + 0.25 * sin_phi) + eta[0]
    strain = (cfg.strain_mult * age_mult * action
              * (0.40 + 0.20 * float(np.sin(phi + np.pi / 3.0))) + eta[1])
    shear = (cfg.shear_mult * age_mult * action
             * (0.30 + 0.20 * abs(sin_phi) + 0.3 * cfg.instability) + eta[2])
    return np.clip(np.array([stress, strain, shear]), 0.0, 1.0)


def _ref_step(state, action, cfg, episode_len):
    """Reference step on a frozen-dataclass state."""
    x_next = _ref_features(state, action, cfg)
    stress, strain, shear = float(x_next[0]), float(x_next[1]), float(x_next[2])
    load = 0.5 * stress + 0.3 * shear + 0.2 * strain
    dd = 0.01 * max(0.0, load - max(0.2, 0.6 - 0.004 * (state.age - 20.0))) ** 2
    reward = action - 0.5 * max(0.0, action - (0.8 - 0.003 * (state.age - 20.0))) ** 2
    new = _RefState(t=state.t + 1, x=x_next, damage=state.damage + dd, age=state.age,
                    rng_seed=state.rng_seed)
    return new, (x_next, dd, reward, new.t >= episode_len)


def test_phase_tables_equal_numpy_per_step():
    for t in range(3 * GAIT_PERIOD):
        phi = 2.0 * np.pi * (t % GAIT_PERIOD) / GAIT_PERIOD
        assert SIN_PHASE[t % GAIT_PERIOD] == float(np.sin(phi))
        assert COS_PHASE[t % GAIT_PERIOD] == float(np.cos(phi))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_step_equals_dataclass_reference_bits(name):
    cfg = SCENARIOS[name]
    rng = np.random.default_rng(17)
    episode_len = 150
    for age in (20.0, 57.5, 90.0):
        seed = int(rng.integers(0, 2**62))
        state = reset(cfg, age, seed)
        ref = _RefState(t=0, x=_ref_features(_RefState(0, None, 0.0, age, seed), 0.0, cfg),
                        damage=0.0, age=age, rng_seed=seed)
        assert state.x.tobytes() == ref.x.tobytes()
        for _ in range(400):
            action = float(rng.choice([0.0, 1.0, rng.uniform()]))
            state, res = step(state, action, cfg, episode_len)
            ref, (x_next, dd, reward, done) = _ref_step(ref, action, cfg, episode_len)
            assert isinstance(state, EnvState) and isinstance(res, StepResult)
            assert (state.t, state.damage, state.age, state.rng_seed) == (
                ref.t, ref.damage, ref.age, ref.rng_seed)
            assert state.x.tobytes() == res.x_next.tobytes() == x_next.tobytes()
            assert (res.delta_d, res.task_reward, res.done) == (dd, reward, done)
            if done:
                state, ref = reset(cfg, age, seed), replace(ref, t=0, damage=0.0)
