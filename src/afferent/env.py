"""Synthetic digital knee twin.

Scenario- and age-parameterized generation of [stress, strain, shear]
features over a gait cycle, cumulative damage accumulation with an
age-shrinking safe-load threshold, and a step interface for policy learning.
Noise is counter-based (Philox keyed by seed with the step index as counter)
so trajectories are bit-for-bit reproducible and trivially parallel.  The
state and a step's result are immutable named tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ValidationError

__all__ = [
    "ScenarioConfig",
    "EnvState",
    "StepResult",
    "SCENARIOS",
    "reset",
    "gen_features",
    "damage_increment",
    "task_reward",
    "optimal_action",
    "step",
    "GAIT_PERIOD",
    "EPISODE_LEN",
    "AGE_MIN",
    "AGE_MAX",
]

GAIT_PERIOD = 80  # steps per simulated gait cycle
EPISODE_LEN = 200
AGE_MIN = 20.0
AGE_MAX = 90.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Pathology preset: feature multipliers plus instability and noise level."""

    name: str
    stress_mult: float
    strain_mult: float
    shear_mult: float
    instability: float
    noise_sd: float = 0.02

    def __post_init__(self):
        if not (self.stress_mult > 0 and self.strain_mult > 0 and self.shear_mult > 0):
            raise ConfigError("scenario multipliers must be positive")
        if not 0.0 <= self.instability <= 1.0:
            raise ConfigError("instability must lie in [0, 1]")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be nonnegative")


SCENARIOS = {
    "normal": ScenarioConfig("normal", 1.0, 1.0, 1.0, 0.05),
    "acl_deficient": ScenarioConfig("acl_deficient", 1.15, 1.05, 1.5, 0.4),
    "meniscus_overload": ScenarioConfig("meniscus_overload", 1.4, 1.2, 1.1, 0.15),
}


class EnvState(NamedTuple):
    """Value-like environment state; step returns a new instance."""

    t: int
    x: np.ndarray
    damage: float
    age: float
    rng_seed: int


class StepResult(NamedTuple):
    x_next: np.ndarray
    delta_d: float
    task_reward: float
    done: bool


# sin and cos of the gait phase 2 pi t / GAIT_PERIOD, as floats indexed by t % GAIT_PERIOD
_PHASE = 2.0 * np.pi * np.arange(GAIT_PERIOD) / GAIT_PERIOD
SIN_PHASE = np.sin(_PHASE).tolist()
COS_PHASE = np.cos(_PHASE).tolist()
_SIN_LEAD = np.sin(_PHASE + np.pi / 3.0).tolist()


# (seed, Philox, its Generator, its fresh state) of the last seed drawn from;
# the package steps environments on one thread per process.
_noise_slot = None


def _noise(seed: int, t: int, sd: float) -> np.ndarray:
    """Generator(Philox(key=seed, counter=[t, 0, 0, 0])).normal(0, sd, 3).

    The last seed's Philox is reused: each draw first writes back its fresh
    state with the counter set to t, which also empties its buffer, so no
    draw depends on the one before.
    """
    global _noise_slot
    if sd == 0.0:
        return np.zeros(3)
    if _noise_slot is None or _noise_slot[0] != seed:
        bits = np.random.Philox(key=seed)
        _noise_slot = (seed, bits, np.random.Generator(bits), bits.state)
    _, bits, gen, state = _noise_slot
    state["state"]["counter"][0] = t
    bits.state = state
    return gen.normal(0.0, sd, size=3)


def gen_features(state: EnvState, action: float, cfg: ScenarioConfig) -> np.ndarray:
    """Generate [stress, strain, shear] at the state's current step index."""
    if not 0.0 <= action <= 1.0:
        raise ValidationError("action must lie in [0, 1]")
    # Python floats round as numpy's float64 scalars do; the sines are numpy's.
    phase = state.t % GAIT_PERIOD
    sin_phi = SIN_PHASE[phase]
    age_mult = 1.0 + 0.01 * (state.age - 20.0)
    eta = _noise(state.rng_seed, state.t, cfg.noise_sd).tolist()
    stress = cfg.stress_mult * age_mult * action * (0.45 + 0.25 * sin_phi) + eta[0]
    strain = cfg.strain_mult * age_mult * action * (0.40 + 0.20 * _SIN_LEAD[phase]) + eta[1]
    shear = (cfg.shear_mult * age_mult * action
             * (0.30 + 0.20 * abs(sin_phi) + 0.3 * cfg.instability) + eta[2])
    # min/max clip each value as np.clip does: the sums are never -0.0, the
    # one input on which the two could differ
    return np.array([min(max(stress, 0.0), 1.0), min(max(strain, 0.0), 1.0),
                     min(max(shear, 0.0), 1.0)])


def damage_increment(x: np.ndarray, action: float, age: float) -> float:
    """Quadratic excess-load damage with an age-shrinking safe threshold."""
    stress, strain, shear = x.tolist()
    load = 0.5 * stress + 0.3 * shear + 0.2 * strain
    safe = max(0.2, 0.6 - 0.004 * (age - 20.0))
    return 0.01 * max(0.0, load - safe) ** 2


def optimal_action(age: float) -> float:
    return 0.8 - 0.003 * (age - 20.0)


def task_reward(action: float, age: float) -> float:
    """Reward intensity, softly penalized above the age-dependent optimum."""
    return action - 0.5 * max(0.0, action - optimal_action(age)) ** 2


def reset(cfg: ScenarioConfig, age: float, seed: int) -> EnvState:
    """Fresh state at t=0 with zero damage and features generated at action 0."""
    if not AGE_MIN <= age <= AGE_MAX:
        raise ValidationError("age must lie in [%g, %g]" % (AGE_MIN, AGE_MAX))
    age, seed = float(age), int(seed)
    blank = EnvState(0, np.zeros(3), 0.0, age, seed)
    return blank._replace(x=gen_features(blank, 0.0, cfg))


def step(state: EnvState, action: float, cfg: ScenarioConfig, episode_len: int = EPISODE_LEN):
    """Advance one step: generate features, accumulate damage, increment t."""
    t, _, damage, age, seed = state
    x_next = gen_features(state, action, cfg)
    dd = damage_increment(x_next, action, age)
    return (EnvState(t + 1, x_next, damage + dd, age, seed),
            StepResult(x_next, dd, task_reward(action, age), t + 1 >= episode_len))
