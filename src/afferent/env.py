"""Synthetic digital knee twin.

Scenario- and age-parameterized generation of [stress, strain, shear]
features over a gait cycle, cumulative damage accumulation with an
age-shrinking safe-load threshold, and a step interface for policy learning.
Noise is counter-based (Philox keyed by seed with the step index as counter)
so trajectories are bit-for-bit reproducible and trivially parallel.  A
noise row is thus a pure function of (seed, step, sd), and each is drawn
once per process: later calls read it back from a bounded row table, which
returns exactly the floats a fresh draw would.  The state and a step's
result are immutable named tuples.
"""

from __future__ import annotations

from array import array
from dataclasses import MISSING, dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, bounded, check_bounds

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
    stress_mult: float = bounded(MISSING, "> 0")
    strain_mult: float = bounded(MISSING, "> 0")
    shear_mult: float = bounded(MISSING, "> 0")
    instability: float = bounded(MISSING, "in [0, 1]")
    noise_sd: float = bounded(0.02, ">= 0")

    def __post_init__(self):
        check_bounds(self)


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


# Noise rows drawn so far: float64 [e0, e1, e2] per step, in blocks of 256
# steps keyed by (seed, sd, t // 256), NaN where a row is not drawn yet.
# Whole blocks leave oldest first, so at most _NOISE_BLOCKS of 6 KB each
# (0.8 MB) are held.  One Philox serves every miss: its key and counter are
# rewritten, with an empty buffer, before each draw.  The package steps
# environments on one thread per process.
_NOISE_BLOCKS = 128
_EMPTY_BLOCK = array("d", [float("nan")]) * 768
_rows: dict = {}
_bits = np.random.Philox(key=0)
_gen = np.random.Generator(_bits)
_philox_state = _bits.state


def _noise(seed: int, t: int, sd: float) -> tuple:
    """The floats of Generator(Philox(key=seed, counter=[t, 0, 0, 0])).normal(0, sd, 3)."""
    key = (seed, sd, t >> 8)
    i = 3 * (t & 255)
    rows = _rows.get(key)
    if rows is None:
        if len(_rows) >= _NOISE_BLOCKS:
            del _rows[next(iter(_rows))]
        rows = _rows[key] = _EMPTY_BLOCK[:]
    else:
        e0 = rows[i]
        if e0 == e0:  # not NaN: drawn before
            return e0, rows[i + 1], rows[i + 2]
    _philox_state["state"]["key"] = [seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64]
    _philox_state["state"]["counter"][0] = t
    _bits.state = _philox_state
    e0, e1, e2 = _gen.normal(0.0, sd, 3).tolist()
    rows[i], rows[i + 1], rows[i + 2] = e0, e1, e2
    return e0, e1, e2


def gen_features(state: EnvState, action: float, cfg: ScenarioConfig) -> np.ndarray:
    """Generate [stress, strain, shear] at the state's current step index."""
    if not 0.0 <= action <= 1.0:
        raise ValidationError("action must be in [0, 1]")
    # Python floats round as numpy's float64 scalars do; the sines are numpy's.
    phase = state.t % GAIT_PERIOD
    sin_phi = SIN_PHASE[phase]
    age_mult = 1.0 + 0.01 * (state.age - 20.0)
    e0, e1, e2 = _noise(state.rng_seed, state.t, cfg.noise_sd)
    stress = cfg.stress_mult * age_mult * action * (0.45 + 0.25 * sin_phi) + e0
    strain = cfg.strain_mult * age_mult * action * (0.40 + 0.20 * _SIN_LEAD[phase]) + e1
    shear = (cfg.shear_mult * age_mult * action
             * (0.30 + 0.20 * abs(sin_phi) + 0.3 * cfg.instability) + e2)
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
        raise ValidationError("age must be in [%g, %g]" % (AGE_MIN, AGE_MAX))
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
