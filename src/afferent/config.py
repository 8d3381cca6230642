"""Plain-text key=value experiment configuration.

A config document is a sequence of ``key = value`` lines with ``#`` comments.
Dotted keys override grouped defaults (``ppo.lr``, ``reward.lambda_cat``,
``evolution.popsize``); unknown keys are rejected.  The keys and their
defaults are the fields of ExperimentConfig; DEFAULTS lists every one, so a
dumped default document reproduces stock behavior.  Each bound is declared
once, on its field, and a value outside it raises ConfigError naming the key
in one phrasing: ``ppo.clip must be > 0``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .env import AGE_MAX, AGE_MIN, EPISODE_LEN, SCENARIOS
from .errors import ConfigError, ValidationError, bounded, check_bounds
from .evolution import FitnessSpec
from .memory import CAPACITY, EPS_D, K_RET, KAPPA_CAT
from .policy import PPOConfig, RewardParams
from .predictive import DiscrepancyParams

__all__ = [
    "ABLATIONS",
    "ARMS",
    "FITNESS_ARM",
    "DEFAULTS",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "default_config_text",
    "apply_cli_overrides",
]

# Each ablation arm's wiring: observation mode, predictive layer on or off, and
# the evolved genome or the handcrafted one.  An arm keeps an episodic store
# exactly when it observes epi.  No arm zeroes a reward weight: cat is 0 where
# nothing is sensed and y_hat is 0 without a store, so each term subtracts +0.0.
class Arm(namedtuple("Arm", "mode use_predictive evolved", defaults=(True,))):
    use_memory = property(lambda self: self.mode == "epi")


ARMS = {
    "full": Arm("epi", True),
    "no_cat": Arm("plain", False),
    "no_evolution": Arm("epi", True, evolved=False),
    "no_amm": Arm("base", True),
    "no_predictive": Arm("epi", False),
}
ABLATIONS = tuple(ARMS)
# Evolution scores genomes on base-mode learning, without memory or the
# predictive layer; gate 06 and the evolve_base bench counts rely on it.
FITNESS_ARM = Arm("base", False)


@dataclass
class ExperimentConfig:
    """Resolved configuration shared by all subcommands.

    Each field is one config key: its name, or the dotted key in its
    metadata.  A nested dataclass field is a group contributing one
    ``<group>.<name>`` key per field, the group being its name or metadata key.
    Each field declares its bounds, and a group's fields declare theirs.
    """

    scenario: str = "normal"
    ages: tuple = bounded((60.0,), "nonempty", "distinct", f"in [{AGE_MIN:g}, {AGE_MAX:g}]")
    seeds: tuple = bounded((0, 1, 2, 3, 4), "nonempty", "distinct", ">= 0")
    ablation: str = "full"
    out: str = bounded("out", "nonempty")
    seed: int = bounded(0, ">= 0")
    jobs: int = bounded(1, ">= 1")
    m: int = bounded(64, ">= 1")
    k: int = bounded(3, ">= 1")
    dt: float = bounded(1.0, "> 0")
    episode_len: int = bounded(EPISODE_LEN, ">= 1")
    genome: str = ""
    policy: str = ""
    memory_capacity: int = bounded(CAPACITY, ">= 1", key="memory.capacity")
    memory_k_ret: int = bounded(K_RET, ">= 1", key="memory.k_ret")
    memory_eps_d: float = bounded(EPS_D, ">= 0", key="memory.eps_d")
    memory_kappa_cat: float = bounded(KAPPA_CAT, ">= 0", key="memory.kappa_cat")
    ppo: PPOConfig = field(default_factory=PPOConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    fitness: FitnessSpec = field(default_factory=FitnessSpec,
                                 metadata={"key": "evolution"})
    evo_generations: int = bounded(5, ">= 1", key="evolution.generations")
    evo_popsize: int = bounded(8, ">= 2", key="evolution.popsize")
    evo_sigma0: float = bounded(0.5, "> 0", key="evolution.sigma0")
    pred_seed: int = bounded(42, ">= 0", key="predictive.seed")
    # The safe model's design: x (3), action, context (3), bias.
    pred_samples: int = bounded(2000, ">= 8", key="predictive.samples")
    predictive: DiscrepancyParams = field(default_factory=DiscrepancyParams)
    sim_repeats: int = bounded(5, ">= 1", key="sim.repeats")
    sim_steps: int = bounded(80, ">= 1", key="sim.steps")
    sim_action: float = bounded(0.7, "in [0, 1]", key="sim.action")
    sim_age: float = bounded(40.0, f"in [{AGE_MIN:g}, {AGE_MAX:g}]", key="sim.age")
    eval_episodes: int = bounded(2, ">= 1", key="eval.episodes")
    eval_seeds: tuple = bounded((701, 702, 703), "nonempty", "distinct", ">= 0", key="eval.seeds")
    probe_pairs: int = bounded(100, ">= 1", key="probe.pairs")
    probe_radius: float = bounded(0.5, "> 0", key="probe.radius")
    probe_sd: float = bounded(0.01, "> 0", key="probe.sd")

    @property
    def mode(self) -> str:
        """The observation mode the ablation arm wires; not a config key."""
        return ARMS[self.ablation].mode

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        check_bounds(self, ConfigError)
        if self.k != 3:
            raise ConfigError(f"k must be 3, the twin's feature count; got {self.k}")
        if not self.dt < 50:
            raise ConfigError("dt must be < 50: decoding floors tau at dt/10, and the "
                              "handcrafted genome's tau is 5")


def _in_group(group: str, exc: ValidationError) -> ConfigError:
    """A group's error, each field it names spelled as its config key."""
    return ConfigError(f"{group}.{exc}".replace(" + ", f" + {group}."))


def _keys():
    """(key, field name, group field name or None, stock value) per config key."""
    for f in fields(ExperimentConfig):
        key = f.metadata.get("key", f.name)
        if is_dataclass(f.default_factory):
            group = f.default_factory()
            for g in fields(group):
                yield f"{key}.{g.name}", f.name, g.name, getattr(group, g.name)
        else:
            yield key, f.name, None, f.default


# Every configurable key with its stock value; the value's type drives parsing.
DEFAULTS = {key: value for key, _, _, value in _keys()}
_TARGETS = {key: (name, sub) for key, name, sub, _ in _keys()}


def _parse_scalar(text: str, template):
    text = text.strip()
    if isinstance(template, int):
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"expected integer, got {text!r}") from exc
    if isinstance(template, float):
        try:
            value = float(text)
        except ValueError as exc:
            raise ConfigError(f"expected number, got {text!r}") from exc
        if math.isinf(value):  # NaN goes on to the semantic checks, which name it
            raise ConfigError(f"expected finite number, got {text!r}")
        return value
    if isinstance(template, tuple):
        if not text:
            raise ConfigError("expected comma-separated list, got empty value")
        return tuple(_parse_scalar(part, template[0]) for part in text.split(","))
    return text


def parse_config_text(text: str) -> dict:
    """Parse a key=value document into a raw {key: typed value} mapping."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_scalar(value, DEFAULTS[key])
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return values


def _build(values: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """``base`` (the stock config by default) with {key: value} set over it."""
    base = ExperimentConfig() if base is None else base
    top, groups = {}, {}
    for key, value in values.items():
        name, sub = _TARGETS[key]
        if sub is None:
            top[name] = value
        else:
            groups.setdefault((name, key.rpartition(".")[0]), {})[sub] = value
    for (name, group), sub_values in groups.items():
        try:
            top[name] = replace(getattr(base, name), **sub_values)
        except ValidationError as exc:
            raise _in_group(group, exc) from exc
    return replace(base, **top)


def parse_config(text: str) -> ExperimentConfig:
    return _build(parse_config_text(text))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: "
                          f"{exc.reason} at byte {exc.start}") from None
    return parse_config(text)


def default_config_text() -> str:
    """Render every default as a parseable document."""
    lines = []
    for key in sorted(DEFAULTS):
        value = DEFAULTS[key]
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


# Command-line flag -> the config key it sets.
_FLAGS = {"seed": "seed", "out": "out", "ablation": "ablation", "ages": "ages",
          "scenario": "scenario", "steps": "ppo.total_steps", "jobs": "jobs"}


def apply_cli_overrides(cfg: ExperimentConfig, **flags) -> ExperimentConfig:
    """Fold command-line flags (the _FLAGS names; None = unset) into cfg; flags win."""
    return _build({_FLAGS[flag]: value for flag, value in flags.items()
                   if value is not None}, cfg)
