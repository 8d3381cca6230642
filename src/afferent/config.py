"""Plain-text key=value experiment configuration.

A config document is a sequence of ``key = value`` lines with ``#`` comments.
Dotted keys override grouped defaults (``ppo.lr``, ``reward.lambda_cat``,
``evolution.popsize``); unknown keys are rejected.  The keys and their
defaults are the fields of ExperimentConfig; DEFAULTS lists every one, so a
dumped default document reproduces stock behavior.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .env import SCENARIOS
from .errors import ConfigError, ValidationError
from .evolution import FitnessSpec
from .memory import CAPACITY, EPS_D, K_RET, KAPPA_CAT
from .policy import PPOConfig, RewardParams

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

# Each ablation arm's wiring: observation mode, episodic memory on or off,
# predictive layer on or off, and the reward weights it sets to zero.  The arm
# is the only wiring switch; no_evolution is wired as full and differs in its
# genome alone, the handcrafted one.
Arm = namedtuple("Arm", "mode use_memory use_predictive zeroed")
ARMS = {
    "full": Arm("epi", True, True, ()),
    "no_cat": Arm("plain", False, False, ("lambda_cat", "lambda_mem")),
    "no_evolution": Arm("epi", True, True, ()),
    "no_amm": Arm("base", False, True, ("lambda_mem",)),
    "no_predictive": Arm("epi", True, False, ()),
}
ABLATIONS = tuple(ARMS)
# Evolution scores genomes on base-mode learning, without memory or the
# predictive layer; gate 06 and the evolve_base bench counts rely on it.
FITNESS_ARM = Arm("base", False, False, ())


def _key(key: str, default):
    """A field set by the dotted config ``key`` instead of its own name."""
    return field(default=default, metadata={"key": key})


@dataclass
class ExperimentConfig:
    """Resolved configuration shared by all subcommands.

    Each field is one config key: its name, or the dotted key in its
    metadata.  A nested dataclass field is a group contributing one
    ``<group>.<name>`` key per field, the group being its name or metadata key.
    """

    scenario: str = "normal"
    ages: tuple = (60.0,)
    seeds: tuple = (0, 1, 2, 3, 4)
    ablation: str = "full"
    out: str = "out"
    seed: int = 0
    jobs: int = 1
    m: int = 64
    k: int = 3
    dt: float = 1.0
    episode_len: int = 200
    genome: str = ""
    policy: str = ""
    memory_capacity: int = _key("memory.capacity", CAPACITY)
    memory_k_ret: int = _key("memory.k_ret", K_RET)
    memory_eps_d: float = _key("memory.eps_d", EPS_D)
    memory_kappa_cat: float = _key("memory.kappa_cat", KAPPA_CAT)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    fitness: FitnessSpec = field(default_factory=FitnessSpec,
                                 metadata={"key": "evolution"})
    evo_generations: int = _key("evolution.generations", 5)
    evo_popsize: int = _key("evolution.popsize", 8)
    evo_sigma0: float = _key("evolution.sigma0", 0.5)
    pred_seed: int = _key("predictive.seed", 42)
    pred_samples: int = _key("predictive.samples", 2000)
    pred_kappa: float = _key("predictive.kappa", 10.0)
    pred_lambda_env: float = _key("predictive.lambda_env", 0.7)
    pred_lambda_pred: float = _key("predictive.lambda_pred", 0.3)
    sim_repeats: int = _key("sim.repeats", 5)
    sim_steps: int = _key("sim.steps", 80)
    sim_action: float = _key("sim.action", 0.7)
    sim_age: float = _key("sim.age", 40.0)
    eval_episodes: int = _key("eval.episodes", 2)
    eval_seeds: tuple = _key("eval.seeds", (701, 702, 703))
    probe_pairs: int = _key("probe.pairs", 100)
    probe_radius: float = _key("probe.radius", 0.1)
    probe_sd: float = _key("probe.sd", 0.01)

    @property
    def mode(self) -> str:
        """The observation mode the ablation arm wires; not a config key."""
        return ARMS[self.ablation].mode

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not self.ages:
            raise ConfigError("ages must be nonempty")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.m < 1 or self.k < 1:
            raise ConfigError("m and k must be >= 1")
        if self.k != 3:
            raise ConfigError(f"k must be 3, the twin's feature count; got {self.k}")
        for key, value in (("episode_len", self.episode_len),
                           ("memory.capacity", self.memory_capacity),
                           ("memory.k_ret", self.memory_k_ret),
                           ("eval.episodes", self.eval_episodes),
                           ("probe.pairs", self.probe_pairs),
                           ("evolution.generations", self.evo_generations),
                           ("sim.steps", self.sim_steps), ("sim.repeats", self.sim_repeats)):
            if value < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.evo_popsize < 2:
            raise ConfigError("evolution.popsize must be >= 2")
        if self.pred_samples < 8:  # the safe model's design: x (3), action, context (3), bias
            raise ConfigError("predictive.samples must be >= 8")
        for key, values in (("seeds", self.seeds), ("ages", self.ages),
                            ("eval.seeds", self.eval_seeds),
                            ("evolution.eval_seeds", self.fitness.eval_seeds)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} must be distinct")
        for key, values in (("seed", (self.seed,)), ("seeds", self.seeds),
                            ("eval.seeds", self.eval_seeds),
                            ("predictive.seed", (self.pred_seed,)),
                            ("ppo.total_steps", (self.ppo.total_steps,)),
                            ("predictive.lambda_env", (self.pred_lambda_env,)),
                            ("predictive.lambda_pred", (self.pred_lambda_pred,)),
                            ("memory.eps_d", (self.memory_eps_d,)),
                            ("memory.kappa_cat", (self.memory_kappa_cat,))):
            if not all(v >= 0 for v in values):
                raise ConfigError(f"{key} must be >= 0")
        if not self.pred_lambda_env + self.pred_lambda_pred > 0:
            raise ConfigError("predictive.lambda_env + predictive.lambda_pred must be positive")
        for key, value in (("dt", self.dt), ("predictive.kappa", self.pred_kappa),
                           ("evolution.sigma0", self.evo_sigma0),
                           ("probe.radius", self.probe_radius),
                           ("probe.sd", self.probe_sd)):
            if not value > 0:
                raise ConfigError(f"{key} must be positive")
        if not self.dt < 50:
            raise ConfigError("dt must be < 50: decoding floors tau at dt/10, and the "
                              "handcrafted genome's tau is 5")
        if not 0.0 <= self.sim_action <= 1.0:
            raise ConfigError("sim.action must be in [0, 1]")
        if not 20.0 <= self.sim_age <= 90.0:
            raise ConfigError("sim.age must be in [20, 90]")
        for a in self.ages:
            if not 20.0 <= float(a) <= 90.0:
                raise ConfigError(f"age {a} outside [20, 90]")


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
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"expected number, got {text!r}") from exc
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
            groups.setdefault(name, {})[sub] = value
    try:
        for name, sub_values in groups.items():
            top[name] = replace(getattr(base, name), **sub_values)
        return replace(base, **top)
    except ValidationError as exc:
        # Bad values supplied through config are configuration errors.
        raise ConfigError(str(exc)) from exc


def parse_config(text: str) -> ExperimentConfig:
    return _build(parse_config_text(text))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


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
