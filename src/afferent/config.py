"""Plain-text key=value experiment configuration.

A config document is a sequence of ``key = value`` lines with ``#`` comments.
Dotted keys override grouped defaults (``ppo.lr``, ``reward.lambda_cat``,
``evolution.popsize``); unknown keys are rejected.  Every operative default
is named in DEFAULTS so a dumped default document reproduces stock behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .env import SCENARIOS
from .errors import ConfigError, ValidationError
from .evolution import FitnessSpec
from .policy import OBS_MODES, PPOConfig, RewardParams

__all__ = [
    "ABLATIONS",
    "DEFAULTS",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "default_config_text",
    "apply_cli_overrides",
]

ABLATIONS = ("full", "no_cat", "no_evolution", "no_amm", "no_predictive")

# Single source of configurable defaults: key -> stock value.  Value type
# drives parsing (bool before int: bool is an int subclass).
DEFAULTS = {
    "scenario": "normal",
    "ages": (60.0,),
    "seeds": (0, 1, 2, 3, 4),
    "ablation": "full",
    "out": "out",
    "seed": 0,
    "jobs": 1,
    "m": 64,
    "k": 3,
    "dt": 1.0,
    "episode_len": 200,
    "mode": "epi",
    "use_memory": True,
    "use_predictive": True,
    "memory_bias": False,
    "genome": "",
    "policy": "",
    "memory.capacity": 512,
    "memory.k_ret": 5,
    "memory.eps_d": 2e-4,
    "memory.kappa_cat": 0.4,
    "ppo.clip": 0.2,
    "ppo.gamma": 0.99,
    "ppo.gae_lambda": 0.95,
    "ppo.lr": 3e-4,
    "ppo.rollout_len": 1024,
    "ppo.epochs": 4,
    "ppo.minibatch": 64,
    "ppo.total_steps": 20000,
    "ppo.hidden": (64, 64),
    "ppo.entropy_coef": 0.01,
    "ppo.value_coef": 0.5,
    "ppo.max_grad_norm": 0.5,
    "reward.lambda_cat": 2.0,
    "reward.lambda_d": 5.0,
    "reward.lambda_mem": 25.0,
    "evolution.generations": 5,
    "evolution.popsize": 8,
    "evolution.sigma0": 0.5,
    "evolution.gamma_d": 1.0,
    "evolution.eval_episodes": 2,
    "evolution.eval_seeds": (901, 902),
    "evolution.rl_steps_short": 2000,
    "evolution.rl_steps_long": 5000,
    "evolution.top_fraction": 0.25,
    "predictive.seed": 42,
    "predictive.samples": 2000,
    "predictive.kappa": 10.0,
    "predictive.lambda_env": 0.7,
    "predictive.lambda_pred": 0.3,
    "sim.repeats": 5,
    "sim.steps": 80,
    "sim.action": 0.7,
    "sim.age": 40.0,
    "eval.episodes": 2,
    "eval.seeds": (701, 702, 703),
    "probe.pairs": 100,
    "probe.radius": 0.1,
    "probe.sd": 0.01,
}


@dataclass
class ExperimentConfig:
    """Resolved configuration shared by all subcommands."""

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
    mode: str = "epi"
    use_memory: bool = True
    use_predictive: bool = True
    memory_bias: bool = False
    genome: str = ""
    policy: str = ""
    memory_capacity: int = 512
    memory_k_ret: int = 5
    memory_eps_d: float = 2e-4
    memory_kappa_cat: float = 0.4
    ppo: PPOConfig = field(default_factory=PPOConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    fitness: FitnessSpec = field(default_factory=FitnessSpec)
    evo_generations: int = 5
    evo_popsize: int = 8
    evo_sigma0: float = 0.5
    pred_seed: int = 42
    pred_samples: int = 2000
    pred_kappa: float = 10.0
    pred_lambda_env: float = 0.7
    pred_lambda_pred: float = 0.3
    sim_repeats: int = 5
    sim_steps: int = 80
    sim_action: float = 0.7
    sim_age: float = 40.0
    eval_episodes: int = 2
    eval_seeds: tuple = (701, 702, 703)
    probe_pairs: int = 100
    probe_radius: float = 0.1
    probe_sd: float = 0.01

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.mode not in OBS_MODES:
            raise ConfigError(f"unknown observation mode {self.mode!r}")
        if not self.ages:
            raise ConfigError("ages must be nonempty")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.m < 1 or self.k < 1:
            raise ConfigError("m and k must be >= 1")
        for a in self.ages:
            if not 20.0 <= float(a) <= 90.0:
                raise ConfigError(f"age {a} outside [20, 90]")


def _parse_scalar(text: str, template):
    text = text.strip()
    if isinstance(template, bool):
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected boolean, got {text!r}")
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
        item = template[0] if template else 0.0
        return tuple(_parse_scalar(part, item) for part in text.split(","))
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
        values[key] = _parse_scalar(value, DEFAULTS[key])
    return values


def _build(values: dict) -> ExperimentConfig:
    merged = dict(DEFAULTS)
    merged.update(values)

    def grp(prefix):
        plen = len(prefix) + 1
        return {k[plen:]: v for k, v in merged.items() if k.startswith(prefix + ".")}

    try:
        ppo = PPOConfig(**grp("ppo"))
        reward = RewardParams(**grp("reward"))
        evo = grp("evolution")
        fitness = FitnessSpec(
            gamma_d=evo["gamma_d"], eval_episodes=evo["eval_episodes"],
            eval_seeds=evo["eval_seeds"], rl_steps_short=evo["rl_steps_short"],
            rl_steps_long=evo["rl_steps_long"], top_fraction=evo["top_fraction"],
        )
        mem = grp("memory")
        pred = grp("predictive")
        sim = grp("sim")
        evl = grp("eval")
        probe = grp("probe")
        return ExperimentConfig(
            scenario=merged["scenario"], ages=merged["ages"], seeds=merged["seeds"],
            ablation=merged["ablation"], out=merged["out"], seed=merged["seed"],
            jobs=merged["jobs"], m=merged["m"], k=merged["k"], dt=merged["dt"],
            episode_len=merged["episode_len"], mode=merged["mode"],
            use_memory=merged["use_memory"], use_predictive=merged["use_predictive"],
            memory_bias=merged["memory_bias"], genome=merged["genome"],
            policy=merged["policy"],
            memory_capacity=mem["capacity"], memory_k_ret=mem["k_ret"],
            memory_eps_d=mem["eps_d"], memory_kappa_cat=mem["kappa_cat"],
            ppo=ppo, reward=reward, fitness=fitness,
            evo_generations=evo["generations"], evo_popsize=evo["popsize"],
            evo_sigma0=evo["sigma0"],
            pred_seed=pred["seed"], pred_samples=pred["samples"],
            pred_kappa=pred["kappa"], pred_lambda_env=pred["lambda_env"],
            pred_lambda_pred=pred["lambda_pred"],
            sim_repeats=sim["repeats"], sim_steps=sim["steps"],
            sim_action=sim["action"], sim_age=sim["age"],
            eval_episodes=evl["episodes"], eval_seeds=evl["seeds"],
            probe_pairs=probe["pairs"], probe_radius=probe["radius"],
            probe_sd=probe["sd"],
        )
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


def apply_cli_overrides(cfg: ExperimentConfig, *, seed=None, out=None,
                        ablation=None, ages=None, scenario=None,
                        steps=None, jobs=None) -> ExperimentConfig:
    """Fold command-line flags into a parsed config; flags win."""
    updates = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if out is not None:
        updates["out"] = str(out)
    if ablation is not None:
        updates["ablation"] = str(ablation)
    if ages is not None:
        updates["ages"] = tuple(float(a) for a in ages)
    if scenario is not None:
        updates["scenario"] = str(scenario)
    if jobs is not None:
        updates["jobs"] = int(jobs)
    cfg = replace(cfg, **updates) if updates else cfg
    if steps is not None:
        cfg = replace(cfg, ppo=replace(cfg.ppo, total_steps=int(steps)))
    return cfg
