import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from afferent.config import (
    ABLATIONS,
    DEFAULTS,
    ExperimentConfig,
    _build,
    apply_cli_overrides,
    default_config_text,
    load_config,
    parse_config,
)
from afferent.env import SCENARIOS, ScenarioConfig
from afferent.errors import ConfigError, ValidationError
from afferent.evolution import FitnessSpec
from afferent.policy import PPOConfig, RewardParams
from afferent.predictive import DiscrepancyParams, SafeStateModel


def test_defaults_build_stock_config():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.scenario == "normal"
    assert cfg.ablation == "full" and cfg.ablation in ABLATIONS
    assert cfg.ppo.total_steps == 20000
    assert cfg.reward.lambda_cat == 2.0
    assert cfg.fitness.eval_seeds == (901, 902)


def test_parse_scalars_and_groups():
    cfg = parse_config(
        """
        # experiment block
        scenario = acl_deficient
        ages = 20,80        # trailing comment
        seeds = 0,1
        m = 8
        ppo.lr = 0.001
        ppo.hidden = 16,16
        reward.lambda_mem = 0
        evolution.eval_seeds = 11,12
        memory.eps_d = 1e-3
        """
    )
    assert cfg.scenario == "acl_deficient"
    assert cfg.ages == (20.0, 80.0)
    assert cfg.seeds == (0, 1)
    assert cfg.m == 8
    assert cfg.ppo.lr == 0.001
    assert cfg.ppo.hidden == (16, 16)
    assert cfg.reward.lambda_mem == 0.0
    assert cfg.fitness.eval_seeds == (11, 12)
    assert cfg.memory_eps_d == 1e-3


def test_predictive_keys_set_the_predictive_group():
    cfg = parse_config("predictive.kappa = 4\npredictive.lambda_pred = 0.5")
    assert cfg.predictive == DiscrepancyParams(kappa=4.0, lambda_pred=0.5)
    with pytest.raises(ValidationError, match="^kappa must be > 0$"):
        ExperimentConfig(predictive=DiscrepancyParams(kappa=0.0))


def test_parse_errors_cite_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("m = 8\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("warp = 9\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("m = 8\nk = 3\nm = 16\n")
    with pytest.raises(ConfigError, match="expected integer"):
        parse_config("m = eight\n")
    with pytest.raises(ConfigError, match="line 1: dt: expected number"):
        parse_config("dt = fast\n")
    with pytest.raises(ConfigError, match="line 2: evolution.eval_seeds: expected comma"):
        parse_config("m = 8\nevolution.eval_seeds =\n")


def test_semantic_validation():
    with pytest.raises(ConfigError):
        parse_config("ablation = everything\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = mars\n")
    with pytest.raises(ConfigError):
        parse_config("ages = 10\n")
    with pytest.raises(ConfigError):
        parse_config("jobs = 0\n")
    with pytest.raises(ConfigError):
        parse_config("ppo.clip = 0\n")  # nested validation surfaces as ConfigError
    with pytest.raises(ConfigError):
        parse_config("reward.lambda_cat = -1\n")
    for key in ("memory.eps_d", "memory.kappa_cat", "reward.lambda_cat",
                "reward.lambda_d", "reward.lambda_mem"):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be >= 0$"):
            parse_config(f"{key} = nan\n")


@pytest.mark.parametrize("line, message", [
    ("ppo.clip = 0", "ppo.clip must be > 0"),
    ("reward.lambda_d = -1", "reward.lambda_d must be >= 0"),
    ("evolution.top_fraction = 0", "evolution.top_fraction must be in (0, 1]"),
    ("predictive.lambda_env = 0\npredictive.lambda_pred = 0",
     "predictive.lambda_env + predictive.lambda_pred must be > 0"),
])
def test_group_errors_name_the_full_key(line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(line)
    assert str(exc.value) == message


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


# Every bounded config key: its bound and the nearest values outside it.
BOUNDS = [
    ("ages", "nonempty", [()]),
    ("ages", "distinct", [(60.0, 60.0)]),
    ("ages", "in [20, 90]", [(_below(20.0),), (60.0, _above(90.0))]),
    ("seeds", "nonempty", [()]),
    ("seeds", "distinct", [(1, 1)]),
    ("seeds", ">= 0", [(0, -1)]),
    ("out", "nonempty", [""]),
    ("seed", ">= 0", [-1]),
    ("jobs", ">= 1", [0]),
    ("m", ">= 1", [0]),
    ("k", ">= 1", [0]),
    ("dt", "> 0", [0.0]),
    ("episode_len", ">= 1", [0]),
    ("memory.capacity", ">= 1", [0]),
    ("memory.k_ret", ">= 1", [0]),
    ("memory.eps_d", ">= 0", [_below(0.0)]),
    ("memory.kappa_cat", ">= 0", [_below(0.0)]),
    ("ppo.clip", "> 0", [0.0]),
    ("ppo.gamma", "in (0, 1]", [0.0, _above(1.0)]),
    ("ppo.gae_lambda", "in [0, 1]", [_below(0.0), _above(1.0)]),
    ("ppo.lr", "> 0", [0.0]),
    ("ppo.rollout_len", ">= 1", [0]),
    ("ppo.epochs", ">= 1", [0]),
    ("ppo.minibatch", ">= 1", [0]),
    ("ppo.total_steps", ">= 0", [-1, -5]),
    ("ppo.hidden", ">= 1", [(64, 0)]),
    ("ppo.entropy_coef", ">= 0", [_below(0.0)]),
    ("ppo.value_coef", ">= 0", [_below(0.0)]),
    ("ppo.max_grad_norm", "> 0", [0.0]),
    ("reward.lambda_cat", ">= 0", [_below(0.0)]),
    ("reward.lambda_d", ">= 0", [_below(0.0)]),
    ("reward.lambda_mem", ">= 0", [_below(0.0)]),
    ("evolution.gamma_d", "> 0", [0.0]),
    ("evolution.eval_episodes", ">= 1", [0]),
    ("evolution.eval_seeds", "nonempty", [()]),
    ("evolution.eval_seeds", "distinct", [(901, 901)]),
    ("evolution.eval_seeds", ">= 0", [(-1,)]),
    ("evolution.rl_steps_short", ">= 0", [-1]),
    ("evolution.rl_steps_long", ">= 0", [-1]),
    ("evolution.top_fraction", "in (0, 1]", [0.0, _above(1.0)]),
    ("evolution.generations", ">= 1", [0]),
    ("evolution.popsize", ">= 2", [1]),
    ("evolution.sigma0", "> 0", [0.0]),
    ("predictive.seed", ">= 0", [-1]),
    ("predictive.samples", ">= 8", [7]),
    ("predictive.kappa", "> 0", [0.0]),
    ("predictive.lambda_env", ">= 0", [_below(0.0), -0.2]),
    ("predictive.lambda_pred", ">= 0", [_below(0.0)]),
    ("sim.repeats", ">= 1", [0]),
    ("sim.steps", ">= 1", [0]),
    ("sim.action", "in [0, 1]", [_below(0.0), _above(1.0)]),
    ("sim.age", "in [20, 90]", [_below(20.0), _above(90.0)]),
    ("eval.episodes", ">= 1", [0]),
    ("eval.seeds", "distinct", [(701, 701)]),
    ("eval.seeds", ">= 0", [(-1,)]),
    ("eval.seeds", "nonempty", [()]),
    ("probe.pairs", ">= 1", [0]),
    ("probe.radius", "> 0", [0.0]),
    ("probe.sd", "> 0", [0.0]),
]

# Bounded fields that no config key sets.
FIELD_BOUNDS = [
    (ScenarioConfig, "stress_mult", "> 0", [0.0]),
    (ScenarioConfig, "strain_mult", "> 0", [0.0]),
    (ScenarioConfig, "shear_mult", "> 0", [0.0]),
    (ScenarioConfig, "instability", "in [0, 1]", [_below(0.0), _above(1.0)]),
    (ScenarioConfig, "noise_sd", ">= 0", [_below(0.0)]),
    (SafeStateModel, "delta0", ">= 0", [_below(0.0)]),
]

GROUPS = {"ppo": PPOConfig, "reward": RewardParams, "evolution": FitnessSpec,
          "predictive": DiscrepancyParams}
STOCK = {PPOConfig: PPOConfig(), RewardParams: RewardParams(), FitnessSpec: FitnessSpec(),
         DiscrepancyParams: DiscrepancyParams(),
         SafeStateModel: SafeStateModel(A=np.eye(3, 7), b=np.zeros(3)),
         ScenarioConfig: SCENARIOS["normal"]}


def _with_nan(bound, values, stock):
    """values, plus a NaN value when the field holds floats and the bound is numeric."""
    if bound in ("nonempty", "distinct"):
        return values
    if isinstance(stock, float):
        return [*values, math.nan]
    if isinstance(stock, tuple) and isinstance(stock[0], float):
        return [*values, (math.nan,)]
    return values


def _group_field(key):
    """(group class, field name) of the group field a dotted key sets, or None."""
    group, _, name = key.partition(".")
    if group in GROUPS and name in {f.name for f in fields(GROUPS[group])}:
        return GROUPS[group], name
    return None


KEY_CASES = [(key, bound, value) for key, bound, values in BOUNDS
             for value in _with_nan(bound, values, DEFAULTS[key])]
FIELD_CASES = [(cls, name, bound, value) for cls, name, bound, values in FIELD_BOUNDS + [
                   (*_group_field(key), bound, values)
                   for key, bound, values in BOUNDS if _group_field(key)]
               for value in _with_nan(bound, values, getattr(STOCK[cls], name))]


def test_bounds_tables_cover_every_declared_bound():
    assert {(key, bound) for key, bound, _ in BOUNDS if not _group_field(key)} == {
        (f.metadata.get("key", f.name), bound) for f in fields(ExperimentConfig)
        for bound in f.metadata.get("bounds", ())}
    assert {(cls, name, bound) for cls, name, bound, _ in FIELD_CASES} == {
        (cls, f.name, bound) for cls in STOCK for f in fields(cls)
        for bound in f.metadata.get("bounds", ())}


@pytest.mark.parametrize("key, bound, value", KEY_CASES)
def test_value_outside_bound_names_its_key(key, bound, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be {re.escape(bound)}$"):
        _build({key: value})


@pytest.mark.parametrize("cls, name, bound, value", FIELD_CASES)
def test_group_field_outside_bound_names_the_field(cls, name, bound, value):
    with pytest.raises(ValidationError, match=f"^{name} must be {re.escape(bound)}$"):
        replace(STOCK[cls], **{name: value})


def test_default_document_round_trips():
    text = default_config_text()
    assert parse_config(text) == ExperimentConfig()
    # every named default appears in the rendered document
    for key in DEFAULTS:
        assert any(line.startswith(f"{key} =") for line in text.splitlines())


def _flat(cfg) -> dict:
    """Attribute path -> value, one level into nested groups."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            out.update({f"{f.name}.{g.name}": getattr(value, g.name) for g in fields(value)})
        else:
            out[f.name] = value
    return out


def _attribute(key: str) -> str:
    """The attribute path a config key is documented to set."""
    group, _, name = key.rpartition(".")
    if group in ("", "ppo", "reward"):
        return key
    if group == "evolution":
        return f"evo_{name}" if name in ("generations", "popsize", "sigma0") else f"fitness.{name}"
    if group == "predictive" and name not in ("seed", "samples"):
        return key
    prefix = {"memory": "memory", "predictive": "pred", "sim": "sim",
              "eval": "eval", "probe": "probe"}[group]
    return f"{prefix}_{name}"


def _other_value(key: str, value):
    """A valid value for the key that differs from its default."""
    named = {"scenario": "acl_deficient", "ablation": "no_cat"}
    if key in named:
        return named[key]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2  # keeps every range check satisfied
    if isinstance(value, tuple):
        return tuple(_other_value(key, v) for v in value)
    return value + "x"


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def test_each_key_sets_exactly_its_field():
    stock = _flat(ExperimentConfig())
    assert len(DEFAULTS) == 55
    for key, value in DEFAULTS.items():
        if key == "k":
            continue  # pinned to the twin's feature count, checked below
        want = _other_value(key, value)
        got = _flat(parse_config(f"{key} = {_render(want)}\n"))
        changed = {attr: v for attr, v in got.items() if v != stock[attr]}
        assert changed == {_attribute(key): want}, key
    with pytest.raises(ConfigError, match="k must be 3"):
        parse_config("k = 4\n")


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("m = 8\nk = 3\nages = 60\n")
    cfg = load_config(path)
    assert cfg.m == 8 and cfg.ages == (60.0,)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.cfg")


def test_cli_overrides_win():
    cfg = parse_config("seed = 5\nout = somewhere\n")
    over = apply_cli_overrides(cfg, seed=9, out="elsewhere", ablation="no_cat",
                               ages=(20.0, 80.0), scenario="meniscus_overload",
                               steps=512)
    assert over.seed == 9
    assert over.out == "elsewhere"
    assert over.ablation == "no_cat"
    assert over.ages == (20.0, 80.0)
    assert over.scenario == "meniscus_overload"
    assert over.ppo.total_steps == 512
    # untouched fields carry over; the original config is not mutated
    assert over.m == cfg.m
    assert cfg.seed == 5 and cfg.ppo.total_steps == 20000


def test_cli_overrides_noop():
    cfg = parse_config("")
    assert apply_cli_overrides(cfg) == cfg
