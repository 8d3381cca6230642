import re
from dataclasses import fields, is_dataclass

import pytest

from afferent.config import (
    ABLATIONS,
    DEFAULTS,
    ExperimentConfig,
    apply_cli_overrides,
    default_config_text,
    load_config,
    parse_config,
)
from afferent.errors import ConfigError


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
    ("ppo.clip = 0", "ppo.clip must be positive"),
    ("reward.lambda_d = -1", "reward.lambda_d must be >= 0"),
    ("evolution.top_fraction = 0", "evolution.top_fraction must lie in (0, 1]"),
])
def test_group_errors_name_the_full_key(line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(line)
    assert str(exc.value) == message


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
