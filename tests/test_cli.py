import argparse
import json
import re
import shlex
import zipfile
from pathlib import Path

import numpy as np
import pytest

from afferent.afferents import handcrafted_genome
from afferent import harness
from afferent.cli import _resolve_config, build_parser, main
from afferent.config import _FLAGS, load_config, parse_config
from afferent.errors import TrainingError
from afferent.policy import init_policy
from afferent.storage import save_genome, save_policy
from afferent.util import rng_for

README = Path(__file__).resolve().parents[1] / "README.md"

MICRO = """
m = 8
k = 3
ages = 60
seeds = 0,1
episode_len = 64
ppo.total_steps = 256
ppo.rollout_len = 128
ppo.minibatch = 32
ppo.hidden = 8
eval.episodes = 1
eval.seeds = 701
evolution.generations = 1
evolution.popsize = 4
evolution.rl_steps_short = 128
evolution.rl_steps_long = 128
evolution.eval_episodes = 1
evolution.eval_seeds = 901
predictive.samples = 200
probe.pairs = 2
probe.radius = 10.0
sim.steps = 5
sim.repeats = 1
"""


@pytest.fixture()
def micro_config(tmp_path):
    path = tmp_path / "micro.cfg"
    path.write_text(MICRO)
    return str(path)


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parser_rejects_unknown_choices(capsys):
    for argv in (["train", "--ablation", "no_magic"],
                 ["train", "--scenario", "lunar"],
                 ["teleport"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
    capsys.readouterr()


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_undecodable_config_file_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe\x00")
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("key, command", [
    ("evolution.gamma_d", "evolve"), ("evolution.sigma0", "evolve"), ("ppo.lr", "train"),
    ("reward.lambda_d", "train"), ("probe.sd", "probe-lipschitz"), ("--ages", "train"),
])
def test_infinite_value_exits_2_naming_key(key, command, value, tmp_path, capsys):
    """A config key, or a command-line flag when it starts with --."""
    lines = [ln for ln in MICRO.splitlines() if ln.partition("=")[0].strip() != key]
    flag = [f"{key}={value}"] if key.startswith("--") else []
    if not flag:
        lines.append(f"{key} = {value}")
    path = tmp_path / "inf.cfg"
    path.write_text("\n".join(lines) + "\n")
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *flag])
    assert rc == 2
    named = f"{key}:" if flag else f"line {len(lines)}: {key}:"
    assert capsys.readouterr().err == (
        f"config error: {named} expected finite number, got {value!r}\n")
    assert not (tmp_path / "o").exists()


def test_bad_ages_exits_2(micro_config, tmp_path, capsys):
    for ages in ("sixty", "60,", "60,,80"):  # as strict as `ages = ...` in a config
        rc = main(["simulate", "--config", micro_config,
                   "--out", str(tmp_path / "o"), "--ages", ages])
        assert rc == 2
        assert "config error: --ages" in capsys.readouterr().err


def test_evaluate_without_policy_exits_2(micro_config, tmp_path, capsys):
    rc = main(["evaluate", "--config", micro_config, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "policy" in capsys.readouterr().err


SAVE = {"genome": lambda path: save_genome(path, handcrafted_genome(8, 3)),
        "policy": lambda path: save_policy(path, init_policy(11, rng_for(0, 0), "base", (8,)))}
# The member raw_member stores as bytes without the .npy header.
RAW_MEMBER = {"genome": ("m.npy", b"8"), "policy": ("mode.npy", b"base")}


def _replace_member(path, name, data):
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    members[name] = data
    with zipfile.ZipFile(path, "w") as zf:
        for member, content in members.items():
            zf.writestr(member, content)


@pytest.mark.parametrize("content",
                         ["text", "empty", "npy", "truncated", "other_kind", "raw_member"])
@pytest.mark.parametrize("key, command", [("genome", "train"), ("policy", "evaluate")])
def test_malformed_checkpoint_exits_2_naming_file(key, command, content, tmp_path, capsys):
    path = tmp_path / "bad.bin"
    if content == "text":
        path.write_text("m = 8\n")
    elif content == "empty":
        path.write_bytes(b"")
    elif content == "npy":
        with open(path, "wb") as fh:
            np.save(fh, handcrafted_genome(8, 3).raw)
    elif content == "truncated":  # the first half of a valid checkpoint
        SAVE[key](path)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
    elif content == "raw_member":  # a checkpoint with one member not written by np.save
        SAVE[key](path)
        _replace_member(path, *RAW_MEMBER[key])
    else:  # a checkpoint of the other kind
        SAVE["policy" if key == "genome" else "genome"](path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MICRO + f"{key} = {path}\n")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} file {path} is not a {key} checkpoint" in err
    if content not in ("other_kind", "raw_member"):  # those two are zip archives
        assert "not an NPZ archive" in err
    assert "allow_pickle" not in err
    assert not (tmp_path / "o").exists()


def test_failed_train_exits_3_with_manifest_and_no_policy(micro_config, tmp_path,
                                                         monkeypatch, capsys):
    def rl_train(setup, ppo, seed):
        raise TrainingError("injected")

    monkeypatch.setattr(harness, "rl_train", rl_train)
    out = tmp_path / "o"
    rc = main(["train", "--config", micro_config, "--out", str(out)])
    assert rc == 3
    assert "1 cell(s) failed" in capsys.readouterr().err
    manifest = json.loads((out / "reports" / "failure_manifest.json").read_text())
    assert manifest == {"failures": [{"variant": "full", "age": 60.0, "seed": 0,
                                      "error": "injected"}],
                        "completed": []}
    assert not (out / "genomes").exists()


def test_simulate_summary_line(micro_config, tmp_path, capsys):
    out = tmp_path / "simout"
    rc = main(["simulate", "--config", micro_config, "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line == f"wrote 3 rollout files x 5 lines under {out}/runs"
    assert (out / "runs" / "dkt_normal_rep0.jsonl").is_file()


def test_train_summary_line(micro_config, tmp_path, capsys):
    out = tmp_path / "trainout"
    rc = main(["train", "--config", micro_config, "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("trained full at age 60: d_total=")
    assert (out / "genomes" / "policy_normal_age60_seed0.bin").is_file()


def test_cli_overrides_reach_harness(micro_config, tmp_path, capsys):
    out = tmp_path / "ovr"
    rc = main(["train", "--config", micro_config, "--out", str(out),
               "--ablation", "no_cat", "--ages", "80", "--steps", "128",
               "--scenario", "meniscus_overload", "--seed", "1"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("trained no_cat at age 80:")
    assert (out / "genomes" / "policy_meniscus_overload_age80_seed1.bin").is_file()


def test_jobs_flag_reaches_config(micro_config):
    args = build_parser().parse_args(["ablate", "--config", micro_config, "--jobs", "2"])
    assert _resolve_config(args).jobs == 2
    args = build_parser().parse_args(["ablate", "--config", micro_config])
    assert _resolve_config(args).jobs == 1


# Per flag: a valid text, given with the surrounding whitespace a config line may
# carry unless argparse checks it against choices, and a text that does not parse.
FLAG_TEXTS = {"seed": (" 7 ", "x"), "out": (" elsewhere ", None),
              "ablation": ("no_cat", None), "ages": (" 20, 80 ", "sixty"),
              "scenario": ("meniscus_overload", None), "steps": ("512", "1.5"),
              "jobs": ("2", "two")}


@pytest.mark.parametrize("flag", _FLAGS)
def test_each_flag_parses_as_its_key(flag, micro_config, tmp_path, capsys):
    good, bad = FLAG_TEXTS[flag]
    key = _FLAGS[flag]
    args = build_parser().parse_args(["train", "--config", micro_config, f"--{flag}", good])
    path = tmp_path / "flag.cfg"
    path.write_text("".join(ln + "\n" for ln in MICRO.splitlines()
                            if ln.partition("=")[0].strip() != key) + f"{key} = {good}\n")
    assert _resolve_config(args) == load_config(path)
    if bad is not None:
        out = tmp_path / "o"
        rc = main(["train", "--config", micro_config, "--out", str(out), f"--{flag}", bad])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --{flag}: expected ") and repr(bad) in err
        assert not out.exists()


def test_jobs_zero_exits_2(micro_config, tmp_path, capsys):
    rc = main(["simulate", "--config", micro_config,
               "--out", str(tmp_path / "o"), "--jobs", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "jobs" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("episode_len", 0), ("ppo.rollout_len", 0), ("ppo.minibatch", 0),
    ("ppo.epochs", 0), ("eval.episodes", 0), ("memory.capacity", 0), ("k", 2),
    ("evolution.eval_episodes", 0), ("probe.pairs", 0), ("memory.k_ret", 0),
    ("seed", -1), ("seeds", -1), ("eval.seeds", -1), ("evolution.eval_seeds", -1),
    ("predictive.seed", -1), ("--seed", -1), ("evolution.generations", 0),
    ("ppo.lr", -1), ("ppo.total_steps", -5), ("--steps", -5), ("dt", -1),
    ("predictive.kappa", 0), ("sim.action", 2), ("sim.age", 10),
    ("probe.radius", 0), ("probe.sd", 0), ("predictive.lambda_env", -1),
    ("predictive.lambda_pred", -1), ("memory.eps_d", -1), ("memory.kappa_cat", -5),
    ("evolution.rl_steps_short", -3), ("evolution.rl_steps_long", -3), ("dt", 50),
    ("ppo.hidden", 0), ("ppo.max_grad_norm", 0), ("ppo.max_grad_norm", -1),
    ("ppo.value_coef", -1), ("ppo.entropy_coef", -1), ("sim.steps", 0),
    ("sim.repeats", 0), ("evolution.popsize", 1), ("evolution.sigma0", 0),
    ("seeds", "1,1"), ("ages", "60,60.0"), ("eval.seeds", "701,702,701"),
    ("evolution.eval_seeds", "901,901"), ("predictive.samples", 0),
    ("predictive.samples", 7), ("ppo.clip", 0), ("reward.lambda_d", -1),
    ("evolution.gamma_d", 0),
])
def test_bad_value_exits_2_naming_key(key, value, tmp_path, capsys):
    """A config key, or a command-line flag when it starts with --."""
    lines = [ln for ln in MICRO.splitlines() if ln.partition("=")[0].strip() != key]
    flag = [key, str(value)] if key.startswith("--") else []
    if not flag:
        lines.append(f"{key} = {value}")
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o"), *flag])
    assert rc == 2
    err = capsys.readouterr().err
    named = key.lstrip("-") if flag else key  # a config key is named in full
    assert "config error" in err and f"{named} must be" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("mode", "plain"), ("use_memory", "false"), ("use_predictive", "false"),
    ("memory_bias", "true"),
])
def test_removed_wiring_key_exits_2(key, value, tmp_path, capsys):
    """The ablation arm is the only wiring switch; the old keys are unknown."""
    path = tmp_path / "old.cfg"
    path.write_text(MICRO + f"{key} = {value}\n")
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown key '{key}'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, flags", [("", ["--out", "  "]), ("out =", [])])
def test_empty_out_exits_2_writing_nothing(line, flags, tmp_path, monkeypatch, capsys):
    """An empty out would put runs/ and reports/ in the working directory."""
    path = tmp_path / "c.cfg"
    path.write_text(MICRO + line + "\n")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    rc = main(["simulate", "--config", str(path), *flags])
    assert rc == 2
    assert capsys.readouterr().err == "config error: out must be nonempty\n"
    assert not any(cwd.iterdir())


def test_readme_config_example_and_flags_hold(tmp_path, capsys):
    text = README.read_text()
    # Each quoted input exits 2 with exactly the quoted message.
    quoted = re.findall(r"`([^`]+)` exits 2 with `config error: ([^`]+)`",
                        re.sub(r"\s*\n\s*", " ", text))
    assert {"ppo.clip must be > 0", "--seed: expected integer, got 'x'"} <= {
        message for _, message in quoted}
    for given, message in quoted:
        path = tmp_path / "quoted.cfg"
        path.write_text(MICRO + ("" if given.startswith("--") else given + "\n"))
        flags = shlex.split(given) if given.startswith("--") else []
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o"), *flags])
        assert rc == 2, given
        assert capsys.readouterr().err == f"config error: {message}\n", given
    example = re.search(r"```\n# exp\.cfg\n(.*?)```", text, re.S).group(1)
    cfg = parse_config(example)
    assert cfg.m == 16 and cfg.ages == (20.0, 60.0, 80.0)
    cli = text[text.index("## CLI"):]
    cli = cli[:cli.index("\n## ", 1)]
    usage = [ln for ln in text.splitlines() if ln.startswith("afferent ")]
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", cli + "\n".join(usage)))
    assert {"--config", "--out", "--jobs"} <= flags
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for line in usage:
        assert line.split()[1] in subparsers.choices, line
    for name, sub in subparsers.choices.items():
        missing = flags - set(sub._option_string_actions)
        assert not missing, f"{name} lacks documented flags {sorted(missing)}"


def test_zero_predictive_weights_exit_2_before_ablate_writes(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(MICRO + "predictive.lambda_env = 0\npredictive.lambda_pred = 0\n")
    out = tmp_path / "o"
    rc = main(["ablate", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err
    assert "predictive.lambda_env" in err and "predictive.lambda_pred" in err
