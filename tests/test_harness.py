"""End-to-end checks of the harness operations at very small budgets."""

import csv
import json
import os
import subprocess
import time
from dataclasses import replace

import numpy as np
import pytest

from afferent.afferents import Genome, decode_genome, handcrafted_genome
from afferent import harness
from afferent.config import ABLATIONS, ARMS, FITNESS_ARM, ExperimentConfig
from afferent.errors import ConfigError, TrainingError
from afferent.harness import (
    _build_setup,
    _parallel_map,
    _resolve_genome,
    evaluate,
    fitness_setup,
    probe_lipschitz,
    resolve_predictive,
    run_ablation,
    simulate,
    train,
    variant_plan,
)
from afferent.policy import PPOConfig, RewardParams, init_policy, obs_dim
from afferent.predictive import DiscrepancyParams
from afferent.rollout import Runner
from afferent.storage import load_safe_model, read_jsonl, save_genome, validate_rollout_line
from afferent.util import rng_for


def micro_cfg(tmp_path, **kw):
    base = dict(
        m=8, k=3, ages=(60.0,), seeds=(0,), out=str(tmp_path),
        ppo=PPOConfig(total_steps=256, rollout_len=128, minibatch=32, hidden=(8,)),
        episode_len=64, eval_episodes=1, eval_seeds=(701,),
        pred_samples=200, sim_repeats=1, sim_steps=10,
        fitness=ExperimentConfig().fitness,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_variant_plan_wiring():
    cfg = ExperimentConfig()
    want = {  # arm: (mode, memory, predictive)
        "full": ("epi", True, True),
        "no_cat": ("plain", False, False),
        "no_evolution": ("epi", True, True),
        "no_amm": ("base", False, True),
        "no_predictive": ("epi", True, False),
    }
    assert tuple(want) == ABLATIONS
    for arm, (mode, memory, predictive) in want.items():
        plan = variant_plan(cfg, arm)
        assert (plan.mode, plan.use_memory, plan.use_predictive) == (mode, memory, predictive)
        armed = ExperimentConfig(ablation=arm)
        assert armed.mode == variant_plan(armed, armed.ablation).mode == mode
    with pytest.raises(ConfigError):
        variant_plan(cfg, "no_everything")


# The weights whose signal an arm lacks: zeroing them must change no reward.
ABSENT_WEIGHTS = {"no_cat": ("lambda_cat", "lambda_mem"), "no_amm": ("lambda_mem",)}


@pytest.mark.parametrize("variant", ABLATIONS)
def test_absent_signals_are_exactly_zero(variant, tmp_path):
    """Each setup is wired as its arm says, and a signal an arm lacks is +0.0
    at every step, so zeroing its weight is a no-op."""
    cfg = micro_cfg(tmp_path, reward=RewardParams(lambda_cat=1.5, lambda_d=3.0,
                                                  lambda_mem=7.0),
                    predictive=DiscrepancyParams(kappa=4.0))
    arm = ARMS[variant]
    model = resolve_predictive(cfg)
    handcrafted = handcrafted_genome(cfg.m, cfg.k, cfg.dt)
    # perturbed as bench/workloads.py's _write_genome perturbs it
    raw = handcrafted.raw + np.random.default_rng([0, 77]).normal(
        0.0, 0.05, size=handcrafted.raw.shape)
    genome = Genome(raw=raw, m=cfg.m, k=cfg.k)

    setup = _build_setup(cfg, arm, genome, 60.0, model)
    w_handcrafted, w_given = (decode_genome(g, cfg.dt).W.tobytes()
                              for g in (handcrafted, genome))
    assert (setup.array.W.tobytes() == w_handcrafted) == (not arm.evolved)
    assert (setup.array.W.tobytes() == w_given) == arm.evolved
    assert (setup.memory is not None) == arm.use_memory == (arm.mode == "epi")
    assert (setup.safe_model is not None) == arm.use_predictive
    assert setup.safe_model in (None, model)
    assert setup.disc == cfg.predictive != DiscrepancyParams()

    def collect(reward):
        setup = replace(_build_setup(cfg, arm, genome, 60.0, model), reward=reward)
        policy = init_policy(obs_dim(arm.mode, cfg.k, cfg.m), rng_for(0, 0), arm.mode,
                             cfg.ppo.hidden)
        return Runner(setup, policy, seed=0).collect(2 * cfg.episode_len)

    batch = collect(cfg.reward)
    if arm.mode == "plain":
        assert not np.any(batch["cats"])
    if not arm.use_memory:
        assert not np.any(batch["recalls"])
    zeroed = collect(replace(cfg.reward, **dict.fromkeys(ABSENT_WEIGHTS.get(variant, ()), 0.0)))
    assert batch["rewards"].tobytes() == zeroed["rewards"].tobytes()


def test_fitness_setup_wires_the_fitness_arm():
    assert FITNESS_ARM == ("base", False, True)
    assert FITNESS_ARM not in ARMS.values()
    cfg = ExperimentConfig(reward=RewardParams(lambda_cat=1.0, lambda_d=3.0, lambda_mem=7.0))
    setup = fitness_setup(cfg)(handcrafted_genome(cfg.m, cfg.k))
    assert (setup.mode, setup.memory, setup.safe_model) == ("base", None, None)
    assert setup.disc == cfg.predictive
    assert setup.reward == cfg.reward and setup.age == cfg.ages[0]


def test_resolve_genome_paths(tmp_path):
    cfg = micro_cfg(tmp_path)
    assert np.array_equal(_resolve_genome(cfg).raw, handcrafted_genome(8, 3).raw)
    gpath = tmp_path / "g.bin"
    save_genome(gpath, handcrafted_genome(8, 3))
    loaded = _resolve_genome(micro_cfg(tmp_path, genome=str(gpath)))
    assert loaded.m == 8 and loaded.k == 3
    with pytest.raises(ConfigError, match="not found"):
        _resolve_genome(micro_cfg(tmp_path, genome=str(tmp_path / "nope.bin")))
    wrong = tmp_path / "wrong.bin"
    save_genome(wrong, handcrafted_genome(4, 3))
    with pytest.raises(ConfigError, match="does not match") as exc:
        _resolve_genome(micro_cfg(tmp_path, genome=str(wrong)))
    assert f"genome file {wrong} " in str(exc.value)


def test_simulate_outputs(tmp_path):
    cfg = micro_cfg(tmp_path, sim_repeats=2, sim_steps=10)
    manifest = simulate(cfg)
    assert manifest["lines_per_file"] == 10
    assert len(manifest["files"]) == 6  # 3 scenarios x 2 repeats
    for rel in manifest["files"]:
        rows = read_jsonl(tmp_path / rel)
        assert len(rows) == 10
        for row in rows:
            validate_rollout_line(row)
    assert (tmp_path / "reports" / "simulate.json").is_file()
    normal = read_jsonl(tmp_path / "runs" / "dkt_normal_rep0.jsonl")
    assert normal[0]["scenario"] == "normal"
    assert normal[0]["load_factor"] == pytest.approx(1.0)
    assert normal[3]["time"] == pytest.approx(3 / 80)
    acl = read_jsonl(tmp_path / "runs" / "dkt_acl_deficient_rep0.jsonl")
    assert acl[0]["load_factor"] == pytest.approx((1.15 + 1.05 + 1.5) / 3)
    assert acl[0]["instability_index"] == pytest.approx(0.4)
    assert len(normal[0]["cat_embedding"]) == cfg.m


def test_simulate_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    simulate(micro_cfg(a_dir))
    simulate(micro_cfg(b_dir))
    rel = "runs/dkt_normal_rep0.jsonl"
    assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


def test_train_then_evaluate(tmp_path):
    cfg = micro_cfg(tmp_path)
    report = train(cfg)
    assert report["variant"] == "full" and report["steps"] == 256
    ppath = tmp_path / "genomes" / "policy_normal_age60_seed0.bin"
    assert ppath.is_file()
    assert (tmp_path / "genomes" / "safe_model.bin").is_file()
    assert (tmp_path / "curves" / "train_normal_age60_seed0.csv").is_file()
    episodes = read_jsonl(tmp_path / "runs" / "train_normal_age60_seed0.jsonl")
    assert len(episodes) == 1  # eval_episodes x eval_seeds
    assert {"action_mean", "safe_fraction", "d_total", "cat_mean"} <= set(episodes[0])

    metrics = evaluate(micro_cfg(tmp_path, policy=str(ppath)))
    assert set(metrics.mean_action) == {"60"}
    assert (tmp_path / "reports" / "evaluate_normal.json").is_file()


def test_train_checkpoint_holds_the_resolved_predictive_layer(tmp_path):
    cfg = micro_cfg(tmp_path, predictive=DiscrepancyParams(kappa=4.0))
    train(cfg)
    model, disc = load_safe_model(tmp_path / "genomes" / "safe_model.bin")
    want_model = resolve_predictive(cfg)
    for name in ("A", "b"):
        got, want = getattr(model, name), getattr(want_model, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    scalars = ("residual_rms", "ridge", "delta0")
    assert [getattr(model, f) for f in scalars] == [getattr(want_model, f) for f in scalars]
    assert disc == cfg.predictive != DiscrepancyParams()


@pytest.mark.parametrize("arm", ["no_cat", "no_amm"])
def test_evaluate_of_a_train_checkpoint_repeats_its_eval_rows(arm, tmp_path):
    # Arms without memory only: a memory arm evaluates against an empty store.
    cfg = micro_cfg(tmp_path, ablation=arm, eval_seeds=(701, 702), eval_episodes=2)
    train(cfg)
    evaluate(micro_cfg(tmp_path, ablation=arm, eval_seeds=(701, 702), eval_episodes=2,
                       policy=str(tmp_path / "genomes" / "policy_normal_age60_seed0.bin")))
    trained = read_jsonl(tmp_path / "runs" / "train_normal_age60_seed0.jsonl")
    assert len(trained) == 4
    assert read_jsonl(tmp_path / "runs" / "evaluate_normal_age60.jsonl") == trained


def test_evaluate_requires_policy(tmp_path):
    with pytest.raises(ConfigError, match="policy"):
        evaluate(micro_cfg(tmp_path))
    with pytest.raises(ConfigError, match="not found"):
        evaluate(micro_cfg(tmp_path, policy=str(tmp_path / "ghost.bin")))


def test_evaluate_rejects_mode_mismatch(tmp_path):
    cfg = micro_cfg(tmp_path)
    train(cfg)
    ppath = tmp_path / "genomes" / "policy_normal_age60_seed0.bin"
    # trained in epi mode; no_cat wires plain observations
    with pytest.raises(ConfigError, match="mode"):
        evaluate(micro_cfg(tmp_path, policy=str(ppath), ablation="no_cat"))
    with pytest.raises(ConfigError, match="observation size"):
        evaluate(micro_cfg(tmp_path, policy=str(ppath), m=4))


def test_probe_lipschitz_report(tmp_path):
    fitness = ExperimentConfig().fitness
    fitness = type(fitness)(eval_episodes=1, eval_seeds=(901,), rl_steps_short=64,
                            rl_steps_long=64, top_fraction=0.5)
    cfg = micro_cfg(tmp_path, probe_pairs=2, probe_radius=10.0, fitness=fitness)
    report = probe_lipschitz(cfg)
    assert report["l_hat"] >= 0.0
    assert report["genome"] == "handcrafted"
    assert report["n_pairs"] == 2
    assert (tmp_path / "reports" / "lipschitz_normal_seed0.json").is_file()


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _genome_file(tmp_path) -> str:
    """The handcrafted genome saved beside, not inside, the out trees."""
    path = tmp_path / "handcrafted.bin"
    save_genome(path, handcrafted_genome(8, 3))
    return str(path)


def test_ablation_output_does_not_depend_on_jobs(tmp_path):
    genome = _genome_file(tmp_path)
    trees = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        run_ablation(micro_cfg(out, seeds=(0, 1), jobs=jobs, genome=genome))
        trees.append(_tree_bytes(out))
    assert trees[0] and trees[0] == trees[1] == trees[2]


def _fail_one_cell(monkeypatch, mode, seed):
    """Make rl_train raise in the harness for the cells of one mode and seed."""
    real = harness.rl_train

    def rl_train(setup, ppo, rl_seed):
        if (setup.mode, rl_seed) == (mode, seed):
            raise TrainingError("injected")
        return real(setup, ppo, rl_seed)

    monkeypatch.setattr(harness, "rl_train", rl_train)


def test_failed_ablation_cell_writes_manifest_at_any_jobs(tmp_path, monkeypatch):
    _fail_one_cell(monkeypatch, "plain", 1)  # no_cat at seed 1
    genome = _genome_file(tmp_path)
    trees = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        with pytest.raises(TrainingError, match="1 cell.* failed.*first: injected"):
            run_ablation(micro_cfg(out, seeds=(0, 1), jobs=jobs, genome=genome))
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]
    manifest = json.loads(trees[0]["reports/failure_manifest.json"])
    assert manifest["failures"] == [
        {"variant": "no_cat", "age": 60.0, "seed": 1, "error": "injected"}]
    grid = [(v, s) for v in ABLATIONS for s in (0, 1) if (v, s) != ("no_cat", 1)]
    assert [(c["variant"], c["seed"]) for c in manifest["completed"]] == grid
    assert all(c["age"] == 60.0 for c in manifest["completed"])
    runs = sorted(name for name in trees[0] if name.startswith("runs/"))
    assert runs == sorted(f"runs/ablation_{v}_age60_seed{s}.jsonl" for v, s in grid)
    assert sorted(trees[0]) == ["reports/failure_manifest.json", *runs]


def _with_pid(item):
    return item, os.getpid()


@pytest.mark.parametrize("jobs", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_parallel_map_matches_serial_map_on_jobs_processes(n, jobs):
    items = [i * i for i in range(n)]
    got = _parallel_map(_with_pid, items, jobs)
    assert [item for item, _ in got] == items
    assert len({pid for _, pid in got}) <= min(jobs, n)


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("n", [7, 20])
def test_parallel_map_deals_items_round_robin_starting_in_the_caller(n, jobs):
    pids = [pid for _, pid in _parallel_map(_with_pid, list(range(n)), jobs)]
    assert pids[0] == os.getpid()
    assert os.getpid() not in pids[1:jobs]
    assert all(pids[i] == pids[i % jobs] for i in range(n))


def test_parallel_map_runs_each_slice_in_its_own_process():
    for _ in range(20):
        pids = [pid for _, pid in _parallel_map(_with_pid, range(20), 3)]
        assert len(set(pids[:3])) == 3
        assert all(pids[i] == pids[i % 3] for i in range(20))


def test_run_python_kills_forked_children_on_timeout(run_python, tmp_path):
    pgid_file = tmp_path / "pgid"
    code = f"""
import os, time
if os.fork() == 0:
    time.sleep(60)
    os._exit(0)
with open({str(pgid_file)!r}, "w") as f:
    f.write(str(os.getpgid(0)))
time.sleep(60)
"""
    with pytest.raises(subprocess.TimeoutExpired):
        run_python(code, timeout=1)
    pgid = int(pgid_file.read_text())
    # the killed child is reparented and stays a zombie until it is reaped
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


def test_cli_and_harness_import_without_the_process_pool(run_python):
    code = ("import sys, afferent.cli, afferent.harness\n"
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    assert run_python(code, timeout=60).split() == ["False", "False"]


def test_parallel_map_forks_whatever_the_default_start_method(run_python):
    code = """
import multiprocessing, os
from afferent.harness import _parallel_map

def f(i):
    return i * i, os.getpid()

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    got = _parallel_map(f, list(range(7)), 3)
    print([v for v, _ in got] == [i * i for i in range(7)], len({pid for _, pid in got}))
"""
    assert run_python(code, timeout=60).split() == ["True", "3"]


def test_parallel_map_raises_when_a_worker_dies_and_leaves_no_child(run_python):
    # Workers 1 and 3 die; worker 2's replies outgrow a pipe's buffer, so it
    # must be drained before it can be joined.
    code = """
import os
from afferent.harness import _parallel_map

def f(i):
    if i % 4 in (1, 3):
        os._exit(1)
    return bytes(100_000)

try:
    _parallel_map(f, range(16), 4)
    print("returned")
except Exception as exc:
    print("raised", type(exc).__name__)
try:
    os.waitpid(-1, os.WNOHANG)
    print("child left")
except ChildProcessError:
    print("no child")
"""
    out = run_python(code, timeout=60).splitlines()
    assert out[0].startswith("raised") and out[1] == "no child"


def _fail_on_one_side(item):
    """Raise on the side (caller or worker) the item names; slow the other one."""
    side, caller_pid, i = item
    if (os.getpid() == caller_pid) == (side == "caller"):
        raise ValueError(f"cell {i} failed in the {side}")
    time.sleep(0.05)
    return i


@pytest.mark.parametrize("side", ["caller", "worker"])
def test_parallel_map_raises_the_failing_items_exception(side):
    items = [(side, os.getpid(), i) for i in range(100)]
    with pytest.raises(ValueError, match=f"failed in the {side}"):
        _parallel_map(_fail_on_one_side, items, 2)


def _create(path):
    with open(path, "x"):  # a second claim of the same item raises FileExistsError
        pass
    return path


def test_parallel_map_runs_each_item_once_on_eight_processes(tmp_path):
    items = [tmp_path / str(i) for i in range(300)]
    assert _parallel_map(_create, items, 8) == items
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in items)


def test_reports_agree_with_episode_rows(tmp_path):
    cfg = micro_cfg(tmp_path / "ablate", seeds=(0, 1), eval_episodes=2,
                    genome=_genome_file(tmp_path))
    run_ablation(cfg)
    out = tmp_path / "ablate"
    with open(out / "curves" / "ablation_normal.csv") as fh:
        csv_rows = list(csv.DictReader(fh))
    aggregate = json.loads((out / "reports" / "ablation.json").read_text())
    assert len(csv_rows) == 5 * 2
    for row in csv_rows:
        episodes = read_jsonl(out / "runs" / (
            f"ablation_{row['variant']}_age60_seed{row['seed']}.jsonl"))
        assert len(episodes) == 2
        assert float(row["d_total"]) == float(np.mean([ep["d_total"] for ep in episodes]))
        # the other columns pool the cell's steps; its episodes are equally long
        for key in ("action_mean", "safe_fraction", "cat_mean"):
            values = [ep[key] for ep in episodes if key in ep]
            assert (row[key] == "") == (not values)
            if values:
                assert float(row[key]) == pytest.approx(np.mean(values), rel=1e-12)
        entry, = [e for e in aggregate["variants"][row["variant"]]["d_total"]
                  if e["seed"] == int(row["seed"])]
        assert entry["d_total"] == float(row["d_total"])

    report = train(micro_cfg(tmp_path / "train"))
    episodes = read_jsonl(tmp_path / "train" / "runs" / "train_normal_age60_seed0.jsonl")
    row = {k: v for k, v in episodes[0].items() if k != "episode"}
    assert set(report["eval"]) == set(row)
    assert report["eval"] == row  # one eval episode: the cell's means are its own
