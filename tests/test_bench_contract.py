"""The benchmark's call-count contract, checked on micro configs.

bench/run.py --trace 1 fails a run whose traced calls differ from the counts
bench/workloads.py derives from the config.  These tests count the same calls
in-process, so a change that inlines or fuses a traced function fails here
and not only in a traced benchmark run.  They read bench/ and change nothing
there.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from afferent import harness
from afferent.config import parse_config

BENCH = Path(__file__).resolve().parent.parent / "bench"

MICRO = """
m = 8
k = 3
ages = 60
episode_len = 40
jobs = 1
ppo.total_steps = 200
ppo.rollout_len = 64
ppo.minibatch = 16
ppo.epochs = 2
ppo.hidden = 8
eval.episodes = 2
eval.seeds = 701
predictive.samples = 90
evolution.generations = 1
evolution.popsize = 4
evolution.rl_steps_short = 48
evolution.rl_steps_long = 56
evolution.eval_episodes = 1
evolution.eval_seeds = 901
"""


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _bench_module("spans")
workloads = _bench_module("workloads")


@pytest.fixture()
def traced_calls(monkeypatch):
    """Counter of calls per span name, over every non-mark target of the bench."""
    calls = Counter()
    for name, module, attr, _ in spans.TARGETS:
        if name in spans.MARKS:
            continue
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf, None)
        if fn is None:  # as spans.install: a layer that is gone counts 0 calls
            continue

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, leaf, counted)
    return calls


@pytest.mark.parametrize("entry, expected", [
    ("train", "_train_full_counts"),
    ("evolve", "_evolve_base_counts"),
])
def test_traced_calls_match_the_bench_counts(entry, expected, traced_calls, tmp_path):
    cfg = parse_config(MICRO + f"out = {tmp_path}\n")
    getattr(harness, entry)(cfg)
    want = getattr(workloads, expected)(cfg)
    assert want["env.step"] > 0 and want["nets.MLP.forward"] > 0
    assert +traced_calls == +want


def test_traced_ablation_calls_match_the_bench_counts(traced_calls, tmp_path):
    # The grid's frozen evaluation streams record and query their windows
    # too, so this is the check on the memory calls outside training.
    micro = MICRO.replace("ages = 60\n", "ages = 20, 80\nseeds = 0, 1\n")
    cfg = parse_config(micro + f"out = {tmp_path / 'out'}\n"
                       f"genome = {tmp_path / 'genome.bin'}\n")
    workloads._write_genome(cfg)
    harness.run_ablation(cfg)
    want = workloads._ablate_grid_counts(cfg)
    assert want["memory.query"] > 0 and want["memory.maybe_capture"] > 0
    assert +traced_calls == +want
