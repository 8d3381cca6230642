"""Golden out-tree digests: a speedup may not change a single output byte.

Each case runs one harness entry point on a micro config and hashes its out
tree (relative path, then bytes, over the sorted files, as bench/workloads.py
digests a workload's tree).  evaluate first trains the policy it loads, in a
tree of its own, and recalibrates the safe-state model.  The digests were recorded on the numpy and BLAS
below; float results may round differently under another build, so the test
skips there rather than fail.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from afferent import harness
from afferent.config import parse_config

MICRO = """
m = 8
k = 3
ages = 60
seeds = 0,1
episode_len = 40
ppo.total_steps = 200
ppo.rollout_len = 64
ppo.minibatch = 16
ppo.epochs = 2
ppo.hidden = 8
eval.episodes = 2
eval.seeds = 701
memory.capacity = 16
predictive.samples = 90
evolution.generations = 1
evolution.popsize = 4
evolution.rl_steps_short = 48
evolution.rl_steps_long = 56
evolution.eval_episodes = 1
evolution.eval_seeds = 901
"""

# numpy version, BLAS name and BLAS version the digests were recorded with
RECORDED_ON = ("2.4.6", "scipy-openblas", "0.3.31.188.0")

DIGESTS = {
    "train": "a20450f12cb6bc5083dcb07d037d78a43623a11cc00915d8b3cf014b493820b0",
    "evolve": "7d6c7bcfc51182b4b83aa65668a322ad71f9ffdf7e50f004ea47fe249cb60a04",
    "run_ablation": "b22e01fb06742536d4f9c092adf40a219b8e54e4f7c06af5708e46255d2f8d52",
    "evaluate": "4b946ea3d9f11e02c3f11edd51ca00aaef9348b82c04ffd1e9da60b21a0e7ba4",
    "simulate": "9a77af627350246256764c8b366bc1cf06fbf17dd53aff7298217f710553006f",
    "probe_lipschitz": "e31ce6a60f15ed720cd7dd6e27a303fde4b2a01547effd1f7e2cc88a5dcf1e68",
}

# lines an entry point adds to MICRO
EXTRA = {"simulate": "sim.steps = 20\nsim.repeats = 2\n",
         "probe_lipschitz": "probe.pairs = 2\nprobe.radius = 10.0\n"}


def _build() -> tuple:
    if np.__version__ != RECORDED_ON[0]:  # show_config(mode=) is missing before numpy 1.25
        return (np.__version__,)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas["name"], blas["version"]


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("entry", sorted(DIGESTS))
def test_out_tree_digest_is_pinned(entry, tmp_path):
    if _build() != RECORDED_ON:
        pytest.skip(f"digests recorded on numpy/BLAS {RECORDED_ON}, this is {_build()}")
    text = MICRO + EXTRA.get(entry, "")
    if entry == "evaluate":
        trained = tmp_path / "train"
        report = harness.train(parse_config(text + f"out = {trained}\n"))
        text += f"policy = {trained / report['policy_file']}\n"
    out = tmp_path / "out"
    getattr(harness, entry)(parse_config(text + f"out = {out}\n"))
    assert tree_digest(out) == DIGESTS[entry]
