"""Golden out-tree digests: a speedup may not change a single output byte.

Each case runs one harness entry point on a micro config and hashes its out
tree (relative path, then bytes, over the sorted files, as bench/workloads.py
digests a workload's tree).  The digests were recorded on the numpy and BLAS
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
    "train": "106793d050cfd9932ba9d4ab80bfc8a511d71b281614f7cd6dcec4703e92f087",
    "evolve": "c8f2b90977807ee8eb539df4f183f7e33a90a1ac22a5ed4a5d0d6ac000a01975",
    "run_ablation": "b22e01fb06742536d4f9c092adf40a219b8e54e4f7c06af5708e46255d2f8d52",
}


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
    out = tmp_path / "out"
    getattr(harness, entry)(parse_config(MICRO + f"out = {out}\n"))
    assert tree_digest(out) == DIGESTS[entry]
