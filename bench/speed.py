"""Reference-speed sampling: how fast the cores ran during one pipeline run.

The cores of a shared host change speed with the host's load.  A fixed
kernel reads anywhere from about 1x to 1.7x its fastest time, in phases that
last from seconds to minutes, and every pipeline time moves with it: raw
wall times of identical runs made minutes apart differ by up to 1.8x.

A Sampler times KERNEL once every INTERVAL_S of its process's CPU time
(ITIMER_PROF, so a process waiting on its pool takes no samples), in the
pipeline process and in every forked pool worker.  A run's speed factor is
REF_S over the median kernel time pooled over its processes; a time
multiplied by it reads as seconds on a core that runs the kernel in REF_S.
The kernel mixes the pipeline's two kinds of work: a pure-Python loop, and a
stack, product and sort over 512 short vectors, like a memory query on a
full store.  It is the benchmark's own code, so no change to the program
moves it.  Two busy processes do not slow it on the reference machine, so
the factor does not hide contention the pipeline causes itself.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

LOOP_ITERS = 2500
_rng = np.random.default_rng(0)
_KEYS = [_rng.standard_normal(75) for _ in range(512)]
_QUERY = _rng.standard_normal(75)
REF_S = 360e-6  # the kernel's time on the reference machine's fast phase
INTERVAL_S = 0.05  # CPU time between samples; the kernel costs about 1% of it
MIN_SAMPLES = 5


def kernel() -> None:
    s = 0
    for i in range(LOOP_ITERS):
        s += i * i
    dist = 1.0 - np.stack(_KEYS) @ _QUERY
    np.argsort(dist, kind="stable")


class Sampler:
    """Kernel times of one process; a forked worker starts with none."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.samples: list = []
        multiprocessing.util.register_after_fork(self, Sampler._after_fork)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        while len(self.samples) < MIN_SAMPLES:  # a short process, such as a set-up-only run
            self._tick(None, None)

    def _after_fork(self) -> None:
        self.samples.clear()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)  # timers are not inherited
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        self.stop()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / f"{os.getpid()}.json").write_text(json.dumps(self.samples))

    def pooled(self) -> list:
        """This process's samples plus those its finished workers wrote."""
        samples = list(self.samples)
        for path in sorted(self.out_dir.glob("*.json")):
            samples += json.loads(path.read_text())
        return samples


def factor(samples: list) -> float:
    """REF_S over the median kernel time: 1 at the reference speed, below 1 when slower."""
    return REF_S / statistics.median(samples)
