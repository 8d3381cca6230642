"""Spans around the calls into each afferent layer, recorded from outside the package.

install() rebinds each layer function at the module attribute its caller looks
it up through (``afferent.env.step``, ``afferent.rollout.compute_cat``,
``afferent.memory.MemoryStore.query``, ``afferent.evolution.tell``...), so
nothing under src/ changes.  A span is (name, start, end, parent, value) with
times from the monotonic clock in ns; the run id is the process id plus the
pipeline run directory.  Spans stay in memory until the process ends.

Pool workers are forked: each starts with an empty buffer and writes its spans
and peak resident memory into the run's worker directory when it exits, so the
pipeline process can collect them.  A worker started another way leaves no
file, and its layers then show as missing in the exact call-count check.
"""

from __future__ import annotations

import functools
import importlib
import math
import multiprocessing.util
import os
import time
from pathlib import Path

import numpy as np


def _store_len(args, result):
    return len(args[0])


def _truth(args, result):
    return float(bool(result))


def _finite(args, result):
    return float(math.isfinite(result))


def _file_size(args, result):
    return os.path.getsize(args[0])


# (span name, module, attribute, value recorded with each call)
TARGETS = (
    ("env.step", "afferent.env", "step", None),
    ("env.reset", "afferent.env", "reset", None),
    ("afferents.compute_cat", "afferent.rollout", "compute_cat", None),
    ("predictive.SafeStateModel.predict", "afferent.predictive",
     "SafeStateModel.predict", None),
    ("predictive.discrepancy", "afferent.rollout", "discrepancy", None),
    ("memory.query", "afferent.memory", "MemoryStore.query", _store_len),
    ("memory.retrieve", "afferent.memory", "retrieve", None),
    ("memory.maybe_capture", "afferent.rollout", "maybe_capture", _truth),
    ("policy.sample_action_z", "afferent.rollout", "sample_action_z", None),
    ("policy.gae", "afferent.rollout", "gae", None),
    ("policy.ppo_update", "afferent.rollout", "ppo_update", None),
    ("policy.ppo_loss_and_grad", "afferent.policy", "ppo_loss_and_grad", None),
    ("nets.MLP.forward", "afferent.nets", "MLP.forward", None),
    ("nets.MLP.backward", "afferent.nets", "MLP.backward", None),
    ("nets.Adam.step", "afferent.nets", "Adam.step", None),
    ("cmaes.ask", "afferent.evolution", "ask", None),
    ("cmaes.tell", "afferent.evolution", "tell", None),
    ("evolution.evaluate_fitness", "afferent.evolution", "evaluate_fitness", _finite),
    ("rollout.rl_train", "afferent.harness", "rl_train", None),
    ("rollout.rl_train", "afferent.evolution", "rl_train", None),
    ("rollout.evaluate_policy", "afferent.harness", "evaluate_policy", None),
    ("rollout.evaluate_policy", "afferent.evolution", "evaluate_policy", None),
    ("rollout.calibrate_predictive", "afferent.harness", "calibrate_predictive", None),
    ("harness.cell", "afferent.harness", "_train_eval_cell", None),
    ("metrics.compute_metrics", "afferent.harness", "compute_metrics", None),
    ("stats.welch_test", "afferent.harness", "welch_test", None),
    ("stats.welch_test", "afferent.metrics", "welch_test", None),
) + tuple(
    ("storage.write", "afferent.harness", fn, _file_size)
    for fn in ("write_jsonl", "write_json_report", "write_csv", "save_policy",
               "save_genome", "save_safe_model")
)

# Calls recorded as zero-length marks, so their time stays in the caller's
# self time; their count depends on the data, not only on the config.
MARKS = ("memory.retrieve",)


def vm_hwm_kb() -> int:
    """Peak resident set of this process in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not found in /proc/self/status")


class Recorder:
    """Span buffer of one process; a forked worker starts with an empty one."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: list = []
        self.spans: list = []  # (name index, start ns, end ns, parent index, value)
        self.stack = [-1]
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def wrap(self, name: str, fn, value=None, mark: bool = False):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        if mark:
            @functools.wraps(fn)
            def marked(*args, **kwargs):
                now = clock()
                spans.append((nid, now, now, stack[-1], 0.0))
                return fn(*args, **kwargs)

            return marked

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                val = value(args, result) if ok and value is not None else 0.0
                spans[idx] = (nid, start, end, parent, val)

        return traced

    def _after_fork(self) -> None:
        self.spans.clear()
        del self.stack[1:]
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans and peak memory as <pid>.npz."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rows = np.array([s[:4] for s in self.spans], dtype=np.int64).reshape(-1, 4)
        np.savez(self.out_dir / f"{os.getpid()}.npz",
                 names=np.array(self.names, dtype=str), spans=rows,
                 values=np.array([s[4] for s in self.spans], dtype=float),
                 vm_hwm_kb=np.array(vm_hwm_kb()))


def install(recorder: Recorder) -> None:
    """Wrap every layer function of TARGETS that the package still has."""
    for name, module, attr, value in TARGETS:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf, None)
        if fn is not None:  # a layer that is gone shows in the call-count check
            setattr(owner, leaf, recorder.wrap(name, fn, value, mark=name in MARKS))


# ---------------------------------------------------------------------------
# Analysis


class Layer:
    """Every call of one span name, pooled over processes."""

    def __init__(self):
        self.durations = []  # ns arrays, one per process
        self.values = []
        self.self_ns = 0

    def add(self, durations, self_ns, values) -> None:
        self.durations.append(durations)
        self.values.append(values)
        self.self_ns += int(self_ns.sum())

    @property
    def calls(self) -> int:
        return sum(len(d) for d in self.durations)

    def dur(self) -> np.ndarray:
        return np.concatenate(self.durations) if self.durations else np.zeros(0)

    def vals(self) -> np.ndarray:
        return np.concatenate(self.values) if self.values else np.zeros(0)


def collect(out_dir: Path):
    """Pool the span files of a run into layers.

    Returns ({name: Layer}, {pid: process record}).  A span's self time is
    its duration minus its children's; a child outside its parent's interval
    is counted as a nesting fault.
    """
    layers: dict = {}
    procs = {}
    for path in sorted(Path(out_dir).glob("*.npz")):
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            rows, values = data["spans"], data["values"]
            hwm = int(data["vm_hwm_kb"])
        name, start, end, parent = rows.T
        dur = end - start
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_ns = np.maximum(dur - child_ns.astype(np.int64), 0)
        faults = int(np.sum((start[child] < start[parent[child]])
                            | (end[child] > end[parent[child]])))
        for i, n in enumerate(names):
            sel = name == i
            layers.setdefault(n, Layer()).add(dur[sel], self_ns[sel], values[sel])
        procs[int(path.stem)] = {
            "spans": int(len(dur)), "vm_hwm_kb": hwm, "nesting_faults": faults,
            "root_ns": int(dur[~child].sum()), "self_ns": int(self_ns.sum()),
        }
    return layers, procs


_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def layer_stat(layers: dict, metric: str, wall_s: float, jobs: int) -> float:
    """Value of one per-layer metric named <span>.<stat> for one traced run.

    Stats: calls, <unit>_p<q> (latency percentile), self_s, <unit>_total,
    plus the derived ratios named below.  A layer with no calls reads 0.
    """
    def get(span):
        return layers.get(span, Layer())

    # metric -> (span that must have calls, value)
    derived = {
        "memory.query.hit_frac": ("memory.query", lambda: (
            get("memory.retrieve").calls / get("memory.query").calls)),
        "memory.query.store_len_p50": ("memory.query", lambda: (
            np.median(get("memory.query").vals()))),
        "memory.maybe_capture.trigger_frac": ("memory.maybe_capture", lambda: (
            np.mean(get("memory.maybe_capture").vals()))),
        "evolution.evaluate_fitness.finite_frac": ("evolution.evaluate_fitness", lambda: (
            np.mean(get("evolution.evaluate_fitness").vals()))),
        "harness.cells": (None, lambda: get("harness.cell").calls),
        "harness.worker_busy_frac": (None, lambda: (
            (get("rollout.rl_train").dur().sum() + get("rollout.evaluate_policy").dur().sum())
            / 1e9 / (wall_s * jobs))),
        "storage.bytes_written": (None, lambda: get("storage.write").vals().sum()),
    }
    if metric in derived:
        span, value = derived[metric]
        return 0.0 if span is not None and get(span).calls == 0 else float(value())
    span, _, stat = metric.rpartition(".")
    layer = get(span)
    if stat == "calls":
        return layer.calls
    if layer.calls == 0:
        return 0.0
    if stat == "self_s":
        return layer.self_ns / 1e9
    unit, _, kind = stat.partition("_")
    if kind == "total":
        return float(layer.dur().sum()) / _SCALE[unit]
    if kind.startswith("p"):
        return float(np.percentile(layer.dur(), float(kind[1:]))) / _SCALE[unit]
    raise ValueError(f"unknown per-layer stat {metric!r}")
