"""Benchmark entry point: one afferent pipeline workload in a closed loop.

    python3 bench/run.py --workload train_full --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  One client runs the pipeline to completion in a fresh
process, then starts the next, until --seconds have passed.  Each run's
outputs are checked and digested; every run of one invocation must give the
same digest.  Every time is scaled by its run's speed factor (speed.py), so
it reads as seconds at the reference core speed; the raw medians are printed
above the result.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 untraced and traced runs alternate, and it holds the
per-layer metrics of the traced runs plus the tracing overhead.  Metric names
and units come from BENCHMARK.json at the checkout root.  Everything written
stays under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
RUN_TIMEOUT_S = 150
MIN_SETUPS = 5  # set-up samples per invocation; extra set-up-only runs fill up
CLOSURE_BOUND = 0.01  # self times plus remainder must close on the traced wall


def run_pipeline(workload: str, cfg_path: Path, run_dir: Path, *,
                 trace: bool = False, setup_only: bool = False) -> dict:
    """Start one pipeline process, wait for it and its group, return its result."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "pipeline.py"), "--workload", workload,
           "--config", str(cfg_path), "--dir", str(run_dir), "--spawned", repr(spawned)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = f"timed out after {RUN_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers left by a crash
        except ProcessLookupError:
            pass
        proc.wait()
    result_path = run_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads(result_path.read_text())


def failure(run: dict, digest: str | None) -> str | None:
    """Why a run counts as failed, or None."""
    if run.get("error"):
        return run["error"].strip().splitlines()[-1]
    if run["problems"]:
        return "; ".join(run["problems"])
    if digest is not None and run["digest"] != digest:
        return f"digest {run['digest'][:12]} differs from {digest[:12]}"
    if run.get("count_mismatch"):
        return f"call counts differ from the config: {run['count_mismatch']}"
    if run.get("nesting_faults"):
        return f"{run['nesting_faults']} misnested spans"
    if run.get("closure_err", 0.0) > CLOSURE_BOUND:
        return f"self times miss the traced wall by {run['closure_err']:.2%}"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # older numpy has no dict form
        blas = f"unknown ({exc.__class__.__name__})"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "jobs": workloads.JOBS,
        "speed_kernel": {"ref_us": speed.REF_S * 1e6,
                         "interval_s": speed.INTERVAL_S},
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="afferent pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "afferent" / "__init__.py").is_file():
        print(f"bench: no afferent package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]

    run_root = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_root, ignore_errors=True)
    inputs = run_root / "inputs"
    inputs.mkdir(parents=True)
    cfg_path = inputs / "exp.cfg"
    cfg_path.write_text(wl.config(args.seed, inputs))
    machine = machine_record()

    # Warm-up: byte-compiles the package and fills the file cache; not counted.
    warm = run_pipeline(args.workload, cfg_path, run_root / "warmup", setup_only=True)
    if warm.get("error"):
        print(f"bench: set-up failed: {warm['error']}", file=sys.stderr)
        return 1

    # Closed loop: start another run only if a typical run still fits.
    runs, took = [], []
    start = time.monotonic()
    while len(runs) < 1 + args.trace or (
            time.monotonic() - start + statistics.median(took) <= args.seconds):
        traced = bool(args.trace) and len(runs) % 2 == 1
        t0 = time.monotonic()
        run = run_pipeline(args.workload, cfg_path, run_root / f"run{len(runs):03d}",
                           trace=traced)
        took.append(time.monotonic() - t0)
        run["traced"] = traced
        runs.append(run)
    measured_s = time.monotonic() - start
    setups = [r for r in runs if "setup_s" in r]
    while len(setups) < MIN_SETUPS:
        extra = run_pipeline(args.workload, cfg_path,
                             run_root / f"setup{len(setups):03d}", setup_only=True)
        if extra.get("error"):
            break
        setups.append(extra)

    digest = next((r["digest"] for r in runs if r.get("digest")), None)
    for r in runs:
        r["failure"] = failure(r, digest)
    attempted, failed = len(runs), sum(r["failure"] is not None for r in runs)
    def timed(kind: bool) -> list:
        """Finished runs of one kind that passed, or all of them if none did."""
        done = [r for r in runs if "wall_s" in r and r["traced"] == kind]
        return [r for r in done if r["failure"] is None] or done

    untraced, traced = timed(False), timed(True)
    if not untraced or (args.trace and not traced):
        print(f"bench: no run completed: {runs[0].get('error')}", file=sys.stderr)
        return 1

    lines = [f"workload {args.workload} seed {args.seed}: {len(runs)} runs in "
             f"{measured_s:.1f} s (closed loop, 1 client)",
             "machine " + json.dumps(machine, sort_keys=True)]

    def scaled(key: str, rs: list) -> list:
        return [r[key] * r["speed"] for r in rs]

    raw = {"wall_s": [r["wall_s"] for r in untraced], "cpu_s": [r["cpu_s"] for r in untraced],
           "setup_s": [r["setup_s"] for r in setups]}
    lines.append("raw (unscaled) medians: " + ", ".join(
        f"{k} {statistics.median(v):.4g}" for k, v in raw.items())
        + f"; speed factor median {statistics.median(r['speed'] for r in untraced):.3f}"
        f" (kernel {statistics.median(r['kernel_us_p50'] for r in untraced):.0f} us"
        f" against {speed.REF_S * 1e6:.0f} us at the reference speed)")
    if args.trace:
        wanted = spec["per_layer"]
        series = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        series["trace.overhead"] = [statistics.median(scaled("wall_s", traced))
                                    / statistics.median(scaled("wall_s", untraced))]
        series["trace.closure_err"] = [max(r["closure_err"] for r in traced)]
        lines.append(f"tracing overhead {series['trace.overhead'][0]:.3f} (median traced / "
                     f"untraced wall over {len(traced)} + {len(untraced)} runs); closure "
                     f"error {series['trace.closure_err'][0]:.2e}, bound {CLOSURE_BOUND}")
        # Fitness candidates scored -inf count as failed operations.
        for r in traced:
            calls = r["layers"]["evolution.evaluate_fitness.calls"]
            attempted += calls
            failed += round(calls * (1.0 - r["layers"]["evolution.evaluate_fitness.finite_frac"]))
    else:
        wanted = spec["end_to_end"]
        series = {
            "wall_s": scaled("wall_s", untraced),
            "env_steps_per_s": [r["env_steps"] / (r["wall_s"] * r["speed"]) for r in untraced],
            "cpu_s": scaled("cpu_s", untraced),
            "setup_s": scaled("setup_s", setups),
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }

    metrics = {}
    for m in wanted:
        values = series[m["name"]]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        q1, q3 = quartiles(values)
        lines.append(f"  {m['name']:<44} {metrics[m['name']]['value']:14.6g} "
                     f"{m['unit']:<8} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}, "
                     f"{m['better']} is better)")
    lines.append(f"ops_failed_frac {failed / attempted:.4g} ({failed} failed of "
                 f"{attempted} attempted)")
    same = len({r.get("digest") for r in runs}) == 1
    lines.append(f"out-tree digest {digest} "
                 f"({'identical' if same else 'DIFFERS'} across {len(runs)} runs)")
    lines += [f"  run {i}: {r['failure']}" for i, r in enumerate(runs) if r["failure"]]

    # Keep the outputs and spans of the last two runs only.
    for run_dir in sorted(run_root.glob("run*"))[:-2]:
        for sub in ("out", "spans", "speed"):
            shutil.rmtree(run_dir / sub, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine, "digest": digest,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "setup_samples": scaled("setup_s", setups), "runs": runs}
    (run_root / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
