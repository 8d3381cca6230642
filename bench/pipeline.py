"""One pipeline run in a fresh interpreter: set up, run, check, report.

bench/run.py starts this once per run of the closed loop:

    python3 bench/pipeline.py --workload NAME --config CFG --dir RUN_DIR \
        --spawned T [--trace] [--setup-only]

T is run.py's monotonic clock just before the start, so set-up time runs
from a fresh interpreter to package imported, config loaded and inputs
written.  Wall and CPU time cover the harness call alone.  A speed.Sampler
runs from the start in this process and its pool workers; the run's speed
factor goes into the result with the raw times.  The outcome goes to
RUN_DIR/result.json; the pipeline's outputs go to RUN_DIR/out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed


def _cpu_s() -> float:
    """User + sys time of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _speed(samples: list) -> dict:
    return {"speed": speed.factor(samples), "speed_samples": len(samples),
            "kernel_us_p50": statistics.median(samples) * 1e6}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    run_dir = Path(args.dir)
    sampler = speed.Sampler(run_dir / "speed")
    sampler.start()

    from afferent import config, harness

    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    cfg = config.load_config(args.config)
    load_config_ms = (time.perf_counter() - t0) * 1e3
    cfg = config.apply_cli_overrides(cfg, out=str(run_dir / "out"))
    if wl.prepare is not None:
        wl.prepare(cfg)
    setup_s = time.monotonic() - args.spawned

    result = {"setup_s": setup_s, "load_config_ms": load_config_ms,
              "package": harness.__file__}
    if args.setup_only:
        sampler.stop()
        result.update(_speed(sampler.pooled()))
        (run_dir / "result.json").write_text(json.dumps(result))
        return 0

    span_dir = run_dir / "spans"
    recorder = spans.Recorder(span_dir)
    entry = getattr(harness, wl.entry)
    root = f"harness.{wl.entry}"
    if args.trace:
        spans.install(recorder)
        entry = recorder.wrap(root, entry)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        entry(cfg)
        error = None
    except Exception:
        error = traceback.format_exc(limit=4)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    sampler.stop()
    recorder.flush()

    layers, procs = spans.collect(span_dir)
    out = Path(cfg.out)
    problems = [] if error else wl.check(cfg, out)
    result.update(
        wall_s=wall_s, cpu_s=cpu_s, env_steps=wl.env_steps(cfg),
        peak_rss_mb=sum(p["vm_hwm_kb"] for p in procs.values()) / 1024.0,
        processes=len(procs), error=error, problems=problems,
        digest=None if error else workloads.tree_digest(out),
        **_speed(sampler.pooled()),
    )
    if args.trace:
        expected = wl.counts(cfg)
        expected[root] = 1
        names = ({name for name, *_ in spans.TARGETS} | {root}) - set(spans.MARKS)
        traced = {n: layers[n].calls if n in layers else 0 for n in sorted(names)}
        result["count_mismatch"] = {
            n: {"expected": expected.get(n, 0), "traced": c}
            for n, c in traced.items() if c != expected.get(n, 0)
        }
        main_proc = procs[os.getpid()]
        # Self times of every span plus the time outside the root span close
        # on the measured wall; a negative self time or misnested span breaks it.
        remainder_ns = wall_s * 1e9 - main_proc["root_ns"]
        result["closure_err"] = abs(main_proc["self_ns"] + remainder_ns - wall_s * 1e9) / (
            wall_s * 1e9)
        result["nesting_faults"] = sum(p["nesting_faults"] for p in procs.values())
        # trace.* come from run.py, which sees traced and untraced runs.
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        result["layers"] = {
            m["name"]: spans.layer_stat(layers, m["name"], wall_s, cfg.jobs)
            for m in spec["per_layer"] if not m["name"].startswith(("trace.", "config."))
        }
        result["layers"]["config.load_config.ms"] = load_config_ms
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
