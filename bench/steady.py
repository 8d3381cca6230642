"""Steadiness check: run each workload over several seeds and compare spreads to bounds.

    python3 bench/steady.py --seeds 1-10 [--workloads train_full,ablate_grid]
        [--seconds 30] [--against .bench_work/steady-1.json] [--save PATH]

For each end-to-end metric it takes the distance between the first and third
quartile of the per-seed values (statistics.quantiles, n=4) as a share of
their median, and compares it with the metric's bound in BENCHMARK.json; the
target is a third of the bound (setup_s is exempt from the spread rule).
With --against it also compares this set's medians with an earlier set's:
no median may be worse by more than the bound.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--against", help="summary saved by an earlier set")
    ap.add_argument("--save", help="where to write this set's summary")
    args = ap.parse_args(argv)

    summary, ok = {}, True
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: correct={result['correct']} " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        summary[wl] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = f"  {wl} {m['name']:<16} median {med:.5g} spread {spread:.3f} bound {m['bound']}"
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                line += "  SPREAD ABOVE A THIRD OF THE BOUND"
                ok &= spread <= m["bound"]
            if wl in earlier:
                before = earlier[wl][m["name"]]["median"]
                worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                line += f"  vs earlier {before:.5g} ({worse:+.3f} worse)"
                if worse > m["bound"]:
                    line += "  WORSE THAN THE BOUND"
                    ok = False
            print(line, flush=True)
            summary[wl][m["name"]] = {"median": med, "spread": spread, "values": vals}
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
