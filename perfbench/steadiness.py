#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread.

    python3 perfbench/steadiness.py --workload pop-1m --seeds 1-10

Spread is (Q3 - Q1) / median over the runs, quartiles as
statistics.quantiles(values, n=4) gives them; each line also shows the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not res.get("correct"):
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, 0, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{m['name']:32s} median {med:14.6g} {m['unit']:9s} "
              f"spread {spread:7.4f} bound {m['bound']}")


if __name__ == "__main__":
    main()
