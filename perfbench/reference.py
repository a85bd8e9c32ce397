#!/usr/bin/env python3
"""Reference figures: run.py over two sets of seeds, with machine drift.

    python3 perfbench/reference.py [--trace]

Runs every workload of BENCHMARK.json once per seed, for its run_seconds,
in a fresh process: seeds 1-10, then 11-20. For each set and each
end-to-end metric it prints the median and the spread (q3 - q1) / median,
with the quartiles of statistics.quantiles(n=4), and then how far the
second set's median lies from the first's, beside the metric's bound. The
calibration loop's median in each run (see calibrate.py) gives the
machine's drift beside the runs, so that it can be told apart from a
change in the program. With --trace it makes one traced run per workload
(seed 1) and prints the per-layer metrics. The figures are written to
perfbench/out/reference.json (reference-trace.json with --trace).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402

SEED_SETS = (range(1, 11), range(11, 21))
DRIFT = "calibration loop (ms)"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith(calibrate.REPORT_PREFIX):
            loop = json.loads(line[len(calibrate.REPORT_PREFIX):])
            result["metrics"][DRIFT] = {"value": loop["p50_ms"]}
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for wl in (w["name"] for w in spec["workloads"]):
        if args.trace:
            res = bench(wl, 1, seconds, 1)
            report[wl] = res
            print(f"== {wl} traced: correct {res['correct']}")
            for k, v in res["metrics"].items():
                print(f"  {k:42s} {v['value']:14.4f} {v.get('unit', '')}")
            continue
        sets = []
        for seeds in SEED_SETS:
            runs = []
            for seed in seeds:
                runs.append(bench(wl, seed, seconds, 0))
                print(f"  {wl} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}"
                    for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
            sets.append(runs)
        runs = [r for s in sets for r in s]
        rows = {k: [spread([r["metrics"][k]["value"] for r in s])
                    for s in sets] for k in runs[0]["metrics"]}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report[wl] = {"metrics": rows, "failed_shares": shares,
                      "correct": all(r["correct"] for r in runs),
                      "attempted": [r["attempted"] for r in runs]}
        print(f"== {wl}: seeds 1-10 and 11-20, {seconds} s each, correct "
              f"{report[wl]['correct']}, failed shares {shares}, ops "
              f"{min(report[wl]['attempted'])}-{max(report[wl]['attempted'])}")
        print(f"  {'metric':22s} {'median 1':>10s} {'spread 1':>9s} "
              f"{'median 2':>10s} {'spread 2':>9s} {'2 vs 1':>8s} bound")
        for k, ((m1, s1), (m2, s2)) in rows.items():
            print(f"  {k:22s} {m1:10.5g} {100 * s1:8.1f}% {m2:10.5g} "
                  f"{100 * s2:8.1f}% {100 * (m2 / m1 - 1):+7.1f}% "
                  f"{bounds.get(k, '')}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = "reference-trace.json" if args.trace else "reference.json"
    with open(os.path.join(HERE, "out", name), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
