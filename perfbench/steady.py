#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's quartiles.

    python3 perfbench/steady.py --workload search --seeds 1-10 --seconds 20 \
        [--trace 0|1] [--json OUT]

For every metric: the first quartile, median and third quartile of the
per-seed values (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median. This is the steadiness
test a benchmark bound is judged by, and the way a baseline is recorded.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import quartiles, spread  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    values, units, failed = {}, {}, 0
    for seed in args.seeds:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             stdout=subprocess.PIPE, check=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"] + (0 if result["correct"] else 1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, m["value"])
                                             for k, m in result["metrics"].items())), flush=True)
    summary = {}
    for name, vs in values.items():
        q1, q2, q3 = quartiles(vs)
        summary[name] = {"unit": units[name], "q1": q1, "median": q2, "q3": q3,
                         "spread": spread(vs), "values": vs}
        print("%-26s q1 %12.6g  median %12.6g  q3 %12.6g  spread %.4f %s"
              % (name, q1, q2, q3, spread(vs), units[name]))
    print("failed requests or incorrect runs: %d" % failed)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                       "metrics": summary}, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
