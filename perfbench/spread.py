#!/usr/bin/env python3
"""Run one workload of the benchmark on several seeds and print, for each
metric, its median and the distance between its first and third quartiles
as a share of the median (the run-to-run spread the bounds in
BENCHMARK.json must cover).

    python3 perfbench/spread.py --workload steady-state --seeds 1 2 3 4 5

Run it from the repository root. By default it runs the command that
BENCHMARK.json names; --bin runs an already built benchmark binary instead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bin", help="benchmark binary to run instead of the command")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [a.bin] if a.bin else bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in a.seeds:
        args = ["--workload", a.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(a.trace)]
        out = subprocess.run(command + args, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {result['attempted']}", file=sys.stderr)

    for name, vs in values.items():
        med = statistics.median(vs)
        spread = 0.0
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  (over a third of its bound)"
        print(f"{name:40s} median {med:<14.6g} spread {spread:7.2%} "
              f"min {min(vs):<12.6g} max {max(vs):<12.6g}{flag}")


if __name__ == "__main__":
    main()
