#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs perfbench/run.py once per seed for each workload (all workloads in
BENCHMARK.json by default) and prints, per end-to-end metric, the median and
the quartile spread (q3 - q1) / median as statistics.quantiles(n=4) gives
it, next to the metric's bound. A spread above a third of its bound is
marked; setup_s has no spread limit. With --runs 1 it prints each metric's
value instead. Exits 1 as soon as a run fails its output checks. Raw result
lines are appended to .bench_build/spread.jsonl for later comparison.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    opts = parser.parse_args()

    log = ROOT / ".bench_build" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for workload in opts.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}, "
                      "no result", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with log.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "exit": done.returncode,
                                    "result": result}) + "\n")
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}, "
                      f"correct={result['correct']}", file=sys.stderr)
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({opts.runs} seeds)")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                print(f"  {m['name']:18s} {vals[0]:12.6g} {m['unit']}")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = m["bound"] / 3
            flag = ""
            if m["name"] != "setup_s" and spread > limit:
                flag = "  <-- above bound/3"
            print(f"  {m['name']:18s} median {med:12.6g} {m['unit']:6s}"
                  f" spread {spread:7.4f}  bound {m['bound']:.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
