#!/usr/bin/env python3
"""Build and run the kstable benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve_rt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the library sources it
measures) as a Release build under .bench_build/; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
run's result object. Exit status: that of the benchmark binary (0 all
outputs checked correct, 1 a check failed, 2 usage), or 3 when the build
fails or the run overruns its time limit.
"""

import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_LIMIT_S = 170


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)


def flag_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    if args == ["--selftest"]:
        return subprocess.run([str(BUILD / "perfbench_selftest")],
                              cwd=ROOT).returncode

    if flag_value(args, "--trace", "0") == "1" and "--trace-out" not in args:
        TRACES.mkdir(parents=True, exist_ok=True)
        name = (f"{flag_value(args, '--workload', 'none')}"
                f"-seed{flag_value(args, '--seed', '1')}.jsonl")
        args += ["--trace-out", str(TRACES / name)]

    try:
        done = subprocess.run([str(BUILD / "perfbench")] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
