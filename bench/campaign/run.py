#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs it.

    python3 bench/campaign/run.py [pfuzz_bench arguments]

Run from anywhere inside a checkout of the repository. The fuzzer and the
pfuzz_bench binary are built in Release under bench/campaign/build-release
(build output goes to stderr), then pfuzz_bench runs with the given
arguments, for example

    python3 bench/campaign/run.py --workload paper5 --seed 3 --seconds 28 --trace 0

Unless the arguments name them, results.json and the trace records are
written under bench/campaign/build-release/out. The last line on stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the
program cannot be built.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(HERE, "build-release")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the program's sources (src/) are missing; "
                 "nothing to benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "pfuzz_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "pfuzz_bench")


def flag_values(args, name):
    """Values of `--name v` and `--name=v` in args."""
    values = []
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            values.append(args[i + 1])
        elif arg.startswith(name + "="):
            values.append(arg[len(name) + 1:])
    return values


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    stem = "-".join(flag_values(args, "--workload")) or "all"
    stem += "-seed" + (flag_values(args, "--seed") or ["1"])[-1]
    trace = (flag_values(args, "--trace") or ["0"])[-1]
    if "--smoke" in args:
        stem += "-smoke"
    elif trace != "0":
        stem += "-trace"
    if not flag_values(args, "--results"):
        args += ["--results", os.path.join(out, f"results-{stem}.json")]
    # --trace=FILE names the span file; only --trace 1 and --smoke, which
    # trace without naming one, get a default next to the results.
    if trace == "1" or ("--smoke" in args and trace == "0"):
        args += ["--trace=" + os.path.join(out, f"trace-{stem}.ndjson")]
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
