#!/usr/bin/env python3
"""Builds and runs the acquire-path benchmark (acqbench/acqbench.cc).

Usage, from the root of a checkout:

    python3 acqbench/run.py --workload avoid_hist512 --seed 1 --seconds 10 --trace 0

The benchmark binary is built against the repository's own libdimmunix into
.bench_build/acqbench (configured once, then an incremental build before
every run). Each run gets a fresh fixture directory under that build tree,
deleted when the run ends. With --trace 1 the sampled per-acquire spans are
also written to .bench_build/acqbench/spans/<workload>-seed<seed>.tsv.

Everything the binary prints is passed through; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build fails, the run fails or times out, or any
correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "acqbench")
EXE = os.path.join(BUILD, "acqbench")
RUN_TIMEOUT_S = 150


def build(env):
    """Configures (once) and incrementally builds the binary; logs to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "acqbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Compiler and benchmark temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(env):
        print("acqbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    fixtures = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        proc = subprocess.run(cmd + ["--tmp", fixtures], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"acqbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(fixtures, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("acqbench: the binary printed no result object", file=sys.stderr)
        return 4
    return 0 if result.get("correct") and result.get("failed") == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
