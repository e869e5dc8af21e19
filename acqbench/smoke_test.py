#!/usr/bin/env python3
"""Smoke test for the acquire-path benchmark.

Run from the root of a checkout:

    python3 acqbench/smoke_test.py

For every workload acqbench knows (the two in BENCHMARK.json plus the
ungated native_stacks), it runs a short untraced and a short traced run,
prints every metric by name and unit, and checks that:
  - the run exits 0 and its last line is a correct result with no failures;
  - the metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) lists, and every end-to-end value is
    positive;
  - the traced run's per-layer means account for the acquire latency:
    global-ID + request + block + commit, timed on the traced phase's sampled
    acquisitions, is within 15% of acquire.mean_ns, the mean lock-call
    latency its untraced phase measured with no spans;
  - each workload exercises the layer it is for.
Finally it checks that the benchmark fails, without printing a result, in a
directory holding only BENCHMARK.json and acqbench/ (no sources to build).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["avoid_hist512", "shm_global", "native_stacks"]
SECONDS = "2"
LAYER_SUM = ["ipc.global_id_ns", "core.request_ns", "sync.block_ns", "core.commit_ns"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, trace):
    cmd = [sys.executable, "acqbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    gated = {w["name"] for w in spec["workloads"]}
    check(gated <= set(WORKLOADS), "BENCHMARK.json workloads are acqbench workloads")

    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            proc = run(ROOT, workload, trace)
            for line in proc.stdout.splitlines():
                if line.startswith(("config ", "samples ", "metric ", "check ")):
                    print(f"  {tag}: {line}")
            result = result_of(proc)
            check(proc.returncode == 0, f"{tag}: exit code 0 (got {proc.returncode})")
            if result is None:
                check(False, f"{tag}: last line is a result object")
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: correct, nothing failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{tag}: metric names and units")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                check(all(v > 0 for v in values.values()), f"{tag}: end-to-end values > 0")
                continue
            layers = sum(values.get(k, 0) for k in LAYER_SUM)
            mean = values.get("acquire.mean_ns", 0)
            check(mean > 0 and abs(layers - mean) <= 0.15 * mean,
                  f"{tag}: layers {layers:.0f} ns account for acquire {mean:.0f} ns")
            if workload == "avoid_hist512":
                check(values["core.yields_per_kop"] > 0, f"{tag}: avoidance yields")
            if workload == "shm_global":
                check(values["ipc.flushes_per_kop"] > 0 and values["ipc.global_id_ns"] > 0
                      and values["ipc.id_cache_hit_frac"] > 0.95, f"{tag}: IPC layer exercised")
            if workload == "native_stacks":
                check(values["stack.capture_ns"] > 1000, f"{tag}: native unwinding")

    # No sources: the build must fail and no result may be printed.
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "acqbench"))
        proc = run(bare, "avoid_hist512", 0)
        check(proc.returncode != 0 and result_of(proc) is None,
              "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
