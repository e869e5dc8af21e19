#!/usr/bin/env python3
"""Validate BENCH_*.json reports and enforce the bench-smoke gates.

Three layers, in order of what they catch:

  1. Structural: well-formed JSON, required keys, non-empty samples,
     nonzero throughput everywhere. Catches a dead or truncated bench.
  2. Absolute p99 budget (p99_budget_ns): the aggregate p99 of a *quick*
     report must stay under its committed budget. Quick-only because the
     budgets are calibrated against quick-mode runs on CI runners; full
     reports are covered by the scale-free layer below.
  3. Tail-ratio gate (tail_budget_ratio): every instrumented sample with
     threads <= 2*cpus must keep p99 <= budget * p50. Samples beyond
     2*cpus are reported but not gated: with more busy threads than the
     machine can run, a parked yielder's wake-to-run time is decided by
     the kernel run queue (milliseconds under EEVDF), so the sampled p99
     measures the host's scheduler, not the engine. See
     docs/performance.md ("Reading the tail numbers").

Usage:
  bench_gate.py [--tail-budget RATIO] [--quick-slack S] FILE...

  --tail-budget  Override every report's committed tail_budget_ratio.
                 CI uses this to prove the gate trips (a run that passes
                 at 10x must fail at 0.5x).
  --quick-slack  Multiplier applied to the tail budget for quick-mode
                 reports (default 2.5): 250 ms points on shared runners
                 are noisy; full-length runs get no slack.
"""

import argparse
import json
import sys

# Instrumented configurations whose tail the gate owns: fig5's `dimmunix`
# and persist's `full` / `full+persist`. Baseline samples, and the sweep
# points of fig6/fig7/fig9, are reported but never tail-gated.
GATED_LABELS = {"dimmunix", "full", "full+persist"}

REQUIRED_KEYS = ("bench", "config", "samples", "p50_ns", "p99_ns", "throughput_ops_s")


def fail(msg):
    print(f"bench_gate: FAIL: {msg}")
    return 1


def check_report(path, tail_override, quick_slack):
    with open(path) as f:
        report = json.load(f)

    errors = 0
    for key in REQUIRED_KEYS:
        if key not in report:
            return fail(f"{path}: missing key {key!r}")
    if not report["samples"]:
        return fail(f"{path}: no samples")
    if report["throughput_ops_s"] <= 0:
        errors += fail(f"{path}: zero aggregate throughput")
    for sample in report["samples"]:
        if sample["throughput_ops_s"] <= 0:
            errors += fail(f"{path}: zero-throughput sample {sample['label']!r}")

    config = report.get("config", {})
    mode = config.get("mode", "full")
    cpus = int(config.get("cpus", 0) or 0)

    # Layer 2: absolute p99 budget, quick reports only (see module docstring).
    budget_ns = report.get("p99_budget_ns")
    if budget_ns and mode == "quick" and report["p99_ns"] > budget_ns:
        errors += fail(
            f"{path}: aggregate p99 {report['p99_ns']} ns exceeds budget {budget_ns} ns"
        )

    # Layer 3: per-sample tail ratio on samples the machine can actually run.
    ratio_budget = tail_override if tail_override is not None else report.get(
        "tail_budget_ratio", 0.0
    )
    if ratio_budget:
        effective = ratio_budget * (quick_slack if mode == "quick" else 1.0)
        gated_any = False
        for sample in report["samples"]:
            if sample["label"] not in GATED_LABELS:
                continue
            ratio = sample.get("p99_p50_ratio")
            if ratio is None:
                ratio = sample["p99_ns"] / sample["p50_ns"] if sample["p50_ns"] else 0.0
            in_scope = cpus > 0 and sample["threads"] <= 2 * cpus
            verdict = "SKIP (oversubscribed)" if not in_scope else (
                "ok" if ratio <= effective else "FAIL"
            )
            print(
                f"{path}: tail {sample['label']}@{sample['threads']}t "
                f"p50={sample['p50_ns']}ns p99={sample['p99_ns']}ns "
                f"ratio={ratio:.1f} budget={effective:.1f} [{verdict}]"
            )
            if in_scope:
                gated_any = True
                if ratio > effective:
                    errors += fail(
                        f"{path}: {sample['label']}@{sample['threads']}t tail ratio "
                        f"{ratio:.1f} exceeds budget {effective:.1f} "
                        f"(cpus={cpus}, mode={mode})"
                    )
        if not gated_any:
            # A gate that silently gates nothing is worse than no gate.
            errors += fail(
                f"{path}: tail budget declared but no in-scope sample "
                f"(cpus={cpus}) — bench thread counts and runner size diverged"
            )

    if errors == 0:
        print(
            f"{path}: OK (throughput {report['throughput_ops_s']:.0f} ops/s, "
            f"p50 {report['p50_ns']} ns, p99 {report['p99_ns']} ns, mode={mode})"
        )
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tail-budget", type=float, default=None)
    parser.add_argument("--quick-slack", type=float, default=2.5)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    errors = 0
    for path in args.files:
        errors += check_report(path, args.tail_budget, args.quick_slack)
    if errors:
        print(f"bench_gate: {errors} failure(s)")
        return 1
    print("bench_gate: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
