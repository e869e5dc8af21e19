// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Ablations of Dimmunix design choices (not a paper figure; DESIGN.md §5):
//
//  A. Stack source: deterministic annotations vs. native backtrace().
//     The paper's pthreads implementation pays backtrace() on every lock
//     request; annotations are this repo's cheaper, deterministic
//     substitute.
//  B. Monitor period τ: detection latency is bounded by τ (§3); the
//     ablation confirms throughput is insensitive to τ (all heavy work is
//     off the critical path).

#include "bench/bench_util.h"
#include "src/benchlib/synth_history.h"
#include "src/benchlib/workload.h"
#include "src/stack/annotation.h"
#include "src/stack/capture.h"

namespace dimmunix {
namespace {

WorkloadParams AblationParams(Runtime* rt) {
  WorkloadParams params;
  params.threads = 8;
  params.locks = 8;
  params.delta_in_us = 0;
  params.delta_out_us = 0;  // expose per-op engine cost
  params.duration = PointDuration();
  params.mode = WorkloadMode::kDimmunix;
  params.runtime = rt;
  return params;
}

}  // namespace
}  // namespace dimmunix

int main() {
  using namespace dimmunix;
  PrintHeader("Ablations: stack source, monitor period",
              "design-choice sensitivity; no direct paper counterpart");

  std::printf("-- A. stack capture cost per operation --\n");
  {
    const int iters = 20000;
    // Annotated capture.
    ScopedFrame f1(FrameFromName("abl_a"));
    ScopedFrame f2(FrameFromName("abl_b"));
    ScopedFrame f3(FrameFromName("abl_c"));
    MonoTime start = Now();
    std::size_t sink = 0;
    for (int i = 0; i < iters; ++i) {
      sink += CaptureStack().size();
    }
    const double annotated_ns =
        static_cast<double>(ToMicros(Now() - start)) * 1000.0 / iters;
    start = Now();
    for (int i = 0; i < iters; ++i) {
      sink += CaptureNativeStack(1).size();
    }
    const double native_ns = static_cast<double>(ToMicros(Now() - start)) * 1000.0 / iters;
    std::printf("annotated: %8.0f ns/capture | backtrace(): %8.0f ns/capture (%.1fx) "
                "[sink=%zu]\n",
                annotated_ns, native_ns, annotated_ns > 0 ? native_ns / annotated_ns : 0.0,
                sink);
  }

  std::printf("-- B. monitor period tau sensitivity (throughput should be flat) --\n");
  for (int tau_ms : {10, 50, 100, 500}) {
    Config config;
    config.monitor_period = std::chrono::milliseconds(tau_ms);
    Runtime rt(config);
    SynthHistoryParams sigs;
    sigs.signatures = 64;
    GenerateSyntheticHistory(&rt.history(), &rt.stacks(), sigs);
    rt.engine().NotifyHistoryChanged();
    const WorkloadResult result = RunWorkload(AblationParams(&rt));
    std::printf("tau=%4d ms: %12.0f ops/s\n", tau_ms, result.ops_per_sec);
  }
  return 0;
}
