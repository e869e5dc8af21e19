// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Engine-wide counters surfaced to benchmarks (yields/second in Figure 5,
// FP counts in Figure 9), to tests, and to the control plane.
//
// Engine counters are sharded across cache lines (ShardedCounter): they are
// bumped several times per instrumented lock operation from every
// application thread, and a single atomic per counter would put a contended
// cache line back on the striped hot path. Increments stay exact — each
// lands on one shard — and Snapshot()/load() folds the shards into plain
// values, so readers on other threads (notably the control server's `stats`
// command) work with one coherent copy. Monitor counters are only written
// by the monitor thread and stay plain atomics.

#ifndef DIMMUNIX_CORE_STATS_H_
#define DIMMUNIX_CORE_STATS_H_

#include <atomic>
#include <cstdint>

#include "src/common/sharded_counter.h"

namespace dimmunix {

// Plain-value copies of the counters, safe to pass across threads.
struct EngineStatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t gos = 0;
  std::uint64_t yields = 0;
  std::uint64_t wakes = 0;
  std::uint64_t yield_timeouts = 0;
  std::uint64_t yield_sleeps = 0;
  std::uint64_t reentrant_acquisitions = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t releases = 0;
  std::uint64_t trylock_cancels = 0;
  std::uint64_t broken_acquisitions = 0;
  std::uint64_t signatures_disabled = 0;
  std::uint64_t depth_true_yields = 0;
  std::uint64_t depth_fp_yields = 0;
  std::uint64_t epoch_entries = 0;
  std::uint64_t epoch_stall_ns = 0;
  std::uint64_t epoch_hold_ns = 0;
  std::uint64_t match_fast_path = 0;
  std::uint64_t match_slow_path = 0;
  std::uint64_t match_fast_retries = 0;
};

struct MonitorStatsSnapshot {
  std::uint64_t batches = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t deadlocks_detected = 0;
  std::uint64_t starvations_detected = 0;
  std::uint64_t signatures_saved = 0;
  std::uint64_t starvations_broken = 0;
  std::uint64_t restarts_requested = 0;
  std::uint64_t fp_probes_opened = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t true_positives = 0;
  std::uint64_t signatures_discarded = 0;
};

struct EngineStats {
  ShardedCounter requests;
  ShardedCounter gos;
  ShardedCounter yields;
  ShardedCounter wakes;
  ShardedCounter yield_timeouts;
  // Yields whose wake did not come within the spin budget, so the thread
  // slept on its parking-lot condvar (AvoidanceEngine::Park).
  ShardedCounter yield_sleeps;
  ShardedCounter reentrant_acquisitions;
  ShardedCounter acquisitions;
  ShardedCounter releases;
  ShardedCounter trylock_cancels;
  ShardedCounter broken_acquisitions;
  ShardedCounter signatures_disabled;
  // Figure 9 accounting: a yield whose signature cover still matches at the
  // maximum depth is a depth-true positive; one that matches only at the
  // (shallower) configured depth is a depth-false positive.
  ShardedCounter depth_true_yields;
  ShardedCounter depth_fp_yields;
  // Stop-the-stripes accounting (always on): entries into the slot epoch,
  // the total time spent waiting for every stripe lock before each entry,
  // and the total time the epoch was then held. With the incremental
  // matcher the epoch is the rare slow path, so epoch_entries staying near
  // zero under load is itself the signal that the tail fix holds; the
  // per-entry hold distribution is on the obs epoch-hold histogram and
  // bounded by AvoidanceEngine::kEpochHoldBound in debug builds.
  ShardedCounter epoch_entries;
  ShardedCounter epoch_stall_ns;
  ShardedCounter epoch_hold_ns;
  // Cover-search routing: requests decided from per-stripe snapshots without
  // entering the epoch (fast) vs. requests that fell back to the
  // stop-the-stripes search (slow), plus fast-path validation retries.
  ShardedCounter match_fast_path;
  ShardedCounter match_slow_path;
  ShardedCounter match_fast_retries;

  EngineStatsSnapshot Snapshot() const {
    EngineStatsSnapshot s;
    s.requests = requests.load(std::memory_order_relaxed);
    s.gos = gos.load(std::memory_order_relaxed);
    s.yields = yields.load(std::memory_order_relaxed);
    s.wakes = wakes.load(std::memory_order_relaxed);
    s.yield_timeouts = yield_timeouts.load(std::memory_order_relaxed);
    s.yield_sleeps = yield_sleeps.load(std::memory_order_relaxed);
    s.reentrant_acquisitions = reentrant_acquisitions.load(std::memory_order_relaxed);
    s.acquisitions = acquisitions.load(std::memory_order_relaxed);
    s.releases = releases.load(std::memory_order_relaxed);
    s.trylock_cancels = trylock_cancels.load(std::memory_order_relaxed);
    s.broken_acquisitions = broken_acquisitions.load(std::memory_order_relaxed);
    s.signatures_disabled = signatures_disabled.load(std::memory_order_relaxed);
    s.depth_true_yields = depth_true_yields.load(std::memory_order_relaxed);
    s.depth_fp_yields = depth_fp_yields.load(std::memory_order_relaxed);
    s.epoch_entries = epoch_entries.load(std::memory_order_relaxed);
    s.epoch_stall_ns = epoch_stall_ns.load(std::memory_order_relaxed);
    s.epoch_hold_ns = epoch_hold_ns.load(std::memory_order_relaxed);
    s.match_fast_path = match_fast_path.load(std::memory_order_relaxed);
    s.match_slow_path = match_slow_path.load(std::memory_order_relaxed);
    s.match_fast_retries = match_fast_retries.load(std::memory_order_relaxed);
    return s;
  }
};

struct MonitorStats {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> events_processed{0};
  std::atomic<std::uint64_t> deadlocks_detected{0};
  std::atomic<std::uint64_t> starvations_detected{0};
  std::atomic<std::uint64_t> signatures_saved{0};
  std::atomic<std::uint64_t> starvations_broken{0};
  std::atomic<std::uint64_t> restarts_requested{0};
  std::atomic<std::uint64_t> fp_probes_opened{0};
  std::atomic<std::uint64_t> false_positives{0};
  std::atomic<std::uint64_t> true_positives{0};
  // Signatures auto-disabled as obsolete after a 100%-FP recalibration (§8).
  std::atomic<std::uint64_t> signatures_discarded{0};

  MonitorStatsSnapshot Snapshot() const {
    MonitorStatsSnapshot s;
    s.batches = batches.load(std::memory_order_relaxed);
    s.events_processed = events_processed.load(std::memory_order_relaxed);
    s.deadlocks_detected = deadlocks_detected.load(std::memory_order_relaxed);
    s.starvations_detected = starvations_detected.load(std::memory_order_relaxed);
    s.signatures_saved = signatures_saved.load(std::memory_order_relaxed);
    s.starvations_broken = starvations_broken.load(std::memory_order_relaxed);
    s.restarts_requested = restarts_requested.load(std::memory_order_relaxed);
    s.fp_probes_opened = fp_probes_opened.load(std::memory_order_relaxed);
    s.false_positives = false_positives.load(std::memory_order_relaxed);
    s.true_positives = true_positives.load(std::memory_order_relaxed);
    s.signatures_discarded = signatures_discarded.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace dimmunix

#endif  // DIMMUNIX_CORE_STATS_H_
