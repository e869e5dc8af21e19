// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Regression test for the stats snapshot API: the control server reads
// counters from arbitrary threads while the engine and monitor hammer them;
// Snapshot() must never observe torn or out-of-thin-air values.

#include "src/core/stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace dimmunix {
namespace {

TEST(StatsTest, SnapshotCopiesEveryCounter) {
  EngineStats engine;
  engine.requests.store(1);
  engine.gos.store(2);
  engine.yields.store(3);
  engine.wakes.store(4);
  engine.yield_timeouts.store(5);
  engine.reentrant_acquisitions.store(6);
  engine.acquisitions.store(7);
  engine.releases.store(8);
  engine.trylock_cancels.store(9);
  engine.broken_acquisitions.store(10);
  engine.signatures_disabled.store(11);
  engine.depth_true_yields.store(12);
  engine.depth_fp_yields.store(13);
  engine.yield_sleeps.store(14);
  const EngineStatsSnapshot e = engine.Snapshot();
  EXPECT_EQ(e.requests, 1u);
  EXPECT_EQ(e.gos, 2u);
  EXPECT_EQ(e.yields, 3u);
  EXPECT_EQ(e.wakes, 4u);
  EXPECT_EQ(e.yield_timeouts, 5u);
  EXPECT_EQ(e.reentrant_acquisitions, 6u);
  EXPECT_EQ(e.acquisitions, 7u);
  EXPECT_EQ(e.releases, 8u);
  EXPECT_EQ(e.trylock_cancels, 9u);
  EXPECT_EQ(e.broken_acquisitions, 10u);
  EXPECT_EQ(e.signatures_disabled, 11u);
  EXPECT_EQ(e.depth_true_yields, 12u);
  EXPECT_EQ(e.yield_sleeps, 14u);
  EXPECT_EQ(e.depth_fp_yields, 13u);

  MonitorStats monitor;
  monitor.batches.store(21);
  monitor.events_processed.store(22);
  monitor.deadlocks_detected.store(23);
  monitor.starvations_detected.store(24);
  monitor.signatures_saved.store(25);
  monitor.starvations_broken.store(26);
  monitor.restarts_requested.store(27);
  monitor.fp_probes_opened.store(28);
  monitor.false_positives.store(29);
  monitor.true_positives.store(30);
  monitor.signatures_discarded.store(31);
  const MonitorStatsSnapshot m = monitor.Snapshot();
  EXPECT_EQ(m.batches, 21u);
  EXPECT_EQ(m.events_processed, 22u);
  EXPECT_EQ(m.deadlocks_detected, 23u);
  EXPECT_EQ(m.starvations_detected, 24u);
  EXPECT_EQ(m.signatures_saved, 25u);
  EXPECT_EQ(m.starvations_broken, 26u);
  EXPECT_EQ(m.restarts_requested, 27u);
  EXPECT_EQ(m.fp_probes_opened, 28u);
  EXPECT_EQ(m.false_positives, 29u);
  EXPECT_EQ(m.true_positives, 30u);
  EXPECT_EQ(m.signatures_discarded, 31u);
}

TEST(StatsTest, ConcurrentSnapshotsSeeOnlyWrittenValues) {
  // Writers add the same delta to two counters in lockstep; readers snapshot
  // continuously. Every observed value must be a multiple of the delta and
  // bounded by the final total — a torn 64-bit read or a non-atomic counter
  // would violate one of the two.
  constexpr std::uint64_t kDelta = 0x0101010101ULL;  // spans several bytes
  constexpr int kWriters = 4;
  constexpr int kIncrementsPerWriter = 20000;
  constexpr std::uint64_t kFinal = kDelta * kWriters * kIncrementsPerWriter;

  EngineStats stats;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const EngineStatsSnapshot snap = stats.Snapshot();
        for (const std::uint64_t v : {snap.requests, snap.acquisitions}) {
          if (v % kDelta != 0 || v > kFinal) {
            failed.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerWriter; ++i) {
        stats.requests.fetch_add(kDelta, std::memory_order_relaxed);
        stats.acquisitions.fetch_add(kDelta, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_FALSE(failed.load());
  const EngineStatsSnapshot final_snap = stats.Snapshot();
  EXPECT_EQ(final_snap.requests, kFinal);
  EXPECT_EQ(final_snap.acquisitions, kFinal);
}

}  // namespace
}  // namespace dimmunix
