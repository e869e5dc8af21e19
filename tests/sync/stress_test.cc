// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Stress: mixed Lock/TryLock/LockFor/CondVar traffic over many mutexes with
// the monitor running. Checks conservation invariants (acquisitions ==
// releases, no residual owners, no yields without signatures) and that the
// whole engine holds up under schedule churn.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "src/stack/annotation.h"
#include "src/sync/cond_var.h"
#include "src/sync/mutex.h"

namespace dimmunix {
namespace {

TEST(SyncStressTest, MixedOperationsConserveState) {
  Config config;
  config.monitor_period = std::chrono::milliseconds(10);
  Runtime rt(config);
  constexpr int kLocks = 6;
  constexpr int kThreads = 6;
  constexpr int kIters = 400;
  std::vector<std::unique_ptr<Mutex>> locks;
  for (int i = 0; i < kLocks; ++i) {
    locks.push_back(std::make_unique<Mutex>(rt));
  }
  std::atomic<long> critical_sections{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 51u + 17u);
      for (int i = 0; i < kIters; ++i) {
        ScopedFrame frame(FrameFromName("stress_" + std::to_string(rng() % 3)));
        Mutex& m = *locks[rng() % kLocks];
        const unsigned op = rng() % 3;
        if (op == 0) {
          if (m.Lock() == LockResult::kOk) {
            critical_sections.fetch_add(1);
            m.Unlock();
          }
        } else if (op == 1) {
          if (m.TryLock()) {
            critical_sections.fetch_add(1);
            m.Unlock();
          }
        } else {
          if (m.LockFor(std::chrono::milliseconds(5))) {
            critical_sections.fetch_add(1);
            m.Unlock();
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  rt.monitor().RunOnce();
  const auto& stats = rt.engine().stats();
  EXPECT_EQ(stats.acquisitions.load(), stats.releases.load());
  EXPECT_EQ(stats.acquisitions.load(), static_cast<std::uint64_t>(critical_sections.load()));
  for (const auto& lock : locks) {
    EXPECT_EQ(rt.engine().LockOwner(lock->id()), kInvalidThreadId);
  }
  EXPECT_EQ(rt.history().size(), 0u);  // single-lock sections cannot deadlock
  EXPECT_EQ(stats.yields.load(), 0u);
}

TEST(SyncStressTest, CondVarPipelineUnderImmunizedLocks) {
  Config config;
  config.monitor_period = std::chrono::milliseconds(10);
  Runtime rt(config);
  Mutex m(rt);
  CondVar cv;
  std::vector<int> queue;
  bool done = false;
  constexpr int kItems = 500;

  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      (void)m.Lock();
      queue.push_back(i);
      m.Unlock();
      cv.NotifyOne();
    }
    (void)m.Lock();
    done = true;
    m.Unlock();
    cv.NotifyAll();
  });
  long consumed = 0;
  std::thread consumer([&] {
    for (;;) {
      (void)m.Lock();
      cv.Wait(m, [&] { return !queue.empty() || done; });
      while (!queue.empty()) {
        queue.pop_back();
        ++consumed;
      }
      const bool finished = done;
      m.Unlock();
      if (finished) {
        break;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed, kItems);
  EXPECT_EQ(rt.engine().stats().acquisitions.load(), rt.engine().stats().releases.load());
}

TEST(SyncStressTest, ManyShortLivedMutexes) {
  // Lock identities are addresses; rapid create/destroy cycles must not
  // confuse the engine's hold records (each is erased on final release).
  Config config;
  config.start_monitor = false;
  Runtime rt(config);
  for (int round = 0; round < 200; ++round) {
    Mutex m(rt);
    ASSERT_EQ(m.Lock(), LockResult::kOk);
    m.Unlock();
  }
  EXPECT_EQ(rt.engine().stats().acquisitions.load(), 200u);
  EXPECT_EQ(rt.engine().stats().releases.load(), 200u);
}

}  // namespace
}  // namespace dimmunix
