// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The spin phase of the raw primitives' wait (CancellableWait): one grant
// attempt, a bounded spin on the lock-free view, one more attempt, then the
// condvar wait. A scripted lock drives CancellableWait poll by poll, so a
// release or a cancel lands inside the spin deterministically; the real
// RawMutex / RawSharedMutex rows cover a stale cancel, a deadline shorter
// than the spin budget, and contended handoffs.

#include "src/sync/cancellable_wait.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/sync/raw_mutex.h"
#include "src/sync/raw_shared_mutex.h"

namespace dimmunix {
namespace {

Config TestConfig() {
  Config config;
  config.start_monitor = false;
  return config;
}

bool HostSpins() { return std::thread::hardware_concurrency() > 1; }

// A lock whose state the test scripts: `on_poll(n)` runs at the n-th spin
// poll, before the poll reads `free`.
struct ScriptedLock {
  WaitOutcome Wait(ThreadSlot* slot, std::optional<MonoTime> deadline,
                   const std::function<void(int)>& on_poll) {
    return CancellableWait(
        m, cv, slot, deadline,
        [this] {
          ++grant_attempts;
          if (!free.load()) {
            return false;
          }
          free.store(false);
          ++grants;
          return true;
        },
        [&] {
          on_poll(++polls);
          return free.load();
        });
  }

  std::mutex m;
  std::condition_variable cv;
  std::atomic<bool> free{false};
  int polls = 0;
  int grant_attempts = 0;  // under m
  int grants = 0;          // under m
};

TEST(SpinWaitTest, ReleaseDuringTheSpinIsGrantedWithoutSleeping) {
  if (!HostSpins()) {
    GTEST_SKIP() << "a 1-CPU host never spins";
  }
  Runtime rt(TestConfig());
  ThreadSlot& slot = rt.engine().registry().Slot(rt.RegisterCurrentThread());
  ScriptedLock lock;
  const WaitOutcome outcome = lock.Wait(&slot, std::nullopt, [&](int poll) {
    if (poll == 3) {
      lock.free.store(true);  // the holder lets go mid-spin
    }
  });
  EXPECT_EQ(outcome, WaitOutcome::kAcquired);
  EXPECT_EQ(lock.polls, 3) << "the spin ends at the poll that sees the release";
  EXPECT_EQ(lock.grants, 1);
  // The first attempt and the one after the spin; a sleeper would have made
  // a third.
  EXPECT_EQ(lock.grant_attempts, 2);
}

TEST(SpinWaitTest, CancelDuringTheSpinIsCanceled) {
  if (!HostSpins()) {
    GTEST_SKIP() << "a 1-CPU host never spins";
  }
  Runtime rt(TestConfig());
  const ThreadId tid = rt.RegisterCurrentThread();
  ThreadSlot& slot = rt.engine().registry().Slot(tid);
  ScriptedLock lock;
  const WaitOutcome outcome = lock.Wait(&slot, std::nullopt, [&](int poll) {
    if (poll == 3) {
      rt.engine().CancelAcquisition(tid);  // no canceler registered yet
    }
  });
  EXPECT_EQ(outcome, WaitOutcome::kCanceled);
  EXPECT_EQ(lock.polls, 3) << "the spin ends at the poll that sees the cancel";
  EXPECT_EQ(lock.grants, 0);
  EXPECT_EQ(lock.grant_attempts, 1) << "the cancel is honoured before the next attempt";
  EXPECT_FALSE(slot.acquisition_canceled.load()) << "the cancel must be consumed";
}

TEST(SpinWaitTest, DeadlineShorterThanTheBudgetStopsTheSpin) {
  Runtime rt(TestConfig());
  ThreadSlot& slot = rt.engine().registry().Slot(rt.RegisterCurrentThread());
  ScriptedLock lock;
  const MonoTime deadline = Now() + kSpinBudget / 5;
  int polls_after_deadline = 0;
  const WaitOutcome outcome = lock.Wait(&slot, deadline, [&](int) {
    polls_after_deadline += Now() > deadline ? 1 : 0;
  });
  EXPECT_EQ(outcome, WaitOutcome::kTimedOut);
  EXPECT_GE(Now(), deadline);
  // The spin reads the clock once per batch of polls, so it stops within one
  // batch of the deadline instead of running out its budget.
  EXPECT_LE(polls_after_deadline, kSpinPollsPerClockRead);
  EXPECT_EQ(lock.grants, 0);
}

// --- The real primitives --------------------------------------------------------

TEST(SpinWaitTest, StaleCancelStillCancelsTheNextAcquire) {
  ThreadSlot slot;
  RawMutex mutex;
  RawSharedMutex shared;
  slot.acquisition_canceled.store(true);
  EXPECT_EQ(mutex.Acquire(slot), WaitOutcome::kCanceled);
  EXPECT_FALSE(slot.acquisition_canceled.load());
  EXPECT_EQ(mutex.Acquire(slot), WaitOutcome::kAcquired) << "a cancel counts once";
  mutex.Unlock();

  slot.acquisition_canceled.store(true);
  EXPECT_EQ(shared.AcquireExclusive(slot), WaitOutcome::kCanceled);
  slot.acquisition_canceled.store(true);
  EXPECT_EQ(shared.AcquireShared(slot), WaitOutcome::kCanceled);
  EXPECT_FALSE(slot.acquisition_canceled.load());
  // Nothing was granted by the canceled attempts.
  EXPECT_TRUE(shared.TryLockExclusive());
  shared.UnlockExclusive();
}

TEST(SpinWaitTest, RawDeadlineShorterThanTheBudgetTimesOut) {
  ThreadSlot slot;
  RawMutex mutex;
  RawSharedMutex shared;
  ASSERT_TRUE(mutex.TryLock());
  ASSERT_TRUE(shared.TryLockExclusive());
  MonoTime deadline = Now() + kSpinBudget / 5;
  EXPECT_EQ(mutex.Acquire(slot, deadline), WaitOutcome::kTimedOut);
  EXPECT_GE(Now(), deadline);
  deadline = Now() + kSpinBudget / 5;
  EXPECT_EQ(shared.AcquireExclusive(slot, deadline), WaitOutcome::kTimedOut);
  EXPECT_GE(Now(), deadline);
  deadline = Now() + kSpinBudget / 5;
  EXPECT_EQ(shared.AcquireShared(slot, deadline), WaitOutcome::kTimedOut);
  EXPECT_GE(Now(), deadline);
  mutex.Unlock();
  shared.UnlockExclusive();
}

constexpr int kThreads = 4;
constexpr int kRounds = 2000;

TEST(SpinWaitTest, ContendedRawMutexHandoffsGrantExactlyOnce) {
  RawMutex mutex;
  int counter = 0;  // guarded by `mutex`
  std::atomic<int> inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadSlot slot;
      for (int i = 0; i < kRounds; ++i) {
        // Half the threads use the cancellable path, half the plain one.
        if (t % 2 == 0) {
          ASSERT_EQ(mutex.Acquire(slot), WaitOutcome::kAcquired);
        } else {
          mutex.Lock();
        }
        EXPECT_EQ(inside.fetch_add(1), 0);
        ++counter;
        inside.fetch_sub(1);
        mutex.Unlock();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, kThreads * kRounds);
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(SpinWaitTest, ContendedRawSharedMutexHandoffsGrantExactlyOnce) {
  RawSharedMutex shared;
  int writes = 0;  // written under the exclusive side
  std::atomic<int> writers_inside{0};
  std::atomic<int> readers_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadSlot slot;
      for (int i = 0; i < kRounds; ++i) {
        if (t % 2 == 0) {
          ASSERT_EQ(shared.AcquireExclusive(slot), WaitOutcome::kAcquired);
          EXPECT_EQ(writers_inside.fetch_add(1), 0);
          EXPECT_EQ(readers_inside.load(), 0);
          ++writes;
          writers_inside.fetch_sub(1);
          shared.UnlockExclusive();
        } else {
          ASSERT_EQ(shared.AcquireShared(slot), WaitOutcome::kAcquired);
          readers_inside.fetch_add(1);
          EXPECT_EQ(writers_inside.load(), 0);
          EXPECT_GE(writes, 0);  // a read of the writers' data under the shared side
          readers_inside.fetch_sub(1);
          shared.UnlockShared();
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(writes, (kThreads / 2) * kRounds);
  EXPECT_TRUE(shared.TryLockExclusive()) << "every hold was released";
  shared.UnlockExclusive();
}

}  // namespace
}  // namespace dimmunix
