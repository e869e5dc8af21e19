// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Cancellation and timeout across every raw wait mode: {Mutex, SharedMutex
// exclusive, SharedMutex shared} x {blocking, timed}. The waiter is always
// parked inside the raw primitive's wait (its canceler is registered) when
// the lock is freed or the acquisition is canceled, so these rows exercise
// the sync layer's wait loop and settle step, not the engine's request loop.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>

#include "src/sync/mutex.h"
#include "src/sync/shared_mutex.h"

namespace dimmunix {
namespace {

enum class Kind { kMutex, kSharedExclusive, kSharedShared };
enum class Wait { kBlocking, kTimed };

Config TestConfig() {
  Config config;
  config.start_monitor = false;
  return config;
}

class RawWaitTest : public ::testing::TestWithParam<std::tuple<Kind, Wait>> {
 protected:
  Kind kind() const { return std::get<0>(GetParam()); }
  Wait wait() const { return std::get<1>(GetParam()); }

  // The conflicting hold: exclusive on either lock, so a waiter of every
  // kind (readers included) has to block.
  void HoldExclusively() {
    if (kind() == Kind::kMutex) {
      ASSERT_EQ(mutex_.Lock(), LockResult::kOk);
    } else {
      ASSERT_EQ(shared_.Lock(), LockResult::kOk);
    }
  }
  void ReleaseExclusive() {
    if (kind() == Kind::kMutex) {
      mutex_.Unlock();
    } else {
      shared_.Unlock();
    }
  }

  // One acquisition in the row's kind and wait mode; true when acquired. A
  // blocking acquisition may only fail as kBroken.
  bool Acquire(MonoTime deadline) {
    if (wait() == Wait::kTimed) {
      switch (kind()) {
        case Kind::kMutex:
          return mutex_.LockUntil(deadline);
        case Kind::kSharedExclusive:
          return shared_.LockUntil(deadline);
        case Kind::kSharedShared:
          return shared_.LockSharedUntil(deadline);
      }
    }
    LockResult result = LockResult::kOk;
    switch (kind()) {
      case Kind::kMutex:
        result = mutex_.Lock();
        break;
      case Kind::kSharedExclusive:
        result = shared_.Lock();
        break;
      case Kind::kSharedShared:
        result = shared_.LockShared();
        break;
    }
    EXPECT_NE(result, LockResult::kSelfDeadlock);
    return result == LockResult::kOk;
  }
  void Release() {
    switch (kind()) {
      case Kind::kMutex:
        mutex_.Unlock();
        break;
      case Kind::kSharedExclusive:
        shared_.Unlock();
        break;
      case Kind::kSharedShared:
        shared_.UnlockShared();
        break;
    }
  }

  // Starts a thread that runs one Acquire(deadline) against the held lock
  // and returns once that thread is parked in the raw wait (its canceler is
  // registered). The thread records its id, and its result in `acquired`,
  // releasing the lock again when it got it.
  std::thread StartParkedWaiter(MonoTime deadline, std::atomic<int>* acquired) {
    waiter_ = kInvalidThreadId;
    std::thread waiter([this, deadline, acquired] {
      waiter_.store(rt_.RegisterCurrentThread());
      const bool got = Acquire(deadline);
      acquired->store(got ? 1 : 0);
      if (got) {
        Release();
      }
    });
    const MonoTime give_up = Now() + std::chrono::seconds(10);
    while (!WaiterParked() && Now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(WaiterParked()) << "the waiter never blocked in the raw wait";
    return waiter;
  }

  bool WaiterParked() {
    const ThreadId tid = waiter_.load();
    if (tid == kInvalidThreadId) {
      return false;
    }
    ThreadSlot& slot = rt_.engine().registry().Slot(tid);
    std::lock_guard<std::mutex> guard(slot.canceler_m);
    return slot.acquisition_canceler != nullptr;
  }

  std::uint64_t Broken() { return rt_.engine().stats().broken_acquisitions.load(); }

  // After a failed acquisition the lock must be free for anyone, in the
  // row's own mode.
  void ExpectLockUsable() {
    std::thread probe([this] {
      EXPECT_TRUE(Acquire(Now() + std::chrono::seconds(10)));
      Release();
    });
    probe.join();
  }

  Runtime rt_{TestConfig()};
  Mutex mutex_{rt_};
  SharedMutex shared_{rt_};
  std::atomic<ThreadId> waiter_{kInvalidThreadId};
};

TEST_P(RawWaitTest, CancelBreaksTheParkedWaiter) {
  HoldExclusively();
  const std::uint64_t broken_before = Broken();
  std::atomic<int> acquired{-1};
  std::thread waiter = StartParkedWaiter(Now() + std::chrono::seconds(30), &acquired);
  rt_.engine().CancelAcquisition(waiter_.load());
  waiter.join();
  EXPECT_EQ(acquired.load(), 0) << "a canceled waiter must come back broken";
  EXPECT_EQ(Broken(), broken_before + 1);
  ThreadSlot& slot = rt_.engine().registry().Slot(waiter_.load());
  EXPECT_FALSE(slot.acquisition_canceled.load()) << "the cancel must be consumed";
  ReleaseExclusive();
  ExpectLockUsable();
}

TEST_P(RawWaitTest, WaiterAcquiresOnceTheLockIsFreed) {
  HoldExclusively();
  const std::uint64_t broken_before = Broken();
  std::atomic<int> acquired{-1};
  std::thread waiter = StartParkedWaiter(Now() + std::chrono::seconds(30), &acquired);
  ReleaseExclusive();
  waiter.join();
  EXPECT_EQ(acquired.load(), 1);
  EXPECT_EQ(Broken(), broken_before);
  ExpectLockUsable();
}

// Only a timed wait has a deadline to run out.
class TimedRawWaitTest : public RawWaitTest {};

TEST_P(TimedRawWaitTest, TimesOutWhileHeld) {
  HoldExclusively();
  const std::uint64_t broken_before = Broken();
  std::atomic<int> acquired{-1};
  const MonoTime start = Now();
  std::thread waiter([&] { acquired.store(Acquire(start + std::chrono::milliseconds(40))); });
  waiter.join();
  EXPECT_EQ(acquired.load(), 0);
  EXPECT_GE(Now() - start, std::chrono::milliseconds(35));
  EXPECT_EQ(Broken(), broken_before) << "a timeout is not a broken acquisition";
  ReleaseExclusive();
  ExpectLockUsable();
}

std::string RowName(const ::testing::TestParamInfo<RawWaitTest::ParamType>& info) {
  static const char* const kKinds[] = {"Mutex", "SharedExclusive", "SharedShared"};
  return std::string(kKinds[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) == Wait::kTimed ? "Timed" : "Blocking");
}

const auto kKinds = ::testing::Values(Kind::kMutex, Kind::kSharedExclusive, Kind::kSharedShared);

const auto kWaits = ::testing::Values(Wait::kBlocking, Wait::kTimed);
const auto kTimedOnly = ::testing::Values(Wait::kTimed);

INSTANTIATE_TEST_SUITE_P(AllWaitModes, RawWaitTest, ::testing::Combine(kKinds, kWaits), RowName);
INSTANTIATE_TEST_SUITE_P(TimedWaits, TimedRawWaitTest, ::testing::Combine(kKinds, kTimedOnly),
                         RowName);

}  // namespace
}  // namespace dimmunix
