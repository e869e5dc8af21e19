// Copyright (c) dimmunix-cpp authors. MIT license.
//
// SharedMutex semantics on top of the acquisition port: reader-reader
// coexistence, writer exclusion, try/timed variants, recursion, upgrade
// self-deadlock detection, and the engine's mode-aware hold records.

#include "src/sync/shared_mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace dimmunix {
namespace {

Config TestConfig() {
  Config config;
  config.start_monitor = false;
  return config;
}

TEST(SharedMutexTest, ManyConcurrentReaders) {
  Runtime rt(TestConfig());
  SharedMutex m(rt);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::latch start(4);
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      start.arrive_and_wait();
      ASSERT_EQ(m.LockShared(), LockResult::kOk);
      const int now = inside.fetch_add(1) + 1;
      int seen = max_inside.load();
      while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      inside.fetch_sub(1);
      m.UnlockShared();
    });
  }
  for (auto& reader : readers) {
    reader.join();
  }
  // All four readers overlapped in the critical section at least pairwise.
  EXPECT_GE(max_inside.load(), 2);
  EXPECT_EQ(rt.engine().stats().yields.load(), 0u);
}

TEST(SharedMutexTest, WriterExcludesReadersAndWriters) {
  Runtime rt(TestConfig());
  SharedMutex m(rt);
  ASSERT_EQ(m.Lock(), LockResult::kOk);
  EXPECT_FALSE(m.TryLockShared());  // reader blocked by the writer
  std::thread other([&] {
    EXPECT_FALSE(m.TryLock());  // second writer blocked too
  });
  other.join();
  m.Unlock();
  EXPECT_TRUE(m.TryLockShared());
  m.UnlockShared();
}

TEST(SharedMutexTest, ReadersBlockWriterUntilDrained) {
  Runtime rt(TestConfig());
  SharedMutex m(rt);
  ASSERT_EQ(m.LockShared(), LockResult::kOk);
  std::thread other([&] {
    EXPECT_FALSE(m.TryLock());                                  // reader still in
    EXPECT_FALSE(m.LockFor(std::chrono::milliseconds(30)));     // timed writer gives up
  });
  other.join();
  m.UnlockShared();
  std::thread writer([&] {
    EXPECT_TRUE(m.LockFor(std::chrono::milliseconds(200)));
    m.Unlock();
  });
  writer.join();
}

TEST(SharedMutexTest, RecursiveReadHoldsBySameThread) {
  Runtime rt(TestConfig());
  SharedMutex m(rt);
  ASSERT_EQ(m.LockShared(), LockResult::kOk);
  ASSERT_EQ(m.LockShared(), LockResult::kOk);  // rdlock is recursive
  m.UnlockShared();
  std::thread other([&] {
    EXPECT_FALSE(m.TryLock());  // one read hold remains
  });
  other.join();
  m.UnlockShared();
  std::thread writer([&] {
    EXPECT_TRUE(m.TryLock());
    m.Unlock();
  });
  writer.join();
}

TEST(SharedMutexTest, SelfUpgradeAndSelfRelockAreLoudErrors) {
  Runtime rt(TestConfig());
  SharedMutex m(rt);
  ASSERT_EQ(m.LockShared(), LockResult::kOk);
  // Upgrading while holding a read lock would block on our own hold.
  EXPECT_EQ(m.Lock(), LockResult::kSelfDeadlock);
  EXPECT_FALSE(m.TryLock());
  m.UnlockShared();
  ASSERT_EQ(m.Lock(), LockResult::kOk);
  EXPECT_EQ(m.Lock(), LockResult::kSelfDeadlock);        // writer re-lock
  EXPECT_EQ(m.LockShared(), LockResult::kSelfDeadlock);  // rdlock while writing
  m.Unlock();
}

TEST(SharedMutexTest, StdSharedLockCompatibility) {
  Runtime rt(TestConfig());
  SharedMutex m(rt);
  {
    std::shared_lock<SharedMutex> read(m);
    std::shared_lock<SharedMutex> read_again(m, std::try_to_lock);
    EXPECT_TRUE(read_again.owns_lock());
  }
  {
    std::unique_lock<SharedMutex> write(m);
    EXPECT_TRUE(write.owns_lock());
  }
}

TEST(SharedMutexTest, EngineTracksModeAwareOwnerSet) {
  Runtime rt(TestConfig());
  SharedMutex m(rt);
  const ThreadId main_tid = rt.RegisterCurrentThread();

  ASSERT_EQ(m.LockShared(), LockResult::kOk);
  EXPECT_EQ(rt.engine().SharedHolderCount(m.id()), 1u);
  EXPECT_EQ(rt.engine().LockOwner(m.id()), kInvalidThreadId);  // no exclusive owner
  std::thread reader([&] {
    ASSERT_EQ(m.LockShared(), LockResult::kOk);
    EXPECT_EQ(rt.engine().SharedHolderCount(m.id()), 2u);
    m.UnlockShared();
  });
  reader.join();
  EXPECT_EQ(rt.engine().SharedHolderCount(m.id()), 1u);
  m.UnlockShared();
  EXPECT_EQ(rt.engine().SharedHolderCount(m.id()), 0u);

  ASSERT_EQ(m.Lock(), LockResult::kOk);
  EXPECT_EQ(rt.engine().LockOwner(m.id()), main_tid);
  EXPECT_EQ(rt.engine().SharedHolderCount(m.id()), 0u);
  m.Unlock();
  EXPECT_EQ(rt.engine().LockOwner(m.id()), kInvalidThreadId);
}

}  // namespace
}  // namespace dimmunix
