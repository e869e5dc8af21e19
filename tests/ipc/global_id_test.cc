// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Cross-process lock identities: the same lock must hash to the same LockId
// through any fd / mapping that reaches it, different locks must not
// collide, and every global id must carry kGlobalLockBit. The per-thread
// resolution caches must be invisible: hits return exactly what the slow
// path would, and invalidation (close / munmap churn) forces a re-resolve
// instead of serving a stale identity.

#include "src/ipc/global_id.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/common/config.h"
#include "src/core/avoidance.h"
#include "src/event/event_queue.h"
#include "src/signature/history.h"
#include "src/stack/annotation.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace ipc {
namespace {

std::string TempPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("global_id_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

TEST(GlobalIdTest, FileLockIdentityIsStableAcrossDescriptors) {
  const std::string path = TempPath("file");
  const int fd1 = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd1, 0);
  const int fd2 = ::open(path.c_str(), O_RDWR);  // independent open
  ASSERT_GE(fd2, 0);

  const LockId a = GlobalIdForFileLock(fd1, GlobalLockKind::kFlock, 0);
  const LockId b = GlobalIdForFileLock(fd2, GlobalLockKind::kFlock, 0);
  EXPECT_NE(a, kInvalidLockId);
  EXPECT_EQ(a, b) << "same file through different fds must be the same lock";
  EXPECT_TRUE(IsGlobalLockId(a));

  ::close(fd1);
  ::close(fd2);
  // This binary is not preloaded, so the shim's close wrapper never runs:
  // invalidate by hand or a later test reusing these fd numbers would be
  // served this file's identity from the cache.
  InvalidateFdCache(fd1);
  InvalidateFdCache(fd2);
  std::filesystem::remove(path);
}

TEST(GlobalIdTest, OffsetsAndKindsAreDisjointNamespaces) {
  const std::string path = TempPath("kinds");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);

  const LockId flock_id = GlobalIdForFileLock(fd, GlobalLockKind::kFlock, 0);
  const LockId fcntl0 = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 0);
  const LockId fcntl8 = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 8);
  // flock and fcntl locks on one file never interact in the kernel; their
  // ids must differ even at offset 0. Distinct ranges are distinct locks.
  EXPECT_NE(flock_id, fcntl0);
  EXPECT_NE(fcntl0, fcntl8);

  // Range identity includes the length: fcntl [8, 8+16) and [8, 8+32) are
  // different kernel locks, and the whole-file lock (l_len 0, "to EOF")
  // differs from any bounded range at the same start. Equal (start, len)
  // pairs agree across independent opens.
  const LockId fcntl8_len16 = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 8, 16);
  const LockId fcntl8_len32 = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 8, 32);
  EXPECT_NE(fcntl8_len16, fcntl8_len32);
  EXPECT_NE(fcntl8, fcntl8_len16) << "to-EOF lock must not alias a bounded range";
  const int fd_again = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd_again, 0);
  EXPECT_EQ(fcntl8_len16, GlobalIdForFileLock(fd_again, GlobalLockKind::kFcntlRange, 8, 16));
  ::close(fd_again);
  InvalidateFdCache(fd_again);

  ::close(fd);
  InvalidateFdCache(fd);
  std::filesystem::remove(path);
}

TEST(GlobalIdTest, BadDescriptorYieldsInvalid) {
  EXPECT_EQ(GlobalIdForFileLock(-1, GlobalLockKind::kFlock, 0), kInvalidLockId);
}

TEST(GlobalIdTest, SharedMappingIdentityFollowsTheBackingFile) {
  const std::string path = TempPath("shm");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 8192), 0);

  // Two independent mappings of the same file: same byte => same identity,
  // regardless of virtual address.
  void* map1 = ::mmap(nullptr, 8192, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  void* map2 = ::mmap(nullptr, 8192, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(map1, MAP_FAILED);
  ASSERT_NE(map2, MAP_FAILED);
  ASSERT_NE(map1, map2);
  InvalidateMapsCache();  // the mappings postdate any cached parse

  const LockId a = GlobalIdForSharedAddress(static_cast<char*>(map1) + 128);
  const LockId b = GlobalIdForSharedAddress(static_cast<char*>(map2) + 128);
  const LockId other = GlobalIdForSharedAddress(static_cast<char*>(map1) + 256);
  EXPECT_TRUE(IsGlobalLockId(a));
  EXPECT_EQ(a, b) << "same file offset through different mappings";
  EXPECT_NE(a, other) << "different offsets are different locks";

  ::munmap(map1, 8192);
  ::munmap(map2, 8192);
  ::close(fd);
  std::filesystem::remove(path);
}

TEST(GlobalIdTest, AnonymousSharedMemoryFallsBackToAddressIdentity) {
  void* map = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  InvalidateMapsCache();
  const LockId id = GlobalIdForSharedAddress(map);
  EXPECT_TRUE(IsGlobalLockId(id));
  EXPECT_NE(id, kInvalidLockId);
  ::munmap(map, 4096);
}

TEST(GlobalIdTest, CacheHitAndMissAccounting) {
  const std::string path = TempPath("cache_stats");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  InvalidateFdCache(fd);  // clear residue from earlier tests' reuse of this number

  const GlobalIdCacheStats before = GlobalIdCacheCounters();
  const LockId first = GlobalIdForFileLock(fd, GlobalLockKind::kFlock, 0);
  const GlobalIdCacheStats after_miss = GlobalIdCacheCounters();
  const LockId second = GlobalIdForFileLock(fd, GlobalLockKind::kFlock, 0);
  const GlobalIdCacheStats after_hit = GlobalIdCacheCounters();

  EXPECT_EQ(first, second);
  EXPECT_GT(after_miss.misses, before.misses) << "first resolution must run the slow path";
  EXPECT_GT(after_hit.hits, after_miss.hits) << "repeat resolution must be a cache hit";
  EXPECT_EQ(after_hit.misses, after_miss.misses) << "a hit must not also count as a miss";

  ::close(fd);
  InvalidateFdCache(fd);
  std::filesystem::remove(path);
}

TEST(GlobalIdTest, FdCacheInvalidationPreventsStaleIdentityOnFdReuse) {
  const std::string path1 = TempPath("reuse_a");
  const std::string path2 = TempPath("reuse_b");
  const int fd = ::open(path1.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  InvalidateFdCache(fd);  // clear residue from earlier tests' reuse of this number
  // Prime the cache for this descriptor.
  const LockId id1 = GlobalIdForFileLock(fd, GlobalLockKind::kFlock, 0);
  ASSERT_EQ(id1, GlobalIdForFileLock(fd, GlobalLockKind::kFlock, 0));
  ::close(fd);
  InvalidateFdCache(fd);  // what the preload shim's close wrapper does

  // The kernel hands back the lowest free descriptor — the very number we
  // just cached. Without the generation bump, this lookup would return the
  // OLD file's identity.
  const int fd_reused = ::open(path2.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_EQ(fd_reused, fd) << "test requires the descriptor number to be reused";
  const LockId id2 = GlobalIdForFileLock(fd_reused, GlobalLockKind::kFlock, 0);
  EXPECT_NE(id2, id1) << "a reused fd must resolve to the new file";

  // Cross-check against an uncached resolution through an independent fd.
  const int fd_other = ::open(path2.c_str(), O_RDWR);
  ASSERT_GE(fd_other, 0);
  InvalidateFdCache(fd_other);
  EXPECT_EQ(id2, GlobalIdForFileLock(fd_other, GlobalLockKind::kFlock, 0));

  ::close(fd_reused);
  InvalidateFdCache(fd_reused);
  ::close(fd_other);
  InvalidateFdCache(fd_other);
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST(GlobalIdTest, AddressCacheInvalidationAfterRemap) {
  const std::string path1 = TempPath("remap_a");
  const std::string path2 = TempPath("remap_b");
  const int fd1 = ::open(path1.c_str(), O_RDWR | O_CREAT, 0644);
  const int fd2 = ::open(path2.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::ftruncate(fd1, 4096), 0);
  ASSERT_EQ(::ftruncate(fd2, 4096), 0);

  // Pin one virtual address, map file 1 there, and cache its resolution.
  void* probe = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd1, 0);
  ASSERT_NE(probe, MAP_FAILED);
  InvalidateMapsCache();
  const LockId id1 = GlobalIdForSharedAddress(probe);
  ASSERT_EQ(id1, GlobalIdForSharedAddress(probe));  // hot in the thread cache

  // Remap the SAME address to file 2 (MAP_FIXED implies the munmap). The
  // shim's munmap wrapper would call InvalidateMapsCache; do it by hand
  // here. A stale cache would keep handing out file 1's identity for an
  // address now backed by file 2 — a cross-process misidentification.
  void* remapped =
      ::mmap(probe, 4096, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED, fd2, 0);
  ASSERT_EQ(remapped, probe);
  InvalidateMapsCache();
  const LockId id2 = GlobalIdForSharedAddress(probe);
  EXPECT_NE(id2, id1) << "remapped address must resolve to the new backing file";

  // Cross-check: the same byte of file 2 through a second mapping at a
  // different address must agree with the re-resolved identity.
  void* other = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd2, 0);
  ASSERT_NE(other, MAP_FAILED);
  InvalidateMapsCache();
  EXPECT_EQ(id2, GlobalIdForSharedAddress(other));

  ::munmap(probe, 4096);
  ::munmap(other, 4096);
  InvalidateMapsCache();
  ::close(fd1);
  ::close(fd2);
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST(GlobalIdTest, SingleStripeEngineTortureWithCacheChurn) {
  // A single-stripe engine (engine_stripes = 1, the pre-striping topology)
  // hammered with global-lock cycles whose ids resolve through the
  // per-thread cache on every iteration, while a churn thread keeps
  // invalidating the maps epoch. The property under test: a cache hit or a
  // racing invalidation never yields a wrong identity, so every thread
  // always locks the same engine-level lock for the same address.
  const std::string path = TempPath("torture");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  void* map = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(map, MAP_FAILED);
  InvalidateMapsCache();

  Config config;
  config.start_monitor = false;
  config.engine_stripes = 1;
  StackTable stacks(config.max_match_depth);
  History history(&stacks);
  EventQueue queue;
  AvoidanceEngine engine(config, &stacks, &history, &queue);

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  const LockId expected = GlobalIdForSharedAddress(map);
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      InvalidateMapsCache();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ScopedFrame frame(FrameFromName("global_id::torture"));
      const ThreadId self = engine.registry().RegisterCurrentThread();
      for (int i = 0; i < kIters; ++i) {
        const LockId id = GlobalIdForSharedAddress(map);
        if (id != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (engine.Request(self, id) == RequestDecision::kGo) {
          engine.Acquired(self, id);
          engine.Release(self, id);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  EXPECT_EQ(mismatches.load(), 0) << "cache churn must never change an identity";

  ::munmap(map, 4096);
  InvalidateMapsCache();
  ::close(fd);
  std::filesystem::remove(path);
}

TEST(GlobalIdTest, OverlapQueriesAreScopedToTheFilesGroup) {
  const std::string path_a = TempPath("group_a");
  const std::string path_b = TempPath("group_b");
  const int fda = ::open(path_a.c_str(), O_RDWR | O_CREAT, 0644);
  const int fdb = ::open(path_b.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fda, 0);
  ASSERT_GE(fdb, 0);

  const LockId low_a = GlobalIdForFileLock(fda, GlobalLockKind::kFcntlRange, 0, 16);
  const LockId mid_a = GlobalIdForFileLock(fda, GlobalLockKind::kFcntlRange, 8, 24);
  const LockId far_a = GlobalIdForFileLock(fda, GlobalLockKind::kFcntlRange, 64, 8);
  // File B covers the same byte offsets — a different file must never
  // alias, even though the intervals overlap numerically.
  const LockId whole_b = GlobalIdForFileLock(fdb, GlobalLockKind::kFcntlRange, 0, 0);
  ASSERT_NE(low_a, kInvalidLockId);
  ASSERT_NE(whole_b, kInvalidLockId);

  const std::vector<LockId> over = OverlappingLockIds(LookupLockRange(low_a), low_a);
  EXPECT_NE(std::find(over.begin(), over.end(), mid_a), over.end())
      << "[0,16) and [8,32) on one file must conflict";
  EXPECT_EQ(std::find(over.begin(), over.end(), far_a), over.end())
      << "disjoint ranges must not conflict";
  EXPECT_EQ(std::find(over.begin(), over.end(), whole_b), over.end())
      << "another file's ranges are another group entirely";

  ::close(fda);
  ::close(fdb);
  InvalidateFdCache(fda);
  InvalidateFdCache(fdb);
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(GlobalIdTest, RangeRegistryIsBoundedWithLruEviction) {
  const std::string path = TempPath("range_cap");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);

  // The registry must not grow without bound when a process cycles through
  // distinct ranges (the open hole: ranges were registered forever). Flood
  // it past the cap and check the oldest entry is evicted while fresh ones
  // stay resident and still answer overlap queries.
  const LockId first = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 0, 8);
  ASSERT_NE(first, kInvalidLockId);
  ASSERT_TRUE(LookupLockRange(first).valid());

  constexpr std::uint64_t kFlood = kMaxRegisteredRanges + 64;
  LockId last = kInvalidLockId;
  for (std::uint64_t i = 1; i <= kFlood; ++i) {
    // Disjoint 8-byte ranges starting past `first`, so nothing overlaps it.
    last = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 1024 + 16 * i, 8);
    ASSERT_NE(last, kInvalidLockId);
  }
  EXPECT_FALSE(LookupLockRange(first).valid())
      << "the least-recently-touched range must have been evicted";
  ASSERT_TRUE(LookupLockRange(last).valid()) << "fresh ranges must stay resident";

  // An overlapping neighbor of the newest range is still found via its
  // group bucket.
  const LockId neighbor =
      GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 1024 + 16 * kFlood + 4, 8);
  const std::vector<LockId> over = OverlappingLockIds(LookupLockRange(neighbor), neighbor);
  EXPECT_NE(std::find(over.begin(), over.end(), last), over.end());

  // An evicted-but-live range re-registers on its next slow-path
  // resolution (the fd cache was flooded past `first`'s slot too, or the
  // caller re-resolves after close/reopen) — re-resolving restores it.
  InvalidateFdCache(fd);
  ASSERT_EQ(first, GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 0, 8));
  EXPECT_TRUE(LookupLockRange(first).valid());

  ::close(fd);
  InvalidateFdCache(fd);
  std::filesystem::remove(path);
}

TEST(GlobalIdTest, DupStyleInvalidationRetiresTheTargetDescriptor) {
  // What the shim's dup2/dup3 wrappers (and F_DUPFD result bump) enforce:
  // after a descriptor number is redirected to another file, the cached
  // identity for that number must die. This exercises the same
  // InvalidateFdCache path the wrappers call.
  const std::string path1 = TempPath("dup_a");
  const std::string path2 = TempPath("dup_b");
  const int fd1 = ::open(path1.c_str(), O_RDWR | O_CREAT, 0644);
  const int fd2 = ::open(path2.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  InvalidateFdCache(fd1);
  InvalidateFdCache(fd2);

  const LockId id1 = GlobalIdForFileLock(fd1, GlobalLockKind::kFlock, 0);
  ASSERT_EQ(id1, GlobalIdForFileLock(fd1, GlobalLockKind::kFlock, 0));  // cached

  // dup2: fd1 now refers to file 2. Without the wrapper's bump the cache
  // would keep serving file 1's identity for this number.
  ASSERT_EQ(::dup2(fd2, fd1), fd1);
  InvalidateFdCache(fd1);  // the dup2 wrapper's bump
  const LockId id_redirected = GlobalIdForFileLock(fd1, GlobalLockKind::kFlock, 0);
  EXPECT_NE(id_redirected, id1) << "redirected descriptor must resolve to the new file";
  EXPECT_EQ(id_redirected, GlobalIdForFileLock(fd2, GlobalLockKind::kFlock, 0));

  ::close(fd1);
  ::close(fd2);
  InvalidateFdCache(fd1);
  InvalidateFdCache(fd2);
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST(GlobalIdTest, ProcessIdentityFrameIsStable) {
  const Frame a = ProcessIdentityFrame();
  const Frame b = ProcessIdentityFrame();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidFrame);
}

}  // namespace
}  // namespace ipc
}  // namespace dimmunix
