// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/ipc/global_id.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/sharded_counter.h"
#include "src/common/spin_lock.h"

namespace dimmunix {
namespace ipc {
namespace {

LockId Tagged(std::uint64_t h) {
  // The hash must carry the global bit and must not collapse to an invalid
  // id once tagged.
  LockId id = h | kGlobalLockBit;
  if (id == kGlobalLockBit) {
    id |= 1;
  }
  return id;
}

std::uint64_t IdentityHash(GlobalLockKind kind, std::uint64_t dev, std::uint64_t ino,
                           std::uint64_t offset, std::uint64_t length = 0) {
  std::uint64_t h = Fnv1a64(&kind, sizeof(kind));
  h = HashCombine(h, dev);
  h = HashCombine(h, ino);
  h = HashCombine(h, offset);
  if (length != 0) {
    // Folded in only when nonzero so pre-existing flock/shared-memory ids
    // (and persisted histories containing them) keep their values.
    h = HashCombine(h, length);
  }
  return h;
}

// One MAP_SHARED region of /proc/self/maps: [start, end) backed by
// (dev, inode) at file offset pgoff.
struct SharedRegion {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t pgoff = 0;
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
};

SpinLock g_maps_lock;
std::vector<SharedRegion>* g_maps_cache = nullptr;  // sorted by start; leaked

// Parses /proc/self/maps, keeping only shared ('s') regions. Runs rarely
// (first global-mutex touch, or after a miss on a fresh mmap).
std::vector<SharedRegion> ParseSharedMaps() {
  std::vector<SharedRegion> regions;
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) {
    return regions;
  }
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    char perms[8] = {0};
    std::uint64_t pgoff = 0;
    unsigned dev_major = 0;
    unsigned dev_minor = 0;
    std::uint64_t ino = 0;
    if (std::sscanf(line, "%" SCNx64 "-%" SCNx64 " %7s %" SCNx64 " %x:%x %" SCNu64, &start,
                    &end, perms, &pgoff, &dev_major, &dev_minor, &ino) != 7) {
      continue;
    }
    if (perms[3] != 's') {
      continue;  // private mapping: cannot be a cross-process lock home
    }
    SharedRegion region;
    region.start = start;
    region.end = end;
    region.pgoff = pgoff;
    region.dev = (static_cast<std::uint64_t>(dev_major) << 32) | dev_minor;
    region.ino = ino;
    regions.push_back(region);
  }
  std::fclose(f);
  std::sort(regions.begin(), regions.end(),
            [](const SharedRegion& a, const SharedRegion& b) { return a.start < b.start; });
  return regions;
}

// Finds the region of `regions` (sorted by start) containing `addr`.
bool FindRegion(const std::vector<SharedRegion>& regions, std::uint64_t addr,
                SharedRegion* out) {
  auto it = std::upper_bound(regions.begin(), regions.end(), addr,
                             [](std::uint64_t a, const SharedRegion& r) { return a < r.start; });
  if (it != regions.begin() && addr < std::prev(it)->end) {
    *out = *std::prev(it);
    return true;
  }
  return false;
}

// Finds the cached shared region containing `addr`; nullopt-style via bool.
bool LookupRegion(std::uint64_t addr, SharedRegion* out) {
  std::lock_guard<SpinLock> guard(g_maps_lock);
  return g_maps_cache != nullptr && FindRegion(*g_maps_cache, addr, out);
}

// --- per-thread resolution cache --------------------------------------------
// Direct-mapped thread_local slabs (no locks, no sharing) validated against
// global invalidation stamps: g_maps_epoch for addresses, g_fd_gen[fd] for
// descriptors. Capacity is fixed; DIMMUNIX_ID_CACHE picks how many entries
// are actually used (rounded down to a power of two, 0 disables).

constexpr std::size_t kCacheCapacity = 256;
constexpr int kMaxCachedFd = 4096;  // descriptors past this are never cached

std::atomic<std::uint64_t> g_maps_epoch{1};
std::atomic<std::uint32_t> g_fd_gen[kMaxCachedFd];

ShardedCounter g_cache_hits;
ShardedCounter g_cache_misses;

std::size_t CacheMask() {  // entries - 1, or SIZE_MAX when disabled
  static const std::size_t mask = [] {
    std::size_t entries = 64;
    if (const char* env = std::getenv("DIMMUNIX_ID_CACHE"); env != nullptr && *env != '\0') {
      const long v = std::strtol(env, nullptr, 10);
      entries = v <= 0 ? 0 : static_cast<std::size_t>(v);
    }
    if (entries == 0) {
      return ~std::size_t{0};
    }
    entries = std::min(entries, kCacheCapacity);
    while ((entries & (entries - 1)) != 0) {
      entries &= entries - 1;  // round down to a power of two
    }
    return entries - 1;
  }();
  return mask;
}

struct AddrCacheEntry {
  const void* addr = nullptr;
  std::uint64_t epoch = 0;
  LockId id = kInvalidLockId;
};

struct FdCacheEntry {
  int fd = -1;
  std::uint8_t kind = 0;
  std::uint32_t gen = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  LockId id = kInvalidLockId;
};

thread_local AddrCacheEntry t_addr_cache[kCacheCapacity];
thread_local FdCacheEntry t_fd_cache[kCacheCapacity];

std::size_t AddrSlot(const void* addr, std::size_t mask) {
  // Locks are at least word-aligned; shift the dead bits out before mixing.
  return static_cast<std::size_t>((reinterpret_cast<std::uint64_t>(addr) >> 3) *
                                  0x9E3779B97F4A7C15ULL >>
                                  32) &
         mask;
}

std::size_t FdSlot(int fd, GlobalLockKind kind, std::uint64_t offset, std::uint64_t length,
                   std::size_t mask) {
  std::uint64_t h = HashCombine(static_cast<std::uint64_t>(fd) + 0x2545F491,
                                static_cast<std::uint64_t>(kind));
  h = HashCombine(h, offset);
  h = HashCombine(h, length);
  return static_cast<std::size_t>(h) & mask;
}

// --- fcntl range registry ---------------------------------------------------
// Bounded and group-bucketed. All ranges of one file share a group (hash of
// kind:dev:ino), so the bridge's overlap scan touches one bucket instead of
// every range ever registered — the scan runs per foreign range edge on
// every mirror tick, under the same spinlock application threads use to
// register. Memory is bounded by least-recently-touched eviction at
// kMaxRegisteredRanges: entries are touched on (re)registration and on
// LookupLockRange (the publish path), so active locks stay resident, and an
// evicted-but-live range re-registers on its next slow-path resolution
// (close() cannot evict directly — ranges key on file identity, which a
// bare descriptor number no longer has at close time).

struct RangeEntry {
  LockRange range;
  std::uint64_t stamp = 0;  // last touch, from g_range_stamp
};

SpinLock g_range_lock;
std::uint64_t g_range_stamp = 0;  // under g_range_lock
std::unordered_map<LockId, RangeEntry>* g_ranges = nullptr;                        // leaked
std::unordered_map<std::uint64_t, std::vector<LockId>>* g_range_groups = nullptr;  // leaked

void EraseRangeLocked(LockId id) {
  auto it = g_ranges->find(id);
  if (it == g_ranges->end()) {
    return;
  }
  if (auto group_it = g_range_groups->find(it->second.range.group);
      group_it != g_range_groups->end()) {
    auto& ids = group_it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) {
      g_range_groups->erase(group_it);
    }
  }
  g_ranges->erase(it);
}

void RegisterRange(LockId id, const LockRange& range) {
  std::lock_guard<SpinLock> guard(g_range_lock);
  if (g_ranges == nullptr) {
    g_ranges = new std::unordered_map<LockId, RangeEntry>();
    g_range_groups = new std::unordered_map<std::uint64_t, std::vector<LockId>>();
  }
  auto [it, inserted] = g_ranges->try_emplace(id);
  if (inserted) {
    if (g_ranges->size() > kMaxRegisteredRanges) {
      // Evict the least-recently-touched entry. The scan is O(capacity) but
      // runs only on an over-cap insert, which the fd cache makes rare.
      LockId victim = kInvalidLockId;
      std::uint64_t oldest = ~std::uint64_t{0};
      for (const auto& [rid, e] : *g_ranges) {
        if (rid != id && e.stamp < oldest) {
          oldest = e.stamp;
          victim = rid;
        }
      }
      if (victim != kInvalidLockId) {
        EraseRangeLocked(victim);
      }
    }
    (*g_range_groups)[range.group].push_back(id);
  }
  // Re-registration refreshes in place: the id is a hash of the same
  // (kind, dev, ino, start, len) tuple, so its group cannot move.
  it->second.range = range;
  it->second.stamp = ++g_range_stamp;
}

}  // namespace

LockId GlobalIdForFileLock(int fd, GlobalLockKind kind, std::uint64_t offset,
                           std::uint64_t length) {
  const std::size_t mask = CacheMask();
  const bool cacheable = mask != ~std::size_t{0} && fd >= 0 && fd < kMaxCachedFd;
  std::uint32_t gen = 0;
  FdCacheEntry* entry = nullptr;
  if (cacheable) {
    gen = g_fd_gen[fd].load(std::memory_order_acquire);
    entry = &t_fd_cache[FdSlot(fd, kind, offset, length, mask)];
    if (entry->fd == fd && entry->kind == static_cast<std::uint8_t>(kind) &&
        entry->offset == offset && entry->length == length && entry->gen == gen) {
      g_cache_hits.fetch_add(1);
      return entry->id;
    }
  }
  g_cache_misses.fetch_add(1);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return kInvalidLockId;
  }
  const std::uint64_t dev = static_cast<std::uint64_t>(st.st_dev);
  const std::uint64_t ino = static_cast<std::uint64_t>(st.st_ino);
  const LockId id = Tagged(IdentityHash(kind, dev, ino, offset, length));
  if (kind == GlobalLockKind::kFcntlRange) {
    // Record the byte range so the bridge can publish it and alias
    // overlapping foreign ranges onto this id (l_len 0 = to EOF).
    LockRange range;
    const std::uint64_t group = IdentityHash(kind, dev, ino, 0);
    range.group = group == 0 ? 1 : group;
    range.start = offset;
    range.len = length == 0 ? LockRange::kWholeFileRangeLen : length;
    RegisterRange(id, range);
  }
  if (cacheable) {
    *entry = FdCacheEntry{fd, static_cast<std::uint8_t>(kind), gen, offset, length, id};
  }
  return id;
}

LockId GlobalIdForSharedAddress(const void* addr) {
  const std::size_t mask = CacheMask();
  AddrCacheEntry* entry = nullptr;
  std::uint64_t epoch = 0;
  if (mask != ~std::size_t{0}) {
    // Stamp BEFORE resolving: an invalidation racing the slow path leaves a
    // stale-stamped entry that the next lookup rejects, never a stale id
    // that survives.
    epoch = g_maps_epoch.load(std::memory_order_acquire);
    entry = &t_addr_cache[AddrSlot(addr, mask)];
    if (entry->addr == addr && entry->epoch == epoch) {
      g_cache_hits.fetch_add(1);
      return entry->id;
    }
  }
  g_cache_misses.fetch_add(1);
  const std::uint64_t a = reinterpret_cast<std::uint64_t>(addr);
  SharedRegion region;
  if (!LookupRegion(a, &region)) {
    // Miss: the mapping may postdate the cache. Re-parse once, and resolve
    // against this parse itself: a concurrent InvalidateMapsCache can empty
    // the shared cache before a second lookup would read it, which used to
    // fall through to address identity for a file-backed mapping.
    auto fresh = ParseSharedMaps();
    if (!FindRegion(fresh, a, &region)) {
      region = SharedRegion{};  // unresolvable: fall through to address identity
    }
    std::lock_guard<SpinLock> guard(g_maps_lock);
    if (g_maps_cache == nullptr) {
      g_maps_cache = new std::vector<SharedRegion>();
    }
    *g_maps_cache = std::move(fresh);
  }
  LockId id;
  if (region.ino != 0 || region.dev != 0) {
    const std::uint64_t file_offset = region.pgoff + (a - region.start);
    id = Tagged(
        IdentityHash(GlobalLockKind::kSharedMemory, region.dev, region.ino, file_offset));
  } else {
    // Anonymous shared memory: only reachable via fork(), which preserves
    // the address — use it directly.
    id = Tagged(IdentityHash(GlobalLockKind::kSharedMemory, 0, 0, a));
  }
  if (entry != nullptr) {
    *entry = AddrCacheEntry{addr, epoch, id};
  }
  return id;
}

void InvalidateMapsCache() {
  {
    std::lock_guard<SpinLock> guard(g_maps_lock);
    if (g_maps_cache != nullptr) {
      g_maps_cache->clear();
    }
  }
  // Kill every thread's cached address resolutions too: entries carry the
  // epoch they were resolved under and are rejected once it moves.
  g_maps_epoch.fetch_add(1, std::memory_order_release);
}

void InvalidateFdCache(int fd) {
  if (fd >= 0 && fd < kMaxCachedFd) {
    g_fd_gen[fd].fetch_add(1, std::memory_order_release);
  }
}

GlobalIdCacheStats GlobalIdCacheCounters() {
  GlobalIdCacheStats stats;
  stats.hits = g_cache_hits.load();
  stats.misses = g_cache_misses.load();
  return stats;
}

LockRange LookupLockRange(LockId id) {
  std::lock_guard<SpinLock> guard(g_range_lock);
  if (g_ranges != nullptr) {
    if (auto it = g_ranges->find(id); it != g_ranges->end()) {
      it->second.stamp = ++g_range_stamp;  // publishing keeps a range resident
      return it->second.range;
    }
  }
  return LockRange{};
}

std::vector<LockId> OverlappingLockIds(const LockRange& range, LockId exclude) {
  std::vector<LockId> out;
  if (!range.valid()) {
    return out;
  }
  std::lock_guard<SpinLock> guard(g_range_lock);
  if (g_range_groups == nullptr) {
    return out;
  }
  auto group_it = g_range_groups->find(range.group);
  if (group_it == g_range_groups->end()) {
    return out;  // no local ranges on this file at all
  }
  for (const LockId id : group_it->second) {
    if (id == exclude) {
      continue;
    }
    if (auto it = g_ranges->find(id); it != g_ranges->end() &&
                                      it->second.range.Overlaps(range)) {
      out.push_back(id);
    }
  }
  return out;
}

Frame ProcessIdentityFrame() {
  static const Frame frame = [] {
    std::string tag;
    if (const char* env = std::getenv("DIMMUNIX_PROC_TAG"); env != nullptr && *env != '\0') {
      tag = env;
    } else {
      char buf[512];
      const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
      tag = n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "unknown-exe";
    }
    return FrameFromName("proc:" + tag);
  }();
  return frame;
}

}  // namespace ipc
}  // namespace dimmunix
