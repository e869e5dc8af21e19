// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Stable cross-process lock identities (the "global" LockId space of
// src/core/global_port.h).
//
// A global lock must have the same LockId in every participating process,
// across address-space layouts and re-runs within one boot:
//
//   - file locks (flock(2), fcntl(F_SETLK*)): identity is the locked file's
//     (st_dev, st_ino) plus the locked range — byte offset and length (0/0
//     for flock, l_start/l_len for fcntl; l_len 0 = "to EOF") — and a kind
//     tag separating the two lock namespaces the kernel keeps disjoint;
//
//   - process-shared mutexes/rwlocks living in MAP_SHARED memory: identity
//     is the backing object of the mapping containing the address — (dev,
//     inode) from /proc/self/maps — plus the offset of the lock within the
//     file. Anonymous shared mappings (MAP_ANONYMOUS | MAP_SHARED, dev 0:0
//     inode 0) have no file identity, but are only shareable through
//     fork(), which preserves addresses — the virtual address itself is the
//     identity there.
//
// Resolution is cached at two levels. The /proc/self/maps parse is cached
// process-wide; a lookup miss (fresh mmap) triggers one re-parse. On top of
// that, each thread keeps a small direct-mapped slab (64 entries) of
// finished resolutions — address -> id and
// (fd, kind, range) -> id — so the steady state costs a few loads instead
// of a spinlock + binary search (addresses) or an fstat syscall (fds).
// Entries are stamped: the address cache against a global maps epoch
// (bumped by InvalidateMapsCache, which the preload shim calls from its
// munmap wrapper), the fd cache against a per-fd generation (bumped by
// InvalidateFdCache, called from the shim's close wrapper) — so mmap churn
// and fd reuse re-resolve instead of returning a stale identity. All of
// this is off the local-lock fast path: only adapters that already
// classified a lock as global call in here.

#ifndef DIMMUNIX_IPC_GLOBAL_ID_H_
#define DIMMUNIX_IPC_GLOBAL_ID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/global_port.h"

namespace dimmunix {
namespace ipc {

// Disjoint lock namespaces that must never collide even on equal
// (dev, inode, offset) triples.
enum class GlobalLockKind : std::uint8_t {
  kFlock = 1,      // flock(2) — whole-file, per-open-file-description
  kFcntlRange = 2, // fcntl(F_SETLK*) POSIX record locks — per (file, range)
  kSharedMemory = 3,  // pthread objects in MAP_SHARED memory
};

// Identity of a file lock on the open file `fd`. Returns kInvalidLockId if
// fstat fails. The result has kGlobalLockBit set. `length` distinguishes
// fcntl ranges sharing a start: [0,100) and [0,10) are different kernel
// locks and must not alias one LockId (flock callers leave it 0).
LockId GlobalIdForFileLock(int fd, GlobalLockKind kind, std::uint64_t offset,
                           std::uint64_t length = 0);

// Identity of a process-shared pthread object at `addr`: resolves the
// MAP_SHARED mapping containing the address via the (cached) maps table.
// Falls back to the raw address (fork-shared anonymous memory) when the
// mapping is anonymous or cannot be resolved. Has kGlobalLockBit set.
LockId GlobalIdForSharedAddress(const void* addr);

// Drops the cached /proc/self/maps table and advances the maps epoch, so
// every thread's cached address resolutions die too. Call after any munmap
// of (potentially) shared memory — the shim's munmap wrapper does — and
// after fork. Cheap enough to call unconditionally.
void InvalidateMapsCache();

// Kills cached (fd, ...) resolutions for one descriptor. Call on close(fd)
// — the shim's close wrapper does — so a reused descriptor re-resolves.
void InvalidateFdCache(int fd);

// Cumulative per-thread-cache accounting, folded across threads. A miss is
// any resolution that had to run the slow path (spinlock/maps walk/fstat).
struct GlobalIdCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
GlobalIdCacheStats GlobalIdCacheCounters();

// --- fcntl range registry ---------------------------------------------------
// Every fcntl-range resolution records its byte range here (process-wide,
// keyed by the resulting LockId), so the bridge can publish ranges into the
// arena and alias overlapping foreign ranges onto local ids. `l_len == 0`
// (to EOF) is stored as LockRange::kWholeFileRangeLen. The registry is
// bucketed by range group (one bucket per file) so overlap queries scan
// only that file's ranges, and bounded at kMaxRegisteredRanges entries with
// least-recently-touched eviction (touch = registration or LookupLockRange)
// so a process cycling through distinct ranges cannot grow it without
// bound. An evicted range re-registers on its next slow-path resolution.

inline constexpr std::size_t kMaxRegisteredRanges = 4096;

// The registered range of `id`, or an invalid (group 0) range for ids that
// are not fcntl ranges.
LockRange LookupLockRange(LockId id);

// Locally-registered lock ids (excluding `exclude`) whose range overlaps
// `range`. Used by the bridge to mirror a foreign range edge under every
// local id it would conflict with in the kernel.
std::vector<LockId> OverlappingLockIds(const LockRange& range, LockId exclude);

// Stable identity of this process for proc-qualifying signature stacks:
// DIMMUNIX_PROC_TAG when set, otherwise the resolved /proc/self/exe path.
// Same binary (or same tag) => same frame in every run, so fork-based
// fleets keep fully portable signatures.
Frame ProcessIdentityFrame();

}  // namespace ipc
}  // namespace dimmunix

#endif  // DIMMUNIX_IPC_GLOBAL_ID_H_
