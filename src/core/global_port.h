// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The global-lock port: how the avoidance engine talks about locks whose
// identity and contention cross process boundaries (PTHREAD_PROCESS_SHARED
// mutexes in shm segments, flock(2)/fcntl(F_SETLKW) file locks).
//
// A LockId with kGlobalLockBit set names a *global* lock: its value is a
// stable cross-process identity hash (dev:inode:offset for file locks,
// backing-object:offset for shared mutexes — see src/ipc/global_id.h), so
// every participating process uses the same id for the same lock. Local
// locks are object addresses or small synthetic ids; on Linux user-space
// addresses never have bit 63 set, so the two spaces cannot collide.
//
// When a GlobalEdgePublisher is registered (src/ipc wires the shared-memory
// arena in), the engine
//   - prepends ProcFrame() — a stable process-identity frame — to the
//     captured stack of every global-lock request, making cross-process
//     signature tuples proc-qualified, and
//   - publishes wait/hold edge transitions for global locks so other
//     processes can fold them into their RAGs.
// Both happen only behind an IsGlobalLockId() branch: the single-process
// fast path stays untouched.
//
// Foreign threads mirrored from other processes get synthetic ThreadIds at
// kForeignThreadBase and above. They are never registered in the
// ThreadRegistry (Contains() is false), so monitor-side recovery paths
// no-op on them by construction.

#ifndef DIMMUNIX_CORE_GLOBAL_PORT_H_
#define DIMMUNIX_CORE_GLOBAL_PORT_H_

#include "src/event/event.h"
#include "src/stack/frame.h"

namespace dimmunix {

constexpr LockId kGlobalLockBit = 1ULL << 63;

inline bool IsGlobalLockId(LockId id) { return (id & kGlobalLockBit) != 0; }

// First synthetic id for threads mirrored from other processes. Dense local
// ids are registry indices (a few thousand at most), so the spaces are
// disjoint in practice; the engine never indexes the registry with an id at
// or above this base.
constexpr ThreadId kForeignThreadBase = 1 << 24;

inline bool IsForeignThreadId(ThreadId id) { return id >= kForeignThreadBase; }

// The byte range covered by an fcntl(2) record lock, attached to its arena
// edges so overlapping-but-distinct ranges can be made to conflict in the
// RAG the way they conflict in the kernel. `group` identifies the file
// (a hash of dev:inode) — ranges only interact within one group; group 0
// means "not a range lock". `len == kWholeFileRangeLen` covers to EOF
// (fcntl's l_len == 0) and overlaps everything at or past `start`.
struct LockRange {
  std::uint64_t group = 0;
  std::uint64_t start = 0;
  std::uint64_t len = 0;

  static constexpr std::uint64_t kWholeFileRangeLen = ~0ULL;

  bool valid() const { return group != 0; }
  bool Overlaps(const LockRange& other) const {
    if (group == 0 || group != other.group) {
      return false;
    }
    // [start, start+len) vs [other.start, other.start+other.len), with
    // saturating ends so to-EOF ranges behave as unbounded.
    const std::uint64_t end = len > ~0ULL - start ? ~0ULL : start + len;
    const std::uint64_t other_end =
        other.len > ~0ULL - other.start ? ~0ULL : other.start + other.len;
    return start < other_end && other.start < end;
  }
};

// Publisher side of the arena, as seen by the engine. Implemented by
// ipc::IpcBridge; every method must be cheap and lock-light — Publish/Clear
// run on the application thread that touched the global lock (never for
// local locks).
class GlobalEdgePublisher {
 public:
  virtual ~GlobalEdgePublisher() = default;

  // Stable identity frame of this process (DIMMUNIX_PROC_TAG or the
  // executable path), prepended to global-lock stacks at capture time.
  virtual Frame ProcFrame() const = 0;

  // The calling thread wants `lock` (request/allow edge standing).
  virtual void PublishWait(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) = 0;
  // The wait ended without an acquisition (cancel, broken, timed out).
  virtual void ClearWait(ThreadId thread, LockId lock) = 0;
  // The calling thread holds `lock` (reentrant holds bump a count).
  virtual void PublishHold(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) = 0;
  // Final release of this thread's hold (count reaching zero clears it).
  virtual void ClearHold(ThreadId thread, LockId lock) = 0;

  // Drains any deferred edge publications to the arena NOW. The engine
  // calls this right before parking a thread: local contention means our
  // pending edges may be part of a cross-process cycle, so they must stop
  // hiding in the batch.
  virtual void FlushPending() = 0;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_CORE_GLOBAL_PORT_H_
