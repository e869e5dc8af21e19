// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Dense per-runtime thread identities and per-thread engine state.
//
// §5.6: "we achieve O(1) lookup of thread and lock nodes, because they are
// kept in a preallocated vector ... data structures necessary for avoidance
// and detection are themselves embedded in the thread and lock nodes. For
// example, the set yieldCause containing all of a thread T's yield edges is
// directly accessible from the thread node T." ThreadSlot is that node; it
// also carries the parking lot used to implement yields (the Java version's
// per-thread yieldLock[T] object, §6).

#ifndef DIMMUNIX_CORE_THREAD_REGISTRY_H_
#define DIMMUNIX_CORE_THREAD_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/atomic_slab.h"
#include "src/common/spin_lock.h"
#include "src/event/event.h"

namespace dimmunix {

// Cache-line aligned: slab neighbours are written by other threads.
struct alignas(64) ThreadSlot {
  ThreadId id = kInvalidThreadId;
  // OS thread id at registration time — what maps an engine ThreadId onto
  // its flight-recorder trace ring (incident forensics). Written once at
  // registration, read by the monitor thread.
  std::uint64_t os_tid = 0;

  // --- Parking lot (yield implementation; §6 yieldLock[T]) -----------------
  // Wakers set wake_pending under park_m and notify park_cv; the parked
  // thread polls it without park_m during its spin (AvoidanceEngine::Park).
  std::mutex park_m;
  std::condition_variable park_cv;
  std::atomic<bool> wake_pending{false};

  // --- Avoidance state -------------------------------------------------------
  // yield_causes/yield_edge/yielding are guarded by the engine's yield-set
  // lock (they are read by releasers waking yielders and by the matcher's
  // tie-break); pending_* and held are touched only by the owning thread;
  // skip_avoidance_once is set by the monitor's starvation breaker and
  // consumed by the owner, hence atomic.
  std::vector<YieldCause> yield_causes;  // yieldCause[T]
  YieldCause yield_edge;                 // the allow edge the yield retired
  bool yielding = false;
  std::atomic<bool> skip_avoidance_once{false};  // set when starvation is broken for T
  StackId pending_stack = kInvalidStackId;  // stack captured at Request time
  LockId pending_lock = kInvalidLockId;
  // Acquire-latency span start (src/obs): stamped at Request entry, consumed
  // at Acquired/CancelRequest. Owner thread only; 0 = no span open.
  std::uint64_t acquire_begin_ns = 0;

  struct Held {
    LockId lock = kInvalidLockId;
    StackId stack = kInvalidStackId;
    int count = 0;
    // Mode this thread holds the lock in (kShared promoted to kExclusive on
    // a committed upgrade). The engine's only per-thread hold record:
    // reentrancy, upgrades, releases and HeldMode read it without a lock.
    AcquireMode mode = AcquireMode::kExclusive;
  };
  std::vector<Held> held;

  // Hot-path event staging (kAllow/kAcquired/kRelease/kCancel). The owner
  // thread appends; an uncontended allow+acquired+release triple cancels in
  // place and never reaches the monitor queue. Spin-guarded (not owner-only)
  // so the monitor can sweep the buffer of a thread that is blocked on a
  // real mutex — a deadlocked thread cannot flush its own wait edge.
  SpinLock ev_m;
  std::vector<Event> ev_buf;

  // Hazard pointer for the engine's signature-cache generation: while this
  // thread reads a generation without holding any stripe (the lock-free
  // staleness check + fast reject), it publishes the pointer here so cache
  // rebuilds do not reclaim that generation underneath it. Type-erased to
  // keep the registry independent of engine internals.
  std::atomic<const void*> sig_gen_hazard{nullptr};

  // --- Deadlock-recovery support --------------------------------------------
  // The sync layer registers a canceler while it sleeps on the underlying
  // mutex, so the monitor can break a deadlock victim out (guarded by
  // canceler_m). Before that sleep it polls acquisition_canceled itself.
  std::mutex canceler_m;
  std::function<void()> acquisition_canceler;
  std::atomic<bool> acquisition_canceled{false};
};

class ThreadRegistry {
 public:
  ThreadRegistry();
  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  // Returns the calling thread's id in this registry, registering it on
  // first use. O(1) after the first call (thread-local cache).
  ThreadId RegisterCurrentThread();

  // Lock-free: slots live inline in an append-only slab, so the lookup is
  // one acquire load plus an index. The registry sits on every
  // Request/Acquired/Release, so it must not be a serialization point.
  ThreadSlot& Slot(ThreadId id) { return *slots_.Get(static_cast<std::size_t>(id)); }
  const ThreadSlot& Slot(ThreadId id) const {
    return *slots_.Get(static_cast<std::size_t>(id));
  }

  // True when `id` names a registered thread. Monitor-side operations can
  // receive ids from stale or synthetic events and must check first.
  bool Contains(ThreadId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < slots_.size();
  }

  std::size_t size() const { return slots_.size(); }

 private:
  // Distinguishes registry instances even when a new registry reuses a
  // destroyed one's address — the thread-local id cache is keyed by this.
  const std::uint64_t uid_;
  SpinLock lock_;  // serializes registration (slab append)
  AtomicSlab<ThreadSlot> slots_;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_CORE_THREAD_REGISTRY_H_
