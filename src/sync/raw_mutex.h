// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The uninstrumented mutex under every dimmunix::Mutex.
//
// It is deliberately *not* a plain std::mutex: acquisitions must be
// cancellable so that (a) the monitor can break a deadlock victim out of its
// blocked acquisition when DeadlockAction::kBreakVictim is configured, and
// (b) timed acquisitions compose with the engine's yield logic.
//
// The state is a flag guarded by an internal std::mutex, with an atomic
// copy a waiter can read without that mutex. Every blocking acquisition
// (Lock, Acquire) goes through CancellableWait (cancellable_wait.h): one
// grant attempt, then a spin of at most kSpinBudget on the atomic flag,
// then a condvar wait. An uncontended acquire is one internal lock/unlock
// with no clock read; a short contended one ends in the spin without a
// futex wake-up; only a wait that outlives the spin sleeps. The baseline
// series of the benchmarks uses the same primitive, so relative overheads
// (the quantity the paper reports) compare like with like.

#ifndef DIMMUNIX_SYNC_RAW_MUTEX_H_
#define DIMMUNIX_SYNC_RAW_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "src/common/clock.h"
#include "src/core/thread_registry.h"

namespace dimmunix {

// How a cancellable raw wait ended.
enum class WaitOutcome { kAcquired, kCanceled, kTimedOut };

class RawMutex {
 public:
  RawMutex() = default;
  RawMutex(const RawMutex&) = delete;
  RawMutex& operator=(const RawMutex&) = delete;

  // Plain blocking acquisition, not cancellable (the benchmarks' baseline).
  void Lock();

  // Acquisition that the engine's CancelAcquisition can break through
  // `slot`, bounded by `deadline` when one is given.
  WaitOutcome Acquire(ThreadSlot& slot, std::optional<MonoTime> deadline = std::nullopt);

  // Blocking Acquire; false if canceled before the lock was obtained.
  bool LockCancellable(ThreadSlot* slot) { return Acquire(*slot) == WaitOutcome::kAcquired; }

  bool TryLock();
  void Unlock();

  bool OwnedByCurrentThread() const;

 private:
  bool TryGrantLocked();

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::atomic<bool> locked_{false};  // written under m_; the spin reads it without
  std::thread::id owner_{};
};

}  // namespace dimmunix

#endif  // DIMMUNIX_SYNC_RAW_MUTEX_H_
