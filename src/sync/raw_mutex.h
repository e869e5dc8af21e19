// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The uninstrumented mutex under every dimmunix::Mutex.
//
// It is deliberately *not* a plain std::mutex: acquisitions must be
// cancellable so that (a) the monitor can break a deadlock victim out of its
// blocked acquisition when DeadlockAction::kBreakVictim is configured, and
// (b) timed acquisitions compose with the engine's yield logic. The
// implementation is a condvar-protected flag — slower than a futex fast
// path, but the benchmarks always compare against a baseline built from the
// same primitive, so relative overheads (the quantity the paper reports)
// are preserved.

#ifndef DIMMUNIX_SYNC_RAW_MUTEX_H_
#define DIMMUNIX_SYNC_RAW_MUTEX_H_

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

  // Plain blocking acquisition (used by the baseline and by CondVar).
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
  bool locked_ = false;
  std::thread::id owner_{};
};

}  // namespace dimmunix

#endif  // DIMMUNIX_SYNC_RAW_MUTEX_H_
