// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Private to the raw primitives (raw_mutex.cc, raw_shared_mutex.cc).

#ifndef DIMMUNIX_SYNC_CANCELLABLE_WAIT_H_
#define DIMMUNIX_SYNC_CANCELLABLE_WAIT_H_

#include <condition_variable>
#include <mutex>
#include <optional>

#include "src/common/clock.h"
#include "src/core/thread_registry.h"
#include "src/sync/raw_mutex.h"

namespace dimmunix {

// The one wait loop under every cancellable or timed raw acquisition
// (RawMutex and both sides of RawSharedMutex). `try_grant` runs under `m`
// and takes the lock when it is free; until it does, the thread waits on
// `cv` (until `deadline`, when one is given) while the canceler registered
// in `slot` lets the engine's CancelAcquisition break it out. A deadline
// that passes gets one last grant attempt.
template <typename TryGrant>
WaitOutcome CancellableWait(std::mutex& m, std::condition_variable& cv, ThreadSlot& slot,
                            std::optional<MonoTime> deadline, TryGrant try_grant) {
  {
    std::lock_guard<std::mutex> c(slot.canceler_m);
    slot.acquisition_canceler = [&m, &cv] {
      std::lock_guard<std::mutex> guard(m);
      cv.notify_all();
    };
  }
  WaitOutcome outcome;
  {
    std::unique_lock<std::mutex> guard(m);
    for (;;) {
      if (slot.acquisition_canceled.load(std::memory_order_acquire)) {
        slot.acquisition_canceled.store(false, std::memory_order_release);
        outcome = WaitOutcome::kCanceled;
        break;
      }
      if (try_grant()) {
        outcome = WaitOutcome::kAcquired;
        break;
      }
      if (!deadline.has_value()) {
        cv.wait(guard);
      } else if (cv.wait_until(guard, *deadline) == std::cv_status::timeout) {
        outcome = try_grant() ? WaitOutcome::kAcquired : WaitOutcome::kTimedOut;
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> c(slot.canceler_m);
    slot.acquisition_canceler = nullptr;
  }
  return outcome;
}

}  // namespace dimmunix

#endif  // DIMMUNIX_SYNC_CANCELLABLE_WAIT_H_
