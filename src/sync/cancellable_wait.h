// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Private to the raw primitives (raw_mutex.cc, raw_shared_mutex.cc) and to
// tests/sync/spin_wait_test.cc, which drives its phases directly.

#ifndef DIMMUNIX_SYNC_CANCELLABLE_WAIT_H_
#define DIMMUNIX_SYNC_CANCELLABLE_WAIT_H_

#include <condition_variable>
#include <mutex>
#include <optional>

#include "src/common/clock.h"
#include "src/core/thread_registry.h"
#include "src/sync/raw_mutex.h"

namespace dimmunix {

// The one wait under every blocking raw acquisition (RawMutex and both
// sides of RawSharedMutex). `try_grant` runs under `m` and takes the lock
// when it is free; `grantable` is its lock-free hint, read from atomic
// copies of the lock state that are written under `m`.
//
// Three phases, each entered only when the one before it failed:
//   1. one grant attempt under `m` — the uncontended acquire reads no clock
//      and registers nothing;
//   2. a bounded spin (SpinUntil) on `grantable`, then one more attempt;
//   3. the condvar wait: the canceler registered in `slot` lets the engine's
//      CancelAcquisition break it out, and a deadline that passes gets one
//      last grant attempt.
// A cancellation pending in `slot` (or raised during the spin) is honoured
// before every grant attempt. Without a slot (`Lock`), nothing cancels.
template <typename TryGrant, typename Grantable>
WaitOutcome CancellableWait(std::mutex& m, std::condition_variable& cv, ThreadSlot* slot,
                            std::optional<MonoTime> deadline, TryGrant try_grant,
                            Grantable grantable) {
  const auto take_cancel = [slot] {
    if (slot == nullptr || !slot->acquisition_canceled.load(std::memory_order_acquire)) {
      return false;
    }
    slot->acquisition_canceled.store(false, std::memory_order_release);
    return true;
  };
  const auto attempt = [&]() -> std::optional<WaitOutcome> {
    if (take_cancel()) {
      return WaitOutcome::kCanceled;
    }
    std::lock_guard<std::mutex> guard(m);
    if (try_grant()) {
      return WaitOutcome::kAcquired;
    }
    return std::nullopt;
  };
  if (std::optional<WaitOutcome> outcome = attempt()) {
    return *outcome;
  }
  const bool spin_ended_early = SpinUntil(deadline, [&] {
    return grantable() ||
           (slot != nullptr && slot->acquisition_canceled.load(std::memory_order_relaxed));
  });
  if (spin_ended_early) {
    if (std::optional<WaitOutcome> outcome = attempt()) {
      return *outcome;
    }
  }

  if (slot != nullptr) {
    std::lock_guard<std::mutex> c(slot->canceler_m);
    slot->acquisition_canceler = [&m, &cv] {
      std::lock_guard<std::mutex> guard(m);
      cv.notify_all();
    };
  }
  WaitOutcome outcome;
  {
    std::unique_lock<std::mutex> guard(m);
    for (;;) {
      if (take_cancel()) {
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
  if (slot != nullptr) {
    std::lock_guard<std::mutex> c(slot->canceler_m);
    slot->acquisition_canceler = nullptr;
  }
  return outcome;
}

}  // namespace dimmunix

#endif  // DIMMUNIX_SYNC_CANCELLABLE_WAIT_H_
