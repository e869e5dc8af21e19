// Copyright (c) dimmunix-cpp authors. MIT license.
//
// A tiny test-and-test-and-set spin lock used to guard the short critical
// sections of the avoidance path (Allowed-set stripes, the yield set).
// Dimmunix's avoidance code runs on every lock()/unlock() of the host
// program, so the guard must be cheap and never itself call into
// instrumented synchronization (which would recurse into the engine).

#ifndef DIMMUNIX_COMMON_SPIN_LOCK_H_
#define DIMMUNIX_COMMON_SPIN_LOCK_H_

#include <atomic>
#include <thread>

namespace dimmunix {

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Lock() {
    int spins = 0;
    for (;;) {
      if (!flag_.test_and_set(std::memory_order_acquire)) {
        return;
      }
      // Test loop: wait until the lock looks free before retrying the RMW,
      // to avoid cache-line ping-pong.
      while (flag_.test(std::memory_order_relaxed)) {
        if (++spins >= kSpinsBeforeYield) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }

  bool TryLock() { return !flag_.test_and_set(std::memory_order_acquire); }

  void Unlock() { flag_.clear(std::memory_order_release); }

  // Allows use with std::lock_guard / std::unique_lock.
  void lock() { Lock(); }
  bool try_lock() { return TryLock(); }
  void unlock() { Unlock(); }

 private:
  // On a single-core machine spinning is pure waste; yield early.
  static constexpr int kSpinsBeforeYield = 64;

  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_COMMON_SPIN_LOCK_H_
