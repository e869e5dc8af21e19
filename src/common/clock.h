// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Monotonic time helpers, the busy-wait primitive used by the §7.2.2
// microbenchmark (δin/δout are "implemented as busy loops, thus simulating
// computation done inside and outside the critical sections"), and the
// bounded spin every runtime-owned wait makes before it parks.

#ifndef DIMMUNIX_COMMON_CLOCK_H_
#define DIMMUNIX_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>

namespace dimmunix {

using MonoClock = std::chrono::steady_clock;
using MonoTime = MonoClock::time_point;
using Duration = MonoClock::duration;

inline MonoTime Now() { return MonoClock::now(); }

inline std::int64_t ToMicros(Duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

inline std::int64_t ToMillis(Duration d) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
}

// Spins for approximately `micros` microseconds of wall time. Zero returns
// immediately. Used to simulate in/out-of-critical-section computation.
inline void BusySpinMicros(std::int64_t micros) {
  if (micros <= 0) {
    return;
  }
  const MonoTime deadline = Now() + std::chrono::microseconds(micros);
  while (Now() < deadline) {
    // Tight loop; intentionally no yield so the delay models computation.
  }
}

// How long a runtime-owned wait (an avoidance yield, a blocked raw
// acquisition) polls before it sleeps on its condvar. The holds such waits
// sit behind end in a few microseconds, while a condvar/futex wake-up costs
// about as much again plus a context switch; the budget covers the common
// short wait and bounds the CPU a long one burns.
inline constexpr Duration kSpinBudget = std::chrono::microseconds(5);
// Polls between two clock reads of the spin: the spin stops at most this
// many polls after its budget or deadline ran out.
inline constexpr int kSpinPollsPerClockRead = 8;

// Polls `ready` for at most kSpinBudget, never past `deadline`; true as soon
// as `ready()` holds, false once the budget or the deadline runs out. The
// first poll comes before any clock read. A 1-CPU host never spins: the
// thread that would make `ready` true needs that CPU.
template <typename Ready>
bool SpinUntil(std::optional<MonoTime> deadline, Ready ready) {
  static const bool can_spin = std::thread::hardware_concurrency() > 1;
  if (ready()) {
    return true;
  }
  if (!can_spin) {
    return false;
  }
  const MonoTime start = Now();
  MonoTime end = start + kSpinBudget;
  if (deadline.has_value() && *deadline < end) {
    end = *deadline;
  }
  if (end <= start) {
    return false;
  }
  do {
    for (int i = 0; i < kSpinPollsPerClockRead; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
      if (ready()) {
        return true;
      }
    }
  } while (Now() < end);
  return false;
}

}  // namespace dimmunix

#endif  // DIMMUNIX_COMMON_CLOCK_H_
