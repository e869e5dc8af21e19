// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/sync/raw_mutex.h"

#include "src/sync/cancellable_wait.h"

namespace dimmunix {

bool RawMutex::TryGrantLocked() {
  if (locked_.load(std::memory_order_relaxed)) {
    return false;
  }
  locked_.store(true, std::memory_order_relaxed);
  owner_ = std::this_thread::get_id();
  return true;
}

void RawMutex::Lock() {
  (void)CancellableWait(m_, cv_, nullptr, std::nullopt, [this] { return TryGrantLocked(); },
                        [this] { return !locked_.load(std::memory_order_relaxed); });
}

WaitOutcome RawMutex::Acquire(ThreadSlot& slot, std::optional<MonoTime> deadline) {
  return CancellableWait(m_, cv_, &slot, deadline, [this] { return TryGrantLocked(); },
                         [this] { return !locked_.load(std::memory_order_relaxed); });
}

bool RawMutex::TryLock() {
  std::lock_guard<std::mutex> guard(m_);
  return TryGrantLocked();
}

void RawMutex::Unlock() {
  {
    std::lock_guard<std::mutex> guard(m_);
    locked_.store(false, std::memory_order_relaxed);
    owner_ = std::thread::id{};
  }
  cv_.notify_one();
}

bool RawMutex::OwnedByCurrentThread() const {
  std::lock_guard<std::mutex> guard(m_);
  return locked_.load(std::memory_order_relaxed) && owner_ == std::this_thread::get_id();
}

}  // namespace dimmunix
