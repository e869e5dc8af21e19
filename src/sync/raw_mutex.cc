// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/sync/raw_mutex.h"

#include "src/sync/cancellable_wait.h"

namespace dimmunix {

bool RawMutex::TryGrantLocked() {
  if (locked_) {
    return false;
  }
  locked_ = true;
  owner_ = std::this_thread::get_id();
  return true;
}

void RawMutex::Lock() {
  std::unique_lock<std::mutex> guard(m_);
  cv_.wait(guard, [this] { return TryGrantLocked(); });
}

WaitOutcome RawMutex::Acquire(ThreadSlot& slot, std::optional<MonoTime> deadline) {
  return CancellableWait(m_, cv_, slot, deadline, [this] { return TryGrantLocked(); });
}

bool RawMutex::TryLock() {
  std::lock_guard<std::mutex> guard(m_);
  return TryGrantLocked();
}

void RawMutex::Unlock() {
  {
    std::lock_guard<std::mutex> guard(m_);
    locked_ = false;
    owner_ = std::thread::id{};
  }
  cv_.notify_one();
}

bool RawMutex::OwnedByCurrentThread() const {
  std::lock_guard<std::mutex> guard(m_);
  return locked_ && owner_ == std::this_thread::get_id();
}

}  // namespace dimmunix
