// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/sync/raw_shared_mutex.h"

#include <algorithm>

#include "src/sync/cancellable_wait.h"

namespace dimmunix {

bool RawSharedMutex::TryGrantExclusiveLocked() {
  if (writer_ || !readers_.empty()) {
    return false;
  }
  writer_ = true;
  writer_id_ = std::this_thread::get_id();
  return true;
}

bool RawSharedMutex::TryGrantSharedLocked() {
  if (writer_) {
    return false;
  }
  readers_.push_back(std::this_thread::get_id());
  return true;
}

WaitOutcome RawSharedMutex::AcquireExclusive(ThreadSlot& slot, std::optional<MonoTime> deadline) {
  return CancellableWait(m_, cv_, slot, deadline, [this] { return TryGrantExclusiveLocked(); });
}

bool RawSharedMutex::TryLockExclusive() {
  std::lock_guard<std::mutex> guard(m_);
  return TryGrantExclusiveLocked();
}

void RawSharedMutex::UnlockExclusive() {
  {
    std::lock_guard<std::mutex> guard(m_);
    writer_ = false;
    writer_id_ = std::thread::id{};
  }
  cv_.notify_all();
}

WaitOutcome RawSharedMutex::AcquireShared(ThreadSlot& slot, std::optional<MonoTime> deadline) {
  return CancellableWait(m_, cv_, slot, deadline, [this] { return TryGrantSharedLocked(); });
}

bool RawSharedMutex::TryLockShared() {
  std::lock_guard<std::mutex> guard(m_);
  return TryGrantSharedLocked();
}

void RawSharedMutex::UnlockShared() {
  {
    std::lock_guard<std::mutex> guard(m_);
    const auto me = std::this_thread::get_id();
    auto it = std::find(readers_.begin(), readers_.end(), me);
    if (it != readers_.end()) {
      readers_.erase(it);
    }
  }
  cv_.notify_all();
}

bool RawSharedMutex::ExclusiveOwnedByCurrentThread() const {
  std::lock_guard<std::mutex> guard(m_);
  return writer_ && writer_id_ == std::this_thread::get_id();
}

bool RawSharedMutex::SharedOwnedByCurrentThread() const {
  std::lock_guard<std::mutex> guard(m_);
  return std::find(readers_.begin(), readers_.end(), std::this_thread::get_id()) !=
         readers_.end();
}

}  // namespace dimmunix
