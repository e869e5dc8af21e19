// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The uninstrumented reader-writer lock under every dimmunix::SharedMutex —
// the shared-mode counterpart of RawMutex, built on the same cancellable
// wait (CancellableWait, src/sync/cancellable_wait.h) so acquisitions stay
// cancellable (deadlock recovery can break a blocked writer or reader out),
// timed variants compose with the engine's yield logic, and a short wait
// ends in a bounded spin on atomic copies of the writer flag and the reader
// count instead of a condvar sleep.
//
// Semantics match pthread_rwlock without writer preference: a writer waits
// until there is no writer and no readers; a reader waits only while a
// writer *holds* the lock. Reader re-acquisition by the same thread is
// permitted (recursive read holds), and the holder sets are tracked by
// thread id so the instrumented layer can detect self-deadlocking upgrades
// before blocking on them.

#ifndef DIMMUNIX_SYNC_RAW_SHARED_MUTEX_H_
#define DIMMUNIX_SYNC_RAW_SHARED_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/thread_registry.h"
#include "src/sync/raw_mutex.h"

namespace dimmunix {

class RawSharedMutex {
 public:
  RawSharedMutex() = default;
  RawSharedMutex(const RawSharedMutex&) = delete;
  RawSharedMutex& operator=(const RawSharedMutex&) = delete;

  // --- Writer side ----------------------------------------------------------
  WaitOutcome AcquireExclusive(ThreadSlot& slot, std::optional<MonoTime> deadline = std::nullopt);
  bool TryLockExclusive();
  void UnlockExclusive();

  // --- Reader side ----------------------------------------------------------
  WaitOutcome AcquireShared(ThreadSlot& slot, std::optional<MonoTime> deadline = std::nullopt);
  bool TryLockShared();
  void UnlockShared();

  bool ExclusiveOwnedByCurrentThread() const;
  // True when the calling thread has at least one outstanding read hold.
  bool SharedOwnedByCurrentThread() const;

 private:
  bool TryGrantExclusiveLocked();
  bool TryGrantSharedLocked();

  mutable std::mutex m_;
  std::condition_variable cv_;
  // writer_, writer_id_ and reader_count_ are written under m_ only; the
  // spin and the ownership queries read them without it. A thread sees its
  // own id in writer_id_ only while it holds the write lock, and a nonzero
  // reader_count_ while it holds a read lock.
  std::atomic<bool> writer_{false};
  std::atomic<std::thread::id> writer_id_{};
  std::vector<std::thread::id> readers_;  // one entry per read hold (recursion)
  std::atomic<std::size_t> reader_count_{0};  // readers_.size()
};

}  // namespace dimmunix

#endif  // DIMMUNIX_SYNC_RAW_SHARED_MUTEX_H_
