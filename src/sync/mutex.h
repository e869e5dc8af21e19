// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Instrumented lock types — the drop-in replacements that play the role of
// the modified NPTL/libthr libraries of §6. Every acquisition runs the full
// Dimmunix protocol through the acquisition port (src/core/acquire.h):
//
//     Runtime::BeginAcquire -> GO | YIELD (park, retry)   (§5.4)
//     block on the underlying mutex
//     op.Commit()                                 (RAG cache: allow -> hold)
//     ... critical section ...
//     release, then unlock                        (ordering required by §5.2)
//
// Mutex matches PTHREAD_MUTEX_ERRORCHECK semantics for self-deadlock
// (Dimmunix "does not watch for self-deadlocks, since pthreads already
// offers the error-checking mutex option"); RecursiveMutex matches
// PTHREAD_MUTEX_RECURSIVE; TryLock/LockFor mirror pthread_mutex_trylock /
// pthread_mutex_timedlock, including the `cancel` rollback event of §6.
// The reader-writer counterpart lives in src/sync/shared_mutex.h.

#ifndef DIMMUNIX_SYNC_MUTEX_H_
#define DIMMUNIX_SYNC_MUTEX_H_

#include <cstdint>

#include "src/core/runtime.h"
#include "src/sync/raw_mutex.h"

namespace dimmunix {

enum class LockResult {
  kOk,
  kSelfDeadlock,  // non-recursive mutex re-acquired by its owner (EDEADLK)
  kBroken,        // acquisition canceled by deadlock recovery
};

// Shared by every sync type's BasicLockable shim: scoped usage (lock_guard,
// unique_lock, shared_lock) has no channel for a failure result, so a
// failed acquisition aborts loudly instead of silently continuing without
// the lock. `op` names the method, e.g. "Mutex::lock".
[[noreturn]] void AbortOnLockFailure(const char* op, LockResult result);

// The post-block step of every sync adapter: Commit `op` when the raw wait
// acquired the lock, otherwise Cancel it (§6 `cancel`), counting a wait
// that deadlock recovery canceled as a broken acquisition. Returns true
// when the lock was acquired.
bool SettleAcquire(Runtime& runtime, AcquireOp& op, WaitOutcome outcome);

// A trylock is a wait whose deadline has already passed: busy is kTimedOut.
inline WaitOutcome TryOutcome(bool acquired) {
  return acquired ? WaitOutcome::kAcquired : WaitOutcome::kTimedOut;
}

class Mutex {
 public:
  explicit Mutex(Runtime& runtime = Runtime::Global()) : runtime_(&runtime) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  LockResult Lock();
  bool TryLock();
  // Timed acquisition; false on timeout.
  bool LockFor(Duration timeout);
  bool LockUntil(MonoTime deadline);
  void Unlock();

  // The execution-scoped identity used in the RAG (the object's address,
  // like pthreads).
  LockId id() const { return reinterpret_cast<LockId>(this); }
  Runtime& runtime() { return *runtime_; }

  // BasicLockable / Lockable, so std::lock_guard and friends work. lock()
  // treats kBroken/kSelfDeadlock as programming errors in scoped usage:
  // scoped callers have no way to observe the failure, so it aborts loudly
  // rather than running the critical section without the lock. Code that
  // can handle kBroken (deadlock recovery) must call Lock() instead.
  void lock() {
    if (const LockResult result = Lock(); result != LockResult::kOk) {
      AbortOnLockFailure("Mutex::lock", result);
    }
  }
  void unlock() { Unlock(); }
  bool try_lock() { return TryLock(); }

 private:
  friend class CondVar;
  Runtime* runtime_;
  RawMutex raw_;
};

class RecursiveMutex {
 public:
  explicit RecursiveMutex(Runtime& runtime = Runtime::Global()) : runtime_(&runtime) {}

  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  LockResult Lock();
  bool TryLock();
  void Unlock();

  LockId id() const { return reinterpret_cast<LockId>(this); }
  int recursion_depth() const { return depth_; }

  void lock() {
    if (const LockResult result = Lock(); result != LockResult::kOk) {
      AbortOnLockFailure("RecursiveMutex::lock", result);
    }
  }
  void unlock() { Unlock(); }
  bool try_lock() { return TryLock(); }

 private:
  Runtime* runtime_;
  RawMutex raw_;
  int depth_ = 0;  // mutated only by the owning thread
};

}  // namespace dimmunix

#endif  // DIMMUNIX_SYNC_MUTEX_H_
