// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/sync/mutex.h"

#include <cstdlib>

#include "src/common/logging.h"

namespace dimmunix {

void AbortOnLockFailure(const char* op, LockResult result) {
  const char* reason = result == LockResult::kSelfDeadlock
                           ? "self-deadlock (non-recursive lock re-acquired by its owner)"
                           : "acquisition broken by deadlock recovery";
  DIMMUNIX_LOG(kError) << op << "() failed in scoped usage: " << reason
                       << "; aborting (use the result-returning Lock() to handle this)";
  std::abort();
}

bool SettleAcquire(Runtime& runtime, AcquireOp& op, WaitOutcome outcome) {
  if (outcome == WaitOutcome::kAcquired) {
    op.Commit();
    return true;
  }
  op.Cancel();
  if (outcome == WaitOutcome::kCanceled) {
    runtime.engine().stats().broken_acquisitions.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

LockResult Mutex::Lock() {
  if (raw_.OwnedByCurrentThread()) {
    return LockResult::kSelfDeadlock;  // PTHREAD_MUTEX_ERRORCHECK behavior
  }
  // kGo (or kReentrant, unreachable given the owner check above): block on
  // the underlying mutex, cancellably.
  AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kExclusive);
  if (!op.Granted() || !SettleAcquire(*runtime_, op, raw_.Acquire(op.slot()))) {
    return LockResult::kBroken;
  }
  return LockResult::kOk;
}

bool Mutex::TryLock() {
  if (raw_.OwnedByCurrentThread()) {
    return false;
  }
  // Not granted: entering the pattern would be dangerous, so report busy.
  AcquireOp op = runtime_->TryBeginAcquire(id(), AcquireMode::kExclusive);
  return op.Granted() && SettleAcquire(*runtime_, op, TryOutcome(raw_.TryLock()));
}

bool Mutex::LockFor(Duration timeout) { return LockUntil(Now() + timeout); }

bool Mutex::LockUntil(MonoTime deadline) {
  if (raw_.OwnedByCurrentThread()) {
    return false;
  }
  // Not granted (kTimedOut or kBroken): the engine already rolled back.
  AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kExclusive, deadline);
  return op.Granted() && SettleAcquire(*runtime_, op, raw_.Acquire(op.slot(), deadline));
}

void Mutex::Unlock() {
  runtime_->EndRelease(id());  // release precedes the actual unlock (§5.2)
  raw_.Unlock();
}

LockResult RecursiveMutex::Lock() {
  if (raw_.OwnedByCurrentThread()) {
    AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kExclusive);  // kReentrant
    ++depth_;
    op.Commit();  // keep the RAG's hold multiset in step
    return LockResult::kOk;
  }
  AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kExclusive);
  if (!op.Granted() || !SettleAcquire(*runtime_, op, raw_.Acquire(op.slot()))) {
    return LockResult::kBroken;
  }
  depth_ = 1;
  return LockResult::kOk;
}

bool RecursiveMutex::TryLock() {
  if (raw_.OwnedByCurrentThread()) {
    AcquireOp op = runtime_->TryBeginAcquire(id(), AcquireMode::kExclusive);  // kReentrant
    ++depth_;
    op.Commit();
    return true;
  }
  AcquireOp op = runtime_->TryBeginAcquire(id(), AcquireMode::kExclusive);
  if (!op.Granted() || !SettleAcquire(*runtime_, op, TryOutcome(raw_.TryLock()))) {
    return false;
  }
  depth_ = 1;
  return true;
}

void RecursiveMutex::Unlock() {
  runtime_->EndRelease(id());
  if (--depth_ <= 0) {
    depth_ = 0;
    raw_.Unlock();
  }
}

}  // namespace dimmunix
