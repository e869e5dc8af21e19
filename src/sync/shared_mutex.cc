// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/sync/shared_mutex.h"

namespace dimmunix {

LockResult SharedMutex::Lock() {
  if (raw_.ExclusiveOwnedByCurrentThread() || raw_.SharedOwnedByCurrentThread()) {
    // Re-lock by the writer, or an upgrade while holding a read lock — both
    // would block on our own hold forever (POSIX undefined; glibc hangs).
    return LockResult::kSelfDeadlock;
  }
  AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kExclusive);
  if (!op.Granted() || !SettleAcquire(*runtime_, op, raw_.AcquireExclusive(op.slot()))) {
    return LockResult::kBroken;
  }
  return LockResult::kOk;
}

bool SharedMutex::TryLock() {
  if (raw_.ExclusiveOwnedByCurrentThread() || raw_.SharedOwnedByCurrentThread()) {
    return false;
  }
  AcquireOp op = runtime_->TryBeginAcquire(id(), AcquireMode::kExclusive);
  return op.Granted() && SettleAcquire(*runtime_, op, TryOutcome(raw_.TryLockExclusive()));
}

bool SharedMutex::LockFor(Duration timeout) { return LockUntil(Now() + timeout); }

bool SharedMutex::LockUntil(MonoTime deadline) {
  if (raw_.ExclusiveOwnedByCurrentThread() || raw_.SharedOwnedByCurrentThread()) {
    return false;
  }
  AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kExclusive, deadline);
  return op.Granted() && SettleAcquire(*runtime_, op, raw_.AcquireExclusive(op.slot(), deadline));
}

void SharedMutex::Unlock() {
  runtime_->EndRelease(id());  // release precedes the actual unlock (§5.2)
  raw_.UnlockExclusive();
}

LockResult SharedMutex::LockShared() {
  if (raw_.ExclusiveOwnedByCurrentThread()) {
    return LockResult::kSelfDeadlock;  // rdlock while writing: EDEADLK
  }
  AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kShared);
  if (!op.Granted() || !SettleAcquire(*runtime_, op, raw_.AcquireShared(op.slot()))) {
    return LockResult::kBroken;
  }
  return LockResult::kOk;
}

bool SharedMutex::TryLockShared() {
  if (raw_.ExclusiveOwnedByCurrentThread()) {
    return false;
  }
  AcquireOp op = runtime_->TryBeginAcquire(id(), AcquireMode::kShared);
  return op.Granted() && SettleAcquire(*runtime_, op, TryOutcome(raw_.TryLockShared()));
}

bool SharedMutex::LockSharedFor(Duration timeout) { return LockSharedUntil(Now() + timeout); }

bool SharedMutex::LockSharedUntil(MonoTime deadline) {
  if (raw_.ExclusiveOwnedByCurrentThread()) {
    return false;
  }
  AcquireOp op = runtime_->BeginAcquire(id(), AcquireMode::kShared, deadline);
  return op.Granted() && SettleAcquire(*runtime_, op, raw_.AcquireShared(op.slot(), deadline));
}

void SharedMutex::UnlockShared() {
  runtime_->EndRelease(id());
  raw_.UnlockShared();
}

}  // namespace dimmunix
