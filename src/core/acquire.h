// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The acquisition port — the single instrumentation surface every lock
// adapter funnels through. One AcquireOp owns one run of the paper's
// protocol for one lock acquisition:
//
//     Runtime::BeginAcquire(lock, mode[, deadline])   request -> GO | YIELD
//         op.Decision()                               kGo / kReentrant / ...
//         <block on the underlying primitive>
//         op.Commit()      the acquisition happened   (allow -> hold edge)
//      or op.Cancel()      it did not (trylock busy,  (§6 `cancel` rollback)
//                          timedlock timeout)
//
// Runtime::TryBeginAcquire is the nonblocking form: it reports kBusy
// instead of yielding when acquiring would instantiate a signature.
//
// The handle is move-only and its destructor enforces the
// exactly-one-of-Commit/Cancel contract: a granted op abandoned without
// either is rolled back (debug builds assert). Adapters therefore cannot
// leak an allow edge, whatever their error paths do.
//
// AcquireMode threads reader/writer semantics through the whole stack:
// kShared holds never conflict with each other, so an rwlock adapter gets
// correct cycle detection (reader-reader is never a cycle; writer-involved
// cycles still match signatures) with no protocol code of its own. See
// sync::Mutex, sync::SharedMutex, and src/interpose/preload.cc for the
// three shipped adapters.

#ifndef DIMMUNIX_CORE_ACQUIRE_H_
#define DIMMUNIX_CORE_ACQUIRE_H_

#include <optional>

#include "src/common/clock.h"
#include "src/core/avoidance.h"
#include "src/event/event.h"

namespace dimmunix {

class Runtime;

class AcquireOp {
 public:
  AcquireOp(AcquireOp&& other) noexcept
      : engine_(other.engine_),
        thread_(other.thread_),
        lock_(other.lock_),
        mode_(other.mode_),
        decision_(other.decision_),
        settled_(other.settled_) {
    other.settled_ = true;
  }
  AcquireOp& operator=(AcquireOp&&) = delete;
  AcquireOp(const AcquireOp&) = delete;
  AcquireOp& operator=(const AcquireOp&) = delete;

  ~AcquireOp();

  // The engine's verdict for this acquisition. kGo/kReentrant grant the
  // acquisition and oblige the caller to Commit() or Cancel(); kBroken,
  // kTimedOut, and kBusy are terminal — the engine already rolled back.
  RequestDecision Decision() const { return decision_; }
  bool Granted() const {
    return decision_ == RequestDecision::kGo || decision_ == RequestDecision::kReentrant;
  }

  // The underlying acquisition succeeded: emit `acquired`, flip the allow
  // edge into a hold edge. Legal in any decision state — an uncancellable
  // adapter (the LD_PRELOAD shim) can end up holding the real lock even
  // after a kBroken grant rollback, and the hold must still be recorded or
  // the engine and RAG go blind to it.
  void Commit();

  // The underlying acquisition did not happen (trylock contention,
  // timedlock timeout): emit `cancel`, retract the allow edge (§6). A no-op
  // for non-kGo decisions (nothing was added that is still standing).
  void Cancel();

  ThreadId thread() const { return thread_; }
  LockId lock() const { return lock_; }
  AcquireMode mode() const { return mode_; }

  // Per-thread slot for cancellable blocking on the raw primitive (the
  // monitor's deadlock recovery cancels through it).
  ThreadSlot& slot() { return engine_->registry().Slot(thread_); }

 private:
  friend class Runtime;
  AcquireOp(AvoidanceEngine* engine, ThreadId thread, LockId lock, AcquireMode mode,
            RequestDecision decision)
      : engine_(engine), thread_(thread), lock_(lock), mode_(mode), decision_(decision),
        settled_(false) {}

  AvoidanceEngine* engine_;
  ThreadId thread_;
  LockId lock_;
  AcquireMode mode_;
  RequestDecision decision_;
  bool settled_;  // Commit or Cancel already happened (or the op was moved)
};

}  // namespace dimmunix

#endif  // DIMMUNIX_CORE_ACQUIRE_H_
