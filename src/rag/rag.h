// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Resource Allocation Graph (§5.1) — the monitor thread's authoritative view
// of the program's synchronization state, built lazily from the event queue.
//
// Vertices are threads T and locks L. Edges:
//   request: T -> L   thread wants L (pre-decision), in a mode (X or S)
//   allow:   T -> L   thread was allowed to block waiting for L
//   hold:    L -> T   T holds L; labeled with T's call stack at acquisition
//                     and the hold mode — one exclusive holder XOR n shared
//                     holders per lock
//   yield:   T -> T'  T was paused because of a lock T' acquired/waits for;
//                     labeled with the stack of the cause
//
// The RAG is a multiset of edges to support reentrant locks: a hold carries
// a count and becomes available only after as many releases as acquisitions.
//
// Detection (§5.2):
//  * deadlock  — a cycle made up exclusively of hold/allow/request edges,
//    where a yielding thread's request edge does not count: that thread
//    waits through its yield edges, so a cycle through it is starvation.
//    The thread-level wait-for projection follows a waiter to every
//    *conflicting* holder of its waited lock: an exclusive request
//    conflicts with every holder, a shared request only with an exclusive
//    holder — shared-shared edges do not exist, so reader-reader is never
//    a false cycle. A shared lock can have several holders, so the
//    projection is a general digraph and cycles are found with a colored
//    DFS, restricted to threads touched by the latest event batch ("there
//    cannot be new cycles formed that involve exclusively old edges").
//  * induced starvation — a yield cycle: thread T is starved iff every node
//    reachable from T through T's yield edges (following any edge type
//    transitively) can in turn reach T. This reproduces the Figure 3
//    semantics: if some thread in the entanglement has an escape path that
//    does not lead back to T, nobody is starved yet.
//
// This class is single-threaded by design (only the monitor touches it); the
// avoidance-side "RAG cache" lives in src/core/avoidance.h.

#ifndef DIMMUNIX_RAG_RAG_H_
#define DIMMUNIX_RAG_RAG_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/event/event.h"
#include "src/stack/stack_table.h"

namespace dimmunix {

// A detected deadlock cycle, ready for signature extraction: the threads and
// locks on the cycle plus the stack labels of the hold edges (§5.3: "the
// signature of a cycle is a multiset containing the call stack labels of all
// hold edges and yield edges in that cycle").
struct DeadlockCycle {
  std::vector<ThreadId> threads;
  std::vector<LockId> locks;
  std::vector<StackId> stacks;  // hold-edge labels, one per lock on the cycle
};

// Per-thread slice of a RAG snapshot (control plane `rag` command).
struct RagThreadInfo {
  struct HeldLock {
    LockId lock = kInvalidLockId;
    AcquireMode mode = AcquireMode::kExclusive;
  };

  ThreadId id = kInvalidThreadId;
  bool waiting = false;            // has a request/allow edge out
  // True for threads mirrored from another process by the IPC bridge
  // (synthetic ids at kForeignThreadBase+): their edges are real, but they
  // cannot be parked, broken, or canceled from this process.
  bool foreign = false;
  LockId wait_lock = kInvalidLockId;
  AcquireMode wait_mode = AcquireMode::kExclusive;
  std::vector<HeldLock> held;      // locks currently held, with hold mode
  std::size_t yield_edges = 0;     // yield edges out of this thread
};

// A point-in-time copy of the graph's observable state, detached from the
// monitor thread so it can be formatted and shipped over the control socket.
struct RagSnapshot {
  std::vector<RagThreadInfo> threads;
  std::size_t lock_count = 0;
  std::size_t yield_edge_count = 0;
};

// A detected induced-starvation condition (yield cycle).
struct StarvationCycle {
  ThreadId starved = kInvalidThreadId;   // the thread whose yields are all trapped
  std::vector<ThreadId> threads;         // every thread in the entanglement
  std::vector<StackId> stacks;           // hold + yield edge labels in the subgraph
  // The thread inside the entanglement holding the most locks — the victim
  // §3 releases to break the starvation.
  ThreadId break_victim = kInvalidThreadId;
};

class Rag {
 public:
  Rag() = default;

  // Applies one drained event to the graph and remembers the touched thread
  // for incremental detection.
  void Apply(const Event& event);

  // Deadlock cycles formed by edges added since the previous call. Each
  // cycle is reported once (its threads are flagged; the flag clears when a
  // wait edge of the cycle is removed, e.g. after recovery).
  std::vector<DeadlockCycle> DetectDeadlocks();

  // Starvation conditions involving threads whose yield edges changed since
  // the previous call. Reported once per formation, like deadlocks.
  std::vector<StarvationCycle> DetectStarvations();

  // --- Introspection (tests, stats) ---------------------------------------
  bool HasWaitEdge(ThreadId thread) const;
  bool HoldsAnyLock(ThreadId thread) const;
  int HeldLockCount(ThreadId thread) const;
  std::vector<LockId> HeldLocks(ThreadId thread) const;
  std::size_t thread_count() const { return threads_.size(); }
  std::size_t lock_count() const { return locks_.size(); }
  std::size_t yield_edge_count() const;

  // Detached copy of the observable state; must be called from the monitor
  // thread (or with the monitor quiescent) like every other accessor here —
  // Monitor::SnapshotRag() provides the serialized entry point.
  RagSnapshot Snapshot() const;

 private:
  struct ThreadNode {
    // Wait edge (at most one): kNone when not waiting.
    enum class Wait : std::uint8_t { kNone, kRequest, kAllow } wait = Wait::kNone;
    LockId wait_lock = kInvalidLockId;
    StackId wait_stack = kInvalidStackId;
    AcquireMode wait_mode = AcquireMode::kExclusive;
    std::vector<YieldCause> yields;  // yield edges out of this thread
    std::vector<LockId> held;        // locks currently held (for victim choice)
    bool in_reported_deadlock = false;
    bool in_reported_starvation = false;
  };

  struct LockNode {
    struct Holder {
      ThreadId thread = kInvalidThreadId;
      StackId stack = kInvalidStackId;
      int count = 0;  // reentrant acquisitions outstanding
    };
    AcquireMode mode = AcquireMode::kExclusive;  // meaningful while held
    std::vector<Holder> holders;  // one exclusive XOR n shared

    Holder* HolderFor(ThreadId thread) {
      for (Holder& h : holders) {
        if (h.thread == thread) {
          return &h;
        }
      }
      return nullptr;
    }
    const Holder* HolderFor(ThreadId thread) const {
      return const_cast<LockNode*>(this)->HolderFor(thread);
    }
  };

  ThreadNode& Thread(ThreadId id) { return threads_[id]; }
  LockNode& Lock(LockId id) { return locks_[id]; }

  // Appends every *conflicting* holder of T's waited lock (self excluded):
  // exclusive requests conflict with every holder, shared requests only
  // with an exclusive holder.
  void AppendWaitSuccessors(ThreadId thread, std::vector<ThreadId>* out) const;

  // All successor *thread* nodes of `thread` following yield edges plus the
  // wait edges (through the lock to its conflicting holders). Used by
  // starvation search.
  void AppendSuccessors(ThreadId thread, std::vector<ThreadId>* out) const;
  // Predecessor relation of the same projection.
  void BuildPredecessors(std::unordered_map<ThreadId, std::vector<ThreadId>>* preds) const;

  std::unordered_map<ThreadId, ThreadNode> threads_;
  std::unordered_map<LockId, LockNode> locks_;
  std::unordered_set<ThreadId> touched_waiters_;
  std::unordered_set<ThreadId> touched_yielders_;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_RAG_RAG_H_
