// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/rag/rag.h"

#include <algorithm>
#include <deque>

#include "src/core/global_port.h"

namespace dimmunix {

void Rag::Apply(const Event& event) {
  switch (event.type) {
    case EventType::kRequest: {
      ThreadNode& t = Thread(event.thread);
      t.wait = ThreadNode::Wait::kRequest;
      t.wait_lock = event.lock;
      t.wait_stack = event.stack;
      t.wait_mode = event.mode;
      touched_waiters_.insert(event.thread);
      break;
    }
    case EventType::kAllow: {
      ThreadNode& t = Thread(event.thread);
      t.wait = ThreadNode::Wait::kAllow;
      t.wait_lock = event.lock;
      t.wait_stack = event.stack;
      t.wait_mode = event.mode;
      // A GO decision retires any yield edges the thread still had (§5.4).
      if (!t.yields.empty()) {
        t.yields.clear();
      }
      touched_waiters_.insert(event.thread);
      break;
    }
    case EventType::kAcquired: {
      ThreadNode& t = Thread(event.thread);
      t.wait = ThreadNode::Wait::kNone;
      t.wait_lock = kInvalidLockId;
      LockNode& l = Lock(event.lock);
      if (LockNode::Holder* holder = l.HolderFor(event.thread); holder != nullptr) {
        ++holder->count;  // reentrant re-acquisition
        if (event.mode == AcquireMode::kExclusive) {
          l.mode = AcquireMode::kExclusive;  // committed upgrade promotes the hold
        }
      } else if (l.holders.empty()) {
        l.mode = event.mode;
        l.holders.assign(1, LockNode::Holder{event.thread, event.stack, 1});
        t.held.push_back(event.lock);
      } else if (event.mode == AcquireMode::kExclusive) {
        // An exclusive grant while another holder is still recorded: the
        // prior holder's release is in flight (staged events may drain one
        // tick late), so ADD rather than displace — displacing would erase
        // the live hold if THIS event is the late one. The duplicate
        // resolves when the in-flight release drains; it can never close a
        // false cycle because the stale holder's wait edges sort after its
        // release in emission order.
        l.mode = AcquireMode::kExclusive;
        l.holders.push_back(LockNode::Holder{event.thread, event.stack, 1});
        t.held.push_back(event.lock);
      } else {
        // Additional shared holder.
        l.mode = AcquireMode::kShared;
        l.holders.push_back(LockNode::Holder{event.thread, event.stack, 1});
        t.held.push_back(event.lock);
      }
      break;
    }
    case EventType::kRelease: {
      auto lock_it = locks_.find(event.lock);
      if (lock_it == locks_.end()) {
        break;
      }
      LockNode& l = lock_it->second;
      LockNode::Holder* holder = l.HolderFor(event.thread);
      if (holder == nullptr) {
        break;  // stale event (e.g. release drained after a restart)
      }
      if (--holder->count <= 0) {
        auto thread_it = threads_.find(event.thread);
        if (thread_it != threads_.end()) {
          auto& held = thread_it->second.held;
          held.erase(std::remove(held.begin(), held.end(), event.lock), held.end());
        }
        l.holders.erase(l.holders.begin() + (holder - l.holders.data()));
      }
      break;
    }
    case EventType::kYield: {
      ThreadNode& t = Thread(event.thread);
      // The tentative allow edge is flipped back into a request edge (§5.4).
      t.wait = ThreadNode::Wait::kRequest;
      t.wait_lock = event.lock;
      t.wait_stack = event.stack;
      t.wait_mode = event.mode;
      t.yields = event.causes;
      t.in_reported_starvation = false;
      touched_yielders_.insert(event.thread);
      // A new yield can complete a cycle through *other* threads' yields too.
      for (const YieldCause& cause : event.causes) {
        touched_yielders_.insert(cause.thread);
      }
      break;
    }
    case EventType::kWake: {
      ThreadNode& t = Thread(event.thread);
      t.yields.clear();
      t.in_reported_starvation = false;
      break;
    }
    case EventType::kCancel: {
      ThreadNode& t = Thread(event.thread);
      t.wait = ThreadNode::Wait::kNone;
      t.wait_lock = kInvalidLockId;
      t.yields.clear();
      t.in_reported_deadlock = false;
      t.in_reported_starvation = false;
      break;
    }
    case EventType::kThreadExit: {
      auto it = threads_.find(event.thread);
      if (it != threads_.end()) {
        for (LockId lock : it->second.held) {
          auto lock_it = locks_.find(lock);
          if (lock_it == locks_.end()) {
            continue;
          }
          auto& holders = lock_it->second.holders;
          holders.erase(std::remove_if(holders.begin(), holders.end(),
                                       [&](const LockNode::Holder& h) {
                                         return h.thread == event.thread;
                                       }),
                        holders.end());
        }
        threads_.erase(it);
      }
      break;
    }
    case EventType::kAvoided:
      break;  // consumed by the calibrator, not the graph
  }
}

void Rag::AppendWaitSuccessors(ThreadId thread, std::vector<ThreadId>* out) const {
  auto it = threads_.find(thread);
  if (it == threads_.end() || it->second.wait == ThreadNode::Wait::kNone) {
    return;
  }
  auto lock_it = locks_.find(it->second.wait_lock);
  if (lock_it == locks_.end()) {
    return;
  }
  const LockNode& l = lock_it->second;
  if (l.holders.empty()) {
    return;
  }
  // Shared request vs shared holders: no conflict, no edges — reader-reader
  // can never close a cycle. A shared request still conflicts with an
  // exclusive holder, and an exclusive request with every holder.
  if (it->second.wait_mode == AcquireMode::kShared && l.mode == AcquireMode::kShared) {
    return;
  }
  for (const LockNode::Holder& holder : l.holders) {
    if (holder.thread != thread) {  // self-hold (upgrade) is not a cycle edge
      out->push_back(holder.thread);
    }
  }
}

std::vector<DeadlockCycle> Rag::DetectDeadlocks() {
  std::vector<DeadlockCycle> result;
  // Colored DFS over the wait-for projection (thread -> conflicting holders
  // of the waited lock). Shared locks have several holders, so nodes can
  // have out-degree > 1; gray nodes are the current DFS path, black nodes
  // are exhausted across all starts in this batch.
  std::unordered_set<ThreadId> black;
  for (ThreadId start : touched_waiters_) {
    if (black.count(start) > 0) {
      continue;
    }
    struct Frame {
      ThreadId thread;
      std::vector<ThreadId> succs;
      std::size_t next = 0;
    };
    std::vector<Frame> path;
    std::unordered_map<ThreadId, std::size_t> gray;  // thread -> index in path

    auto push = [&](ThreadId tid) {
      Frame frame;
      frame.thread = tid;
      // A yielder waits through its yield edges, not on its lock: a cycle
      // through its request edge is induced starvation, which
      // DetectStarvations reports, not a deadlock.
      if (auto node = threads_.find(tid); node == threads_.end() || node->second.yields.empty()) {
        AppendWaitSuccessors(tid, &frame.succs);
      }
      gray.emplace(tid, path.size());
      path.push_back(std::move(frame));
    };
    push(start);
    while (!path.empty()) {
      Frame& top = path.back();
      if (top.next >= top.succs.size()) {
        gray.erase(top.thread);
        black.insert(top.thread);
        path.pop_back();
        continue;
      }
      const ThreadId succ = top.succs[top.next++];
      if (black.count(succ) > 0) {
        continue;
      }
      auto seen = gray.find(succ);
      if (seen == gray.end()) {
        push(succ);
        continue;
      }
      // Cycle: path[seen->second..end].
      DeadlockCycle cycle;
      bool already_reported = true;
      for (std::size_t i = seen->second; i < path.size(); ++i) {
        const ThreadId tid = path[i].thread;
        const ThreadNode& node = threads_.at(tid);
        cycle.threads.push_back(tid);
        cycle.locks.push_back(node.wait_lock);
        already_reported = already_reported && node.in_reported_deadlock;
      }
      // Hold-edge labels: the stack with which each waited lock was
      // acquired by the holder that is the next thread on the cycle (a
      // shared lock can have holders outside the cycle).
      for (std::size_t i = 0; i < cycle.threads.size(); ++i) {
        const ThreadId next_thread = cycle.threads[(i + 1) % cycle.threads.size()];
        const LockNode& l = locks_.at(cycle.locks[i]);
        const LockNode::Holder* holder = l.HolderFor(next_thread);
        cycle.stacks.push_back(holder != nullptr ? holder->stack
                                                 : (l.holders.empty() ? kInvalidStackId
                                                                      : l.holders.front().stack));
      }
      if (!already_reported) {
        for (ThreadId tid : cycle.threads) {
          threads_.at(tid).in_reported_deadlock = true;
        }
        result.push_back(std::move(cycle));
      }
      // Keep exploring the remaining successors: a lock with several shared
      // holders can close more than one distinct cycle in the same batch
      // (the reported-flag dedup keeps each formation to one report).
    }
  }
  touched_waiters_.clear();
  return result;
}

void Rag::AppendSuccessors(ThreadId thread, std::vector<ThreadId>* out) const {
  auto it = threads_.find(thread);
  if (it == threads_.end()) {
    return;
  }
  for (const YieldCause& cause : it->second.yields) {
    out->push_back(cause.thread);
  }
  AppendWaitSuccessors(thread, out);
}

void Rag::BuildPredecessors(std::unordered_map<ThreadId, std::vector<ThreadId>>* preds) const {
  for (const auto& [tid, node] : threads_) {
    std::vector<ThreadId> succs;
    AppendSuccessors(tid, &succs);
    for (ThreadId s : succs) {
      (*preds)[s].push_back(tid);
    }
  }
}

std::vector<StarvationCycle> Rag::DetectStarvations() {
  std::vector<StarvationCycle> result;
  if (touched_yielders_.empty()) {
    return result;
  }
  std::unordered_map<ThreadId, std::vector<ThreadId>> preds;
  bool preds_built = false;

  for (ThreadId start : touched_yielders_) {
    auto it = threads_.find(start);
    if (it == threads_.end() || it->second.yields.empty() ||
        it->second.in_reported_starvation) {
      continue;
    }
    // R = nodes reachable from `start` beginning with its yield edges.
    std::vector<ThreadId> frontier;
    for (const YieldCause& cause : it->second.yields) {
      frontier.push_back(cause.thread);
    }
    std::unordered_set<ThreadId> reached;
    while (!frontier.empty()) {
      ThreadId t = frontier.back();
      frontier.pop_back();
      if (t == kInvalidThreadId || !reached.insert(t).second) {
        continue;
      }
      AppendSuccessors(t, &frontier);
    }
    if (reached.empty()) {
      continue;
    }
    // Back-reachability: which nodes can reach `start`?
    if (!preds_built) {
      BuildPredecessors(&preds);
      preds_built = true;
    }
    std::unordered_set<ThreadId> reaches_start;
    std::vector<ThreadId> rev{start};
    while (!rev.empty()) {
      ThreadId t = rev.back();
      rev.pop_back();
      auto pit = preds.find(t);
      if (pit == preds.end()) {
        continue;
      }
      for (ThreadId p : pit->second) {
        if (reaches_start.insert(p).second) {
          rev.push_back(p);
        }
      }
    }
    bool starved = true;
    for (ThreadId t : reached) {
      if (t != start && reaches_start.find(t) == reaches_start.end()) {
        starved = false;
        break;
      }
    }
    if (!starved) {
      continue;
    }
    // Build the report over the entanglement R ∪ {start}.
    StarvationCycle cycle;
    cycle.starved = start;
    reached.insert(start);
    int best_held = -1;
    for (ThreadId t : reached) {
      auto node_it = threads_.find(t);
      if (node_it == threads_.end()) {
        continue;
      }
      const ThreadNode& node = node_it->second;
      cycle.threads.push_back(t);
      node_it->second.in_reported_starvation = true;
      // Yield-edge labels inside the entanglement.
      for (const YieldCause& cause : node.yields) {
        if (reached.count(cause.thread) > 0) {
          cycle.stacks.push_back(cause.stack);
        }
      }
      // Hold-edge labels of locks held by entangled threads.
      for (LockId lock : node.held) {
        auto lock_it = locks_.find(lock);
        if (lock_it == locks_.end()) {
          continue;
        }
        if (const LockNode::Holder* holder = lock_it->second.HolderFor(t); holder != nullptr) {
          cycle.stacks.push_back(holder->stack);
        }
      }
      // Victim choice (§3): among *yielding* threads, the one holding the
      // most locks is released to pursue its most recent request.
      if (!node.yields.empty() && static_cast<int>(node.held.size()) > best_held) {
        best_held = static_cast<int>(node.held.size());
        cycle.break_victim = t;
      }
    }
    std::sort(cycle.stacks.begin(), cycle.stacks.end());
    result.push_back(std::move(cycle));
  }
  touched_yielders_.clear();
  return result;
}

bool Rag::HasWaitEdge(ThreadId thread) const {
  auto it = threads_.find(thread);
  return it != threads_.end() && it->second.wait != ThreadNode::Wait::kNone;
}

bool Rag::HoldsAnyLock(ThreadId thread) const { return HeldLockCount(thread) > 0; }

int Rag::HeldLockCount(ThreadId thread) const {
  auto it = threads_.find(thread);
  return it == threads_.end() ? 0 : static_cast<int>(it->second.held.size());
}

std::vector<LockId> Rag::HeldLocks(ThreadId thread) const {
  auto it = threads_.find(thread);
  return it == threads_.end() ? std::vector<LockId>{} : it->second.held;
}

std::size_t Rag::yield_edge_count() const {
  std::size_t n = 0;
  for (const auto& [tid, node] : threads_) {
    n += node.yields.size();
  }
  return n;
}

RagSnapshot Rag::Snapshot() const {
  RagSnapshot snap;
  snap.lock_count = locks_.size();
  snap.threads.reserve(threads_.size());
  for (const auto& [tid, node] : threads_) {
    RagThreadInfo info;
    info.id = tid;
    info.foreign = IsForeignThreadId(tid);
    info.waiting = node.wait != ThreadNode::Wait::kNone;
    info.wait_lock = info.waiting ? node.wait_lock : kInvalidLockId;
    info.wait_mode = node.wait_mode;
    for (LockId lock : node.held) {
      auto lock_it = locks_.find(lock);
      const AcquireMode mode =
          lock_it != locks_.end() ? lock_it->second.mode : AcquireMode::kExclusive;
      info.held.push_back(RagThreadInfo::HeldLock{lock, mode});
    }
    info.yield_edges = node.yields.size();
    snap.yield_edge_count += info.yield_edges;
    snap.threads.push_back(std::move(info));
  }
  std::sort(snap.threads.begin(), snap.threads.end(),
            [](const RagThreadInfo& a, const RagThreadInfo& b) { return a.id < b.id; });
  return snap;
}

}  // namespace dimmunix
