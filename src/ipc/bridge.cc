// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/ipc/bridge.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/ipc/global_id.h"

namespace dimmunix {
namespace ipc {

std::size_t IpcBridge::EdgeKeyHash::operator()(const EdgeKey& k) const {
  std::uint64_t h = HashCombine(static_cast<std::uint64_t>(k.participant), k.generation);
  h = HashCombine(h, static_cast<std::uint64_t>(k.thread));
  h = HashCombine(h, k.lock);
  h = HashCombine(h, k.hold ? 1u : 0u);
  return static_cast<std::size_t>(h);
}

std::size_t IpcBridge::ThreadKeyHash::operator()(const ThreadKey& k) const {
  std::uint64_t h = HashCombine(static_cast<std::uint64_t>(k.participant), k.generation);
  h = HashCombine(h, static_cast<std::uint64_t>(k.thread));
  return static_cast<std::size_t>(h);
}

std::size_t IpcBridge::PendingKeyHash::operator()(const PendingKey& k) const {
  return static_cast<std::size_t>(HashCombine(static_cast<std::uint64_t>(k.thread), k.lock));
}

IpcBridge::IpcBridge(Options options, AvoidanceEngine* engine, StackTable* stacks,
                     obs::Recorder* recorder)
    : options_(std::move(options)), engine_(engine), stacks_(stacks), recorder_(recorder) {}

IpcBridge::~IpcBridge() { Stop(); }

bool IpcBridge::Start(std::string* error) {
  arena_ = IpcArena::OpenOrCreate(options_.arena_path, error);
  if (arena_ == nullptr) {
    return false;
  }
  engine_->SetGlobalPublisher(this);
  // First mirror pass runs synchronously: a runtime constructed lazily by
  // the very lock call that needs a foreign hold (the LD_PRELOAD cold
  // start) must not race its own bridge thread for the first snapshot.
  Tick();
  if (options_.start_thread) {
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
  }
  DIMMUNIX_LOG(kInfo) << "ipc: joined arena " << options_.arena_path << " as participant "
                      << arena_->participant_index() << " (generation "
                      << arena_->generation() << ")";
  return true;
}

void IpcBridge::Stop() {
  if (arena_ == nullptr) {
    return;
  }
  // Unhook the publisher first: application threads must not write to an
  // arena that is about to unmap.
  engine_->SetGlobalPublisher(nullptr);
  if (running_) {
    {
      std::lock_guard<std::mutex> guard(stop_m_);
      stop_requested_ = true;
    }
    stop_cv_.notify_all();
    thread_.join();
    running_ = false;
  }
  // Retract every mirrored foreign edge so the engine does not keep phantom
  // holders after the bridge is gone (a release wakes any local yielder).
  for (const auto& [key, m] : mirrored_) {
    RetireEdge(key, m);
  }
  mirrored_.clear();
  // Discard any undrained pending ops: the arena destructor clears this
  // participant's rows wholesale anyway, so replaying them would only
  // publish edges about to be scrubbed.
  {
    std::lock_guard<SpinLock> guard(pending_m_);
    pending_.clear();
    pending_ops_ = 0;
  }
  arena_.reset();  // clears own rows + releases the participant slot
}

void IpcBridge::Loop() {
  if (recorder_ != nullptr) {
    recorder_->NameThisThread("dimmunix-bridge");
  }
  // Two cadences on one thread: the mirror pass every `period`, the
  // pending-log drain every kFlushPeriod (usually much shorter). Wake at the
  // faster of the two; run a full Tick only when the mirror deadline has
  // passed, a bare FlushPending otherwise.
  const auto wake = std::min<std::chrono::steady_clock::duration>(kFlushPeriod, options_.period);
  auto next_tick = std::chrono::steady_clock::now() + options_.period;
  std::unique_lock<std::mutex> guard(stop_m_);
  while (!stop_requested_) {
    guard.unlock();
    if (std::chrono::steady_clock::now() >= next_tick) {
      Tick();  // flushes pending first, then mirrors
      next_tick = std::chrono::steady_clock::now() + options_.period;
    } else {
      FlushPending();
    }
    guard.lock();
    stop_cv_.wait_for(guard, wake, [this] { return stop_requested_; });
  }
}

ThreadId IpcBridge::SyntheticTid(const ThreadKey& key) {
  auto it = synthetic_tids_.find(key);
  if (it != synthetic_tids_.end()) {
    return it->second;
  }
  const ThreadId tid = next_synthetic_++;
  synthetic_tids_.emplace(key, tid);
  return tid;
}

void IpcBridge::RetireEdge(const EdgeKey& key, const Mirrored& m) {
  if (m.hold) {
    engine_->MirrorForeignRelease(m.synthetic, key.lock, m.stack, m.mode);
  } else {
    engine_->MirrorForeignWaitEnd(m.synthetic, key.lock, m.stack, m.mode);
  }
}

void IpcBridge::Tick() {
  // Drain own pending ops first: a mirror pass should never run with this
  // process's publications staler than one flush interval.
  FlushPending();
  const std::uint64_t tick_begin =
      recorder_ != nullptr && recorder_->tracing() ? obs::NowNs() : 0;
  std::uint64_t edges_folded = 0;  // engine mutations this tick (folds + retires)
  ++tick_count_;
  arena_->Heartbeat();
  if (options_.sweep_every > 0 &&
      tick_count_ % static_cast<std::uint64_t>(options_.sweep_every) == 0) {
    reclaimed_total_ += static_cast<std::uint64_t>(arena_->SweepDeadParticipants());
  }

  // Three passes, retires strictly before folds. A wait -> hold promotion
  // rewrites one arena row, which under the kind-qualified EdgeKey appears
  // as one key vanishing and another appearing; retiring the stale wait
  // BEFORE folding the hold keeps the engine's tuple set from ever pairing
  // a fold with the wrong pre-existing tuple (RemoveTuple falls back to any
  // (thread, lock) match when the edge kind differs).
  const std::vector<ForeignEdge> edges = arena_->SnapshotForeign();

  // Expand each foreign edge to its fold targets: the published lock id
  // itself plus — for fcntl byte-range edges (protocol v2 publishers) —
  // every locally-registered range id that overlaps it. The kernel
  // conflicts on overlap, not id equality, so a foreign [0,16) wait must
  // appear in the local RAG under our [8,32) id too or the cycle has a gap.
  struct Target {
    const ForeignEdge* edge;
    LockId lock;
  };
  std::vector<Target> targets;
  targets.reserve(edges.size());
  for (const ForeignEdge& edge : edges) {
    targets.push_back(Target{&edge, edge.lock});
    if (edge.range.valid()) {
      for (const LockId alias : OverlappingLockIds(edge.range, edge.lock)) {
        targets.push_back(Target{&edge, alias});
      }
    }
  }

  // Pass 1: mark unchanged mirrored edges as seen; collect the rest.
  std::vector<Target> to_fold;
  for (const Target& target : targets) {
    const ForeignEdge& edge = *target.edge;
    const EdgeKey key{edge.participant, edge.generation, edge.thread, target.lock, edge.hold};
    auto it = mirrored_.find(key);
    if (it != mirrored_.end() && it->second.mode == edge.mode) {
      it->second.seen_tick = tick_count_;  // unchanged
      continue;
    }
    if (edge.frames.empty()) {
      continue;  // unpublishable record; skip (never mirror a stackless edge)
    }
    to_fold.push_back(target);
  }

  // Pass 2: anything not seen this tick disappeared — released, canceled,
  // promoted/demoted to the other edge kind, mode-changed, or the
  // participant died (sweep or slot reuse). Fold the removal in; releases
  // wake local yielders blocked on the vanished holder.
  for (auto it = mirrored_.begin(); it != mirrored_.end();) {
    if (it->second.seen_tick != tick_count_) {
      RetireEdge(it->first, it->second);
      it = mirrored_.erase(it);
      ++edges_folded;
    } else {
      ++it;
    }
  }

  // Pass 3: fold the new edges.
  for (const Target& target : to_fold) {
    const ForeignEdge* edge = target.edge;
    const EdgeKey key{edge->participant, edge->generation, edge->thread, target.lock,
                      edge->hold};
    const StackId stack = stacks_->Intern(edge->frames);
    const ThreadId tid =
        SyntheticTid(ThreadKey{edge->participant, edge->generation, edge->thread});
    if (edge->hold) {
      engine_->MirrorForeignHold(tid, target.lock, stack, edge->mode);
    } else {
      engine_->MirrorForeignWait(tid, target.lock, stack, edge->mode);
    }
    ++edges_folded;
    mirrored_.insert_or_assign(key,
                               Mirrored{tid, stack, edge->hold, edge->mode, tick_count_});
  }

  {
    std::lock_guard<std::mutex> guard(status_m_);
    status_ticks_ = tick_count_;
    status_mirrored_ = mirrored_.size();
    status_reclaimed_ = reclaimed_total_;
  }
  if (tick_begin != 0) {
    const std::uint64_t end_ns = obs::NowNs();
    recorder_->Span(obs::TraceEventType::kBridgeFold, end_ns, end_ns - tick_begin,
                    /*aux=*/0, /*mode=*/0, edges_folded);
  }
}

IpcStatus IpcBridge::SnapshotStatus() const {
  IpcStatus status;
  status.arena_path = options_.arena_path;
  const GlobalIdCacheStats cache = GlobalIdCacheCounters();
  status.id_cache_hits = cache.hits;
  status.id_cache_misses = cache.misses;
  if (arena_ == nullptr) {
    return status;
  }
  status.running = true;
  status.participant = arena_->participant_index();
  status.generation = arena_->generation();
  status.dropped_publishes = arena_->dropped_publishes();
  status.flushes = flush_count_.load(std::memory_order_relaxed);
  status.flush_ops = flush_ops_total_.load(std::memory_order_relaxed);
  {
    std::lock_guard<SpinLock> guard(pending_m_);
    status.pending_ops = pending_ops_;
  }
  {
    std::lock_guard<std::mutex> guard(status_m_);
    status.ticks = status_ticks_;
    status.foreign_edges_mirrored = status_mirrored_;
    status.participants_reclaimed = status_reclaimed_;
  }
  status.participants = arena_->Participants();
  return status;
}

Frame IpcBridge::ProcFrame() const { return ProcessIdentityFrame(); }

void IpcBridge::Append(ThreadId thread, LockId lock, OpKind kind, StackId stack,
                       AcquireMode mode) {
  bool overflow = false;
  {
    std::lock_guard<SpinLock> guard(pending_m_);
    PendingEntry& entry = pending_[PendingKey{thread, lock}];
    std::vector<PendingOp>& ops = entry.ops;
    // Coalesce against the trailing op of the same (thread, lock). The net
    // effect on the arena row is all that matters, so:
    //   Wait over trailing Wait         -> replace (mode/stack refresh)
    //   Hold over trailing Wait         -> replace (the commit subsumes the
    //                                      request; replay is one PublishHold,
    //                                      which bumps the hold count exactly
    //                                      like the eager wait+hold pair)
    //   ClearWait popping trailing Wait -> both vanish (canceled request)
    //   ClearHold popping trailing Hold -> both vanish (uncontended critical
    //                                      section: zero arena writes)
    // Popping to an EMPTY log is only a true no-op when the arena holds no
    // row for this key. If an earlier flush already published a wait, the
    // popped pair was the very thing that would have cleared (ClearWait) or
    // replaced (the grant's PublishHold) that row — so a compensating
    // ClearWait is enqueued in its place; the arena-row shadow in the entry
    // says when. (A standing hold row needs no compensation here: the
    // popped Hold/ClearHold pair nets to zero on its reentrant count.)
    const auto reconcile_flushed_wait = [&] {
      if (ops.empty() && entry.arena_wait) {
        ops.push_back(
            PendingOp{OpKind::kClearWait, kInvalidStackId, AcquireMode::kExclusive});
        ++pending_ops_;
      }
    };
    switch (kind) {
      case OpKind::kWait:
      case OpKind::kHold:
        if (!ops.empty() && ops.back().kind == OpKind::kWait) {
          ops.back() = PendingOp{kind, stack, mode};
        } else {
          ops.push_back(PendingOp{kind, stack, mode});
          ++pending_ops_;
        }
        break;
      case OpKind::kClearWait:
        if (!ops.empty() && ops.back().kind == OpKind::kWait) {
          ops.pop_back();
          --pending_ops_;
          reconcile_flushed_wait();
        } else {
          ops.push_back(PendingOp{kind, stack, mode});
          ++pending_ops_;
        }
        break;
      case OpKind::kClearHold:
        if (!ops.empty() && ops.back().kind == OpKind::kHold) {
          ops.pop_back();
          --pending_ops_;
          reconcile_flushed_wait();
        } else {
          ops.push_back(PendingOp{kind, stack, mode});
          ++pending_ops_;
        }
        break;
    }
    // Emptied keys stay in the map: the next op on the same (thread, lock)
    // reuses the node and the vector's capacity instead of re-allocating —
    // and the arena-row shadow must outlive the ops it was advanced by.
    overflow = pending_ops_ >= kPendingFlushCap;
  }
  if (overflow) {
    FlushPending();
  }
}

void IpcBridge::FlushPending() {
  // Peek without the flush lock: the common case (timer fired, nothing
  // pending) must cost two spinlock-free-ish operations, not a full drain
  // protocol.
  {
    std::lock_guard<SpinLock> guard(pending_m_);
    // pending_ may hold emptied-but-kept keys; the op counter is the truth.
    if (pending_ops_ == 0) {
      return;
    }
  }
  const bool timing = recorder_ != nullptr && recorder_->timing();
  const std::uint64_t begin_ns = timing ? obs::NowNs() : 0;
  std::uint64_t ops_drained = 0;
  std::uint64_t rows_written = 0;
  {
    // flush_m_ before detaching: a racing flusher that detached first could
    // otherwise replay a NEWER batch of some key's ops before ours. It also
    // guards flush_scratch_, which is reused across flushes so the steady
    // state drains with zero allocations (map nodes, per-key vector capacity
    // and the scratch buffer all persist).
    std::lock_guard<SpinLock> flush_guard(flush_m_);
    {
      std::lock_guard<SpinLock> guard(pending_m_);
      for (auto& [key, entry] : pending_) {
        for (const PendingOp& op : entry.ops) {
          flush_scratch_.emplace_back(key, op);
          // Advance the arena-row shadow at staging time, not at the actual
          // arena write below (which runs under flush_m_ only): an Append
          // racing the replay lands in a later batch that flush_m_ orders
          // strictly after this one, so a compensating ClearWait it decides
          // to enqueue can never be replayed ahead of these ops.
          switch (op.kind) {
            case OpKind::kWait:
              entry.arena_wait = true;
              break;
            case OpKind::kClearWait:
              entry.arena_wait = false;
              break;
            case OpKind::kHold:
              // PublishHold frees any standing wait/upgrade row.
              entry.arena_wait = false;
              ++entry.arena_holds;
              break;
            case OpKind::kClearHold:
              if (entry.arena_holds > 0) {
                --entry.arena_holds;
              }
              if (entry.arena_holds == 0) {
                // Freeing the last hold frees the (defensive) upgrade wait
                // row too; on a wait-state row ClearHold frees it outright.
                entry.arena_wait = false;
              }
              break;
          }
        }
        entry.ops.clear();
      }
      pending_ops_ = 0;
    }
    for (const auto& [key, op] : flush_scratch_) {
      switch (op.kind) {
        case OpKind::kWait:
          arena_->PublishWait(key.thread, key.lock, op.mode, stacks_->Get(op.stack).frames,
                              LookupLockRange(key.lock));
          ++rows_written;
          break;
        case OpKind::kClearWait:
          arena_->ClearWait(key.thread, key.lock);
          break;
        case OpKind::kHold:
          arena_->PublishHold(key.thread, key.lock, op.mode, stacks_->Get(op.stack).frames,
                              LookupLockRange(key.lock));
          ++rows_written;
          break;
        case OpKind::kClearHold:
          arena_->ClearHold(key.thread, key.lock);
          break;
      }
      ++ops_drained;
    }
    flush_scratch_.clear();
    if (ops_drained > 0) {
      arena_->BumpFlushSeq();
    }
  }
  flush_count_.fetch_add(1, std::memory_order_relaxed);
  flush_ops_total_.fetch_add(ops_drained, std::memory_order_relaxed);
  if (timing) {
    const std::uint64_t end_ns = obs::NowNs();
    recorder_->Latency(obs::HistoKind::kIpcFlush, end_ns - begin_ns);
    // The span's aux field is 16 bits; saturate instead of wrapping for
    // pathological drains (long timer stalls across many keys).
    const auto aux_rows =
        static_cast<std::uint16_t>(std::min<std::uint64_t>(rows_written, 0xFFFF));
    recorder_->Span(obs::TraceEventType::kIpcFlush, end_ns, end_ns - begin_ns, aux_rows,
                    /*mode=*/0, ops_drained);
  }
}

void IpcBridge::PublishWait(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) {
  Append(thread, lock, OpKind::kWait, stack, mode);
}

void IpcBridge::ClearWait(ThreadId thread, LockId lock) {
  Append(thread, lock, OpKind::kClearWait, kInvalidStackId, AcquireMode::kExclusive);
}

void IpcBridge::PublishHold(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) {
  Append(thread, lock, OpKind::kHold, stack, mode);
}

void IpcBridge::ClearHold(ThreadId thread, LockId lock) {
  Append(thread, lock, OpKind::kClearHold, kInvalidStackId, AcquireMode::kExclusive);
}

}  // namespace ipc
}  // namespace dimmunix
