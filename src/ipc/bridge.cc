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

std::size_t IpcBridge::LocalKeyHash::operator()(const LocalKey& k) const {
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
  // Discard the edge states: the arena destructor clears this
  // participant's rows wholesale anyway, so flushing them would only
  // publish edges about to be scrubbed.
  {
    std::lock_guard<SpinLock> flush_guard(flush_m_);
    std::lock_guard<SpinLock> guard(pending_m_);
    states_.clear();
    queued_.clear();
    differing_ = 0;
  }
  arena_.reset();  // clears own rows + releases the participant slot
}

void IpcBridge::Loop() {
  if (recorder_ != nullptr) {
    recorder_->NameThisThread("dimmunix-bridge");
  }
  // Two cadences on one thread: the mirror pass every `period`, the
  // flush every kFlushPeriod (usually much shorter). Wake at the
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
  // Flush first: a mirror pass should never run with this process's
  // publications staler than one flush interval.
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
    status.pending_ops = differing_;
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

template <typename Apply>
void IpcBridge::Update(ThreadId thread, LockId lock, Apply apply) {
  std::lock_guard<SpinLock> guard(pending_m_);
  auto [it, inserted] = states_.try_emplace(LocalKey{thread, lock});
  EdgeState& state = it->second;
  if (inserted) {
    state.thread = thread;
    state.lock = lock;
  }
  const bool differed = state.want != state.shown;
  apply(state.want);
  const bool differs = state.want != state.shown;
  if (differs && !state.queued) {
    state.queued = true;
    queued_.push_back(&state);
  }
  differing_ = differing_ + differs - differed;
}

void IpcBridge::PublishWait(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) {
  Update(thread, lock, [&](Edges& edges) { edges.wait = Edge{true, mode, stack, 0}; });
}

void IpcBridge::ClearWait(ThreadId thread, LockId lock) {
  Update(thread, lock, [](Edges& edges) { edges.wait = Edge{}; });
}

void IpcBridge::PublishHold(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) {
  // The commit ends the request; a reentrant one deepens the standing hold.
  Update(thread, lock, [&](Edges& edges) {
    edges.hold = Edge{true, mode, stack, edges.hold.count + 1};
    edges.wait = Edge{};
  });
}

void IpcBridge::ClearHold(ThreadId thread, LockId lock) {
  // A reentrant release keeps the hold one level shallower; the final one
  // clears the key (and any request still standing on it).
  Update(thread, lock, [](Edges& edges) {
    if (edges.hold.count > 1) {
      --edges.hold.count;
    } else {
      edges = Edges{};
    }
  });
}

void IpcBridge::SyncRow(const EdgeState& state, int* row, const Edge& was, const Edge& want,
                        bool hold, FlushTally* tally) {
  if (want == was) {
    return;  // unchanged — or dropped, and unchanged since
  }
  if (!want.present) {
    if (*row >= 0) {
      arena_->FreeRow(*row);
      *row = -1;
      ++tally->frees;
    }
    return;
  }
  if (*row < 0 && (*row = arena_->AllocRow()) < 0) {
    return;  // arena full: counted as dropped, unpublished until it changes
  }
  arena_->WriteRow(*row, state.thread, state.lock, hold, want.mode, want.count,
                   stacks_->Get(want.stack).frames, LookupLockRange(state.lock));
  ++tally->writes;
}

void IpcBridge::FlushPending() {
  // Peek without the flush lock: the common case (timer fired, every key
  // published) must cost one uncontended spin lock, not a reconcile pass.
  {
    std::lock_guard<SpinLock> guard(pending_m_);
    if (differing_ == 0) {
      return;
    }
  }
  const bool timing = recorder_ != nullptr && recorder_->timing();
  const std::uint64_t begin_ns = timing ? obs::NowNs() : 0;
  std::uint64_t keys = 0;
  FlushTally tally;
  {
    // flush_m_ serializes flushers end to end, and each reads a key's
    // desired state at the moment it reconciles that key: a later flusher
    // always reads a state at least as new, so no flusher can publish an
    // older state over a newer one.
    std::lock_guard<SpinLock> flush_guard(flush_m_);
    {
      std::lock_guard<SpinLock> guard(pending_m_);
      flushing_.swap(queued_);
    }
    for (EdgeState* state : flushing_) {
      Edges was;
      Edges want;
      {
        std::lock_guard<SpinLock> guard(pending_m_);
        state->queued = false;
        if (state->want == state->shown) {
          continue;  // returned to its published state since it was queued
        }
        was = state->shown;
        want = state->want;
        state->shown = want;
        --differing_;
      }
      ++keys;
      // One edge kind leaving as the other arrives (a grant ending its
      // wait, a new request right after the final release) hands its row
      // over: one seqlock write, so a peer never sees the lock unclaimed
      // in between.
      if (was.wait.present != want.wait.present && was.hold.present != want.hold.present &&
          want.wait.present != want.hold.present) {
        std::swap(state->wait_row, state->hold_row);
        std::swap(was.wait, was.hold);
      }
      SyncRow(*state, &state->hold_row, was.hold, want.hold, /*hold=*/true, &tally);
      SyncRow(*state, &state->wait_row, was.wait, want.wait, /*hold=*/false, &tally);
    }
    flushing_.clear();
    if (tally.writes + tally.frees > 0) {
      arena_->BumpFlushSeq();
    }
  }
  if (keys == 0) {
    return;  // every queued key netted out before this flusher reached it
  }
  const std::uint64_t ops = tally.writes + tally.frees;
  flush_count_.fetch_add(1, std::memory_order_relaxed);
  flush_ops_total_.fetch_add(ops, std::memory_order_relaxed);
  if (timing) {
    const std::uint64_t end_ns = obs::NowNs();
    recorder_->Latency(obs::HistoKind::kIpcFlush, end_ns - begin_ns);
    // The span's aux field is 16 bits; saturate instead of wrapping.
    const auto aux_rows =
        static_cast<std::uint16_t>(std::min<std::uint64_t>(tally.writes, 0xFFFF));
    recorder_->Span(obs::TraceEventType::kIpcFlush, end_ns, end_ns - begin_ns, aux_rows,
                    /*mode=*/0, ops);
  }
}

}  // namespace ipc
}  // namespace dimmunix
