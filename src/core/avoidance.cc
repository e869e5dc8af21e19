// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/core/avoidance.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/stack/capture.h"

namespace dimmunix {
namespace {

constexpr std::size_t kNotCandidate = ~std::size_t{0};

// Config::engine_stripes rounded up to a power of two; 0 (the default) means
// 2*nproc rounded up, so collisions stay rare when threads outnumber cores.
std::size_t StripeCountFor(const Config& config) {
  if (config.engine_stripes > 0) {
    return std::bit_ceil(static_cast<std::size_t>(config.engine_stripes));
  }
  const unsigned cores = std::thread::hardware_concurrency();
  return std::bit_ceil(2 * static_cast<std::size_t>(cores > 0 ? cores : 4));
}

// Engine re-entrancy guard. Under LD_PRELOAD interposition, the engine's own
// internal mutexes (a yielder's park_m, the monitor's run_m_) resolve to the
// interposed pthread symbols on threads that carry no shim-side guard (the
// monitor, the IPC bridge). Without this flag, a WakeYieldersOf — which
// holds the yield_m_ spin lock while touching a yielder's park_m — would
// recurse through the instrumented unlock back into Release ->
// WakeYieldersOf and spin on its own yield_m_ forever. Any entry point
// reached while another entry point is already on this thread's stack is an
// engine-internal lock operation and must not be instrumented.
thread_local bool tls_in_engine = false;

class ScopedEngineEntry {
 public:
  ScopedEngineEntry() : nested_(tls_in_engine) { tls_in_engine = true; }
  ~ScopedEngineEntry() {
    if (!nested_) {
      tls_in_engine = false;
    }
  }
  ScopedEngineEntry(const ScopedEngineEntry&) = delete;
  ScopedEngineEntry& operator=(const ScopedEngineEntry&) = delete;

  bool nested() const { return nested_; }

 private:
  const bool nested_;
};

Event MakeEvent(EventType type, ThreadId thread, LockId lock, StackId stack, AcquireMode mode) {
  Event ev;
  ev.type = type;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  return ev;
}

// `slot`'s entry for `lock`, or null when the thread does not hold it. A
// request for a held lock is reentrant or a shared -> exclusive upgrade; an
// upgrade's held shared tuple can serve as the instance's requester edge,
// so its candidates cannot be scoped to its slot.
ThreadSlot::Held* FindHeld(ThreadSlot& slot, LockId lock) {
  for (ThreadSlot::Held& held : slot.held) {
    if (held.lock == lock) {
      return &held;
    }
  }
  return nullptr;
}

// Reentrant acquisition can never deadlock, so it skips avoidance (§6: a
// thread re-entering a monitor returns immediately). An exclusive owner
// re-requesting in any mode and a shared holder re-requesting shared are
// reentrant; a shared holder requesting exclusive is an *upgrade* and runs
// the full protocol — upgrade cycles are exactly the rwlock deadlocks the
// engine must see. The thread's own holds live in its slot, so this takes
// no lock.
bool IsReentrant(ThreadSlot& slot, LockId lock, AcquireMode mode) {
  const ThreadSlot::Held* held = FindHeld(slot, lock);
  return held != nullptr && (held->mode == AcquireMode::kExclusive || mode == AcquireMode::kShared);
}

// Captures the requesting thread's stack into `captured`, proc-qualified
// when `pub` publishes the lock fleet-wide, and interns it. `captured` is
// the caller's, so it stays alive until the request returns: freeing it
// before the match measurably lengthened the acquire path. Always inlined,
// so the native capture still starts at the requester's caller.
[[gnu::always_inline]] inline StackId CaptureStackId(StackTable& stacks, GlobalEdgePublisher* pub,
                                                     std::vector<Frame>& captured) {
  captured = CaptureStack();
  if (pub != nullptr) {
    captured.insert(captured.begin(), pub->ProcFrame());
  }
  return stacks.Intern(captured);
}

}  // namespace

AvoidanceEngine::AvoidanceEngine(const Config& config, StackTable* stacks, History* history,
                                 EventQueue* queue, obs::Recorder* recorder)
    : config_(config),
      stacks_(stacks),
      history_(history),
      queue_(queue),
      recorder_(recorder),
      slot_stripe_mask_(StripeCountFor(config) - 1),
      slot_stripes_(std::make_unique<SlotStripe[]>(slot_stripe_mask_ + 1)) {
  auto initial = std::make_unique<SigGen>();  // version kStaleVersion, no entries
  gen_.store(initial.get(), std::memory_order_release);
  retired_gens_.push_back(std::move(initial));
}

AvoidanceEngine::~AvoidanceEngine() = default;

AvoidanceEngine::SlotEpochGuard::SlotEpochGuard(AvoidanceEngine& engine) : engine_(engine) {
  // Epoch entry is rare — only cache rebuilds and snapshots land here — so
  // the wait and hold are *always* measured: the clock reads feed the
  // epoch_entries / epoch_stall_ns / epoch_hold_ns counters that
  // `dimctl status` reports with tracing off.
  const std::uint64_t wait_begin = obs::NowNs();
  for (std::size_t i = 0; i <= engine_.slot_stripe_mask_; ++i) {
    engine_.slot_stripes_[i].lock.Lock();
  }
  entered_ns_ = obs::NowNs();
  stall_ns_ = entered_ns_ - wait_begin;
  engine_.stats_.epoch_entries.fetch_add(1, std::memory_order_relaxed);
  engine_.stats_.epoch_stall_ns.fetch_add(stall_ns_, std::memory_order_relaxed);
}

AvoidanceEngine::SlotEpochGuard::~SlotEpochGuard() {
  // Hold time ends where the stripes release; the histogram/ring pushes
  // happen after the unlocks so the export work itself never extends the
  // epoch. Debug builds assert kEpochHoldBound — the epoch is allowed to be
  // slow-path-rare, never slow-path-long.
  const std::uint64_t end_ns = obs::NowNs();
  const std::uint64_t hold_ns = end_ns - entered_ns_;
  assert(hold_ns <= static_cast<std::uint64_t>(
                        std::chrono::nanoseconds(kEpochHoldBound).count()) &&
         "stop-the-stripes epoch held past kEpochHoldBound");
  for (std::size_t i = engine_.slot_stripe_mask_ + 1; i-- > 0;) {
    engine_.slot_stripes_[i].lock.Unlock();
  }
  engine_.stats_.epoch_hold_ns.fetch_add(hold_ns, std::memory_order_relaxed);
  obs::Recorder* recorder = engine_.recorder_;
  if (recorder != nullptr && recorder->timing()) {
    recorder->Latency(obs::HistoKind::kEpochHold, hold_ns);
    recorder->Span(obs::TraceEventType::kEpoch, end_ns, hold_ns, /*aux=*/0, /*mode=*/0,
                   /*data=*/stall_ns_);
  }
}

AvoidanceEngine::StackSlot* AvoidanceEngine::SlotFor(StackId id) {
  const std::size_t want = static_cast<std::size_t>(id);
  if (want < stack_slots_.size()) {
    return stack_slots_.Get(want);
  }
  std::lock_guard<SpinLock> guard(slot_growth_lock_);
  while (stack_slots_.size() <= want) {
    stack_slots_.Append();
  }
  return stack_slots_.Get(want);
}

std::vector<std::uint32_t> AvoidanceEngine::ComputeMemberships(StackId stack,
                                                               const SigGen& gen) const {
  std::vector<std::uint32_t> memberships;
  for (std::size_t c = 0; c < gen.classes.size(); ++c) {
    if (stacks_->MatchesAtDepth(stack, gen.classes[c].rep, gen.classes[c].depth)) {
      memberships.push_back(static_cast<std::uint32_t>(c));
    }
  }
  return memberships;
}

void AvoidanceEngine::EnsureMemberships(StackId stack, StackSlot* slot, const SigGen& gen) {
  if (slot->member_version != gen.version) {
    slot->memberships = ComputeMemberships(stack, gen);
    slot->member_version = gen.version;
  }
}

AvoidanceEngine::FastScratch& AvoidanceEngine::MatchScratch() {
  thread_local FastScratch scratch;
  return scratch;
}

bool AvoidanceEngine::EveryPositionLive(const SigGen& gen, const SigGen::Entry& sig) {
  if (sig.sig_stacks.empty()) {
    return false;
  }
  for (std::size_t j = 0; j < sig.sig_stacks.size(); ++j) {
    if (gen.live[sig.cls[j]].load(std::memory_order_seq_cst) < sig.need[j]) {
      return false;
    }
  }
  return true;
}

void AvoidanceEngine::CollectCandidates(const SigGen& gen,
                                        const std::vector<std::uint32_t>* classes,
                                        std::vector<std::size_t>* out) {
  out->clear();
  if (classes == nullptr) {
    for (std::size_t e = 0; e < gen.entries.size(); ++e) {
      if (EveryPositionLive(gen, gen.entries[e])) {
        out->push_back(e);
      }
    }
    return;
  }
  // A stack is in at most one class per depth, and an entry's positions,
  // all at its depth, are adjacent in their class: no entry repeats.
  for (const std::uint32_t c : *classes) {
    std::size_t last = kNotCandidate;
    for (const std::uint32_t pack : gen.classes[c].positions) {
      const std::size_t e = pack >> kPosBits;
      if (e != last && EveryPositionLive(gen, gen.entries[e])) {
        out->push_back(e);
      }
      last = e;
    }
  }
  // The cover search takes the first match: keep it in history order.
  std::sort(out->begin(), out->end());
}

void AvoidanceEngine::AddTupleLocked(SlotStripe& stripe, StackId stack, StackSlot* slot,
                                     const AllowedTuple& tuple, FastScratch* scratch) {
  const SigGen* gen = CurrentGen();  // stable: rebuilds need every stripe, we hold one
  EnsureMemberships(stack, slot, *gen);
  slot->tuples.push_back(tuple);
  ++stripe.version;
  if (slot->live_index < 0) {
    slot->live_index = static_cast<int>(stripe.live.size());
    stripe.live.push_back(stack);
  }
  // seq_cst: pairs with the seq_cst candidate reads so two racing
  // requesters cannot both miss each other's tentative tuple: if requester
  // A's read of B's class counter misses B's add, then in the seq_cst total
  // order A's add precedes B's add — so B's reads (which run after its own
  // add) observe A's tuple.
  for (const std::uint32_t c : slot->memberships) {
    gen->live[c].fetch_add(1, std::memory_order_seq_cst);
  }
  if (scratch != nullptr) {
    // The requester's candidates, read after its own seq_cst adds above. A
    // valid instance must use the requester's new allow edge, which only its
    // own slot's classes can hold.
    scratch->own_version = gen->version;
    CollectCandidates(*gen, &slot->memberships, &scratch->own_cands);
  }
}

void AvoidanceEngine::RemoveTupleLocked(SlotStripe& stripe, StackId stack, StackSlot* slot,
                                        ThreadId thread, LockId lock, bool held) {
  auto& tuples = slot->tuples;
  auto victim = tuples.end();
  for (auto it = tuples.begin(); it != tuples.end(); ++it) {
    if (it->thread == thread && it->lock == lock) {
      if (it->held == held) {
        victim = it;
        break;
      }
      if (victim == tuples.end()) {
        victim = it;
      }
    }
  }
  if (victim == tuples.end()) {
    return;
  }
  tuples.erase(victim);
  ++stripe.version;
  if (tuples.empty() && slot->live_index >= 0) {
    // Swap-remove from the stripe's live list.
    const std::size_t at = static_cast<std::size_t>(slot->live_index);
    const StackId moved = stripe.live.back();
    stripe.live[at] = moved;
    stripe.live.pop_back();
    if (moved != stack) {
      stack_slots_.Get(static_cast<std::size_t>(moved))->live_index = static_cast<int>(at);
    }
    slot->live_index = -1;
  }
  const SigGen* gen = CurrentGen();
  // Invariant: a slot that held tuples has memberships current w.r.t. the
  // published generation (adds refresh lazily; rebuilds visit live slots).
  EnsureMemberships(stack, slot, *gen);
  for (const std::uint32_t c : slot->memberships) {
    gen->live[c].fetch_sub(1, std::memory_order_seq_cst);
  }
}

void AvoidanceEngine::AddTuple(StackId stack, const AllowedTuple& tuple, FastScratch* scratch) {
  StackSlot* slot = SlotFor(stack);
  SlotStripe& stripe = StripeOf(stack);
  std::lock_guard<SpinLock> guard(stripe.lock);
  AddTupleLocked(stripe, stack, slot, tuple, scratch);
}

void AvoidanceEngine::RemoveTuple(StackId stack, ThreadId thread, LockId lock, bool held) {
  StackSlot* slot = SlotFor(stack);
  SlotStripe& stripe = StripeOf(stack);
  std::lock_guard<SpinLock> guard(stripe.lock);
  RemoveTupleLocked(stripe, stack, slot, thread, lock, held);
}

const AvoidanceEngine::SigGen* AvoidanceEngine::AcquireGenRef(ThreadSlot& slot) const {
  // Classic hazard-pointer protocol: publish, then re-validate. If the
  // pointer is still current after the (seq_cst) publish, any reclaimer
  // that later supersedes it must also observe our hazard slot.
  for (;;) {
    const SigGen* gen = gen_.load(std::memory_order_seq_cst);
    slot.sig_gen_hazard.store(gen, std::memory_order_seq_cst);
    if (gen_.load(std::memory_order_seq_cst) == gen) {
      return gen;
    }
  }
}

void AvoidanceEngine::RefreshGen() {
  std::lock_guard<SpinLock> sig_guard(sig_mutex_);
  // Read the version before the signatures: if the history mutates during
  // the build, the next staleness check triggers another rebuild.
  const std::uint64_t version = history_->version();
  if (CurrentGen()->version == version) {
    return;  // another thread already rebuilt
  }
  auto gen = std::make_unique<SigGen>();
  gen->version = version;
  history_->ForEach([&gen](int index, const Signature& sig) {
    // A position past 1 << kPosBits cannot be packed, so such a signature
    // could never be matched; it stays out of the cache.
    if (sig.disabled || sig.stacks.size() > (std::size_t{1} << kPosBits)) {
      return;
    }
    SigGen::Entry entry;
    entry.index = index;
    entry.depth = sig.match_depth;
    entry.sig_stacks = sig.stacks;
    gen->entries.push_back(std::move(entry));
  });
  // Group positions into classes: look up by suffix hash, confirm against
  // the representative.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> class_index;
  for (std::size_t e = 0; e < gen->entries.size(); ++e) {
    SigGen::Entry& entry = gen->entries[e];
    const std::size_t hash_at =
        static_cast<std::size_t>(std::clamp(entry.depth, 1, stacks_->max_depth()) - 1);
    const std::size_t k = entry.sig_stacks.size();
    entry.cls.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      const StackId id = entry.sig_stacks[j];
      std::vector<std::uint32_t>& bucket = class_index[stacks_->Get(id).depth_hash[hash_at]];
      auto it = std::find_if(bucket.begin(), bucket.end(), [&](std::uint32_t c) {
        const SigGen::Class& cls = gen->classes[c];
        return cls.depth == entry.depth && stacks_->MatchesAtDepth(id, cls.rep, cls.depth);
      });
      if (it == bucket.end()) {
        it = bucket.insert(it, static_cast<std::uint32_t>(gen->classes.size()));
        gen->classes.push_back(SigGen::Class{entry.depth, id, {}});
      }
      entry.cls[j] = *it;
      gen->classes[*it].positions.push_back(static_cast<std::uint32_t>((e << kPosBits) | j));
    }
    entry.need.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      entry.need[j] = std::count(entry.cls.begin(), entry.cls.end(), entry.cls[j]);
    }
  }
  gen->live = std::make_unique<std::atomic<std::int64_t>[]>(gen->classes.size());
  {
    // Stop the stripes: recompute every live slot's memberships against the
    // new generation and seed its class counters, then publish.
    SlotEpochGuard epoch(*this);
    for (std::size_t s = 0; s <= slot_stripe_mask_; ++s) {
      for (const StackId id : slot_stripes_[s].live) {
        StackSlot* slot = stack_slots_.Get(static_cast<std::size_t>(id));
        slot->memberships = ComputeMemberships(id, *gen);
        slot->member_version = gen->version;
        for (const std::uint32_t c : slot->memberships) {
          gen->live[c].fetch_add(static_cast<std::int64_t>(slot->tuples.size()),
                                 std::memory_order_relaxed);
        }
      }
    }
    gen_.store(gen.get(), std::memory_order_seq_cst);
    retired_gens_.push_back(std::move(gen));

    // Reclaim superseded generations. Safe here because (a) we hold every
    // stripe, so no AddTuple/RemoveTuple holds an old pointer, and (b)
    // lock-free readers pin theirs via a hazard slot — published seq_cst
    // before re-validating against gen_, so a reader whose pointer was still
    // current when it validated is visible to this scan (its publish
    // precedes our gen_ store in the seq_cst order).
    const SigGen* current = gen_.load(std::memory_order_relaxed);
    std::vector<const void*> hazards;
    const std::size_t threads = registry_.size();
    hazards.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      const void* hazard = registry_.Slot(static_cast<ThreadId>(t))
                               .sig_gen_hazard.load(std::memory_order_seq_cst);
      if (hazard != nullptr) {
        hazards.push_back(hazard);
      }
    }
    std::erase_if(retired_gens_, [&](const std::unique_ptr<SigGen>& g) {
      return g.get() != current &&
             std::find(hazards.begin(), hazards.end(), g.get()) == hazards.end();
    });
  }
}

bool AvoidanceEngine::CoverPositions(
    const SigGen::Entry& sig,
    const std::vector<std::vector<std::pair<StackId, AllowedTuple>>>& pools, std::size_t pos,
    CoverScratch& cover, ThreadId requester, LockId req_lock) {
  if (pos == sig.sig_stacks.size()) {
    return cover.requester_used;  // a valid instance must include the new allow edge
  }
  for (const auto& [candidate, tuple] : pools[pos]) {
    if (cover.UsesThread(tuple.thread) || !cover.used_locks.CanUse(tuple.lock, tuple.mode)) {
      continue;
    }
    const bool is_requester = (tuple.thread == requester && tuple.lock == req_lock);
    cover.used_threads.push_back(tuple.thread);
    cover.used_locks.Push(tuple.lock, tuple.mode);
    cover.chosen.push_back(tuple);
    cover.chosen_stacks.push_back(candidate);
    if (is_requester) {
      cover.requester_used = true;
    }
    if (CoverPositions(sig, pools, pos + 1, cover, requester, req_lock)) {
      return true;
    }
    if (is_requester) {
      cover.requester_used = false;
    }
    cover.chosen.pop_back();
    cover.chosen_stacks.pop_back();
    cover.used_threads.pop_back();
    cover.used_locks.Pop(tuple.lock);
  }
  return false;
}

bool AvoidanceEngine::FillPools(const SigGen& gen, const std::vector<std::size_t>& cands,
                                FastScratch& scratch) {
  auto& pools = scratch.pools;
  if (pools.size() < cands.size()) {
    pools.resize(cands.size());
  }
  auto& cand_of = scratch.cand_of;
  if (cand_of.size() < gen.entries.size()) {
    cand_of.resize(gen.entries.size(), kNotCandidate);
  }
  for (std::size_t c = 0; c < cands.size(); ++c) {
    cand_of[cands[c]] = c;
    const std::size_t positions = gen.entries[cands[c]].sig_stacks.size();
    if (pools[c].size() < positions) {
      pools[c].resize(positions);
    }
    for (auto& pool : pools[c]) {
      pool.clear();  // clear, never shrink: capacity persists across requests
    }
  }
  // Iterating live slots (≈ two per running thread) beats iterating
  // candidate stacks (every interned stack matching a signature suffix).
  const auto scan_stripe = [&](std::size_t s) {
    for (const StackId id : slot_stripes_[s].live) {
      StackSlot* live_slot = stack_slots_.Get(static_cast<std::size_t>(id));
      if (live_slot->member_version != gen.version) {
        return false;
      }
      for (const std::uint32_t cls : live_slot->memberships) {
        for (const std::uint32_t pack : gen.classes[cls].positions) {
          const std::size_t c = cand_of[pack >> kPosBits];
          if (c == kNotCandidate) {
            continue;
          }
          auto& pool = pools[c][pack & ((1u << kPosBits) - 1)];
          for (const AllowedTuple& tuple : live_slot->tuples) {
            pool.emplace_back(id, tuple);
          }
        }
      }
    }
    return true;
  };
  bool current = true;
  for (std::size_t s = 0; s <= slot_stripe_mask_ && current; ++s) {
    std::lock_guard<SpinLock> guard(slot_stripes_[s].lock);
    scratch.scan_versions[s] = slot_stripes_[s].version;
    current = scan_stripe(s);
  }
  // Reset only the entries this call marked: cand_of stays all-clear
  // between calls without an O(H) pass per request.
  for (const std::size_t e : cands) {
    cand_of[e] = kNotCandidate;
  }
  return current;
}

bool AvoidanceEngine::SearchCandidates(const SigGen& gen, const std::vector<std::size_t>& cands,
                                       FastScratch& scratch, ThreadId thread, LockId lock,
                                       MatchResult* result) {
  CoverScratch& cover = scratch.cover;
  for (std::size_t c = 0; c < cands.size(); ++c) {
    const SigGen::Entry& sig = gen.entries[cands[c]];
    cover.Clear();
    if (!CoverPositions(sig, scratch.pools[c], 0, cover, thread, lock)) {
      continue;
    }
    *result = MatchResult{};
    result->signature_index = sig.index;
    result->depth = sig.depth;
    // Deepest depth at which this same cover still matches — used by the
    // calibration fast-path (§5.5).
    int deepest = stacks_->max_depth();
    for (std::size_t j = 0; j < cover.chosen.size(); ++j) {
      deepest = std::min(deepest,
                         stacks_->DeepestMatchDepth(cover.chosen_stacks[j], sig.sig_stacks[j]));
    }
    result->deepest = std::max(deepest, sig.depth);
    for (std::size_t j = 0; j < cover.chosen.size(); ++j) {
      if (cover.chosen[j].thread == thread && cover.chosen[j].lock == lock) {
        continue;  // the requester itself
      }
      result->others.push_back(YieldCause{cover.chosen[j].thread, cover.chosen[j].lock,
                                          cover.chosen_stacks[j], cover.chosen[j].mode});
    }
    return true;
  }
  return false;
}

void AvoidanceEngine::RegisterYield(const YieldCause& edge, ThreadSlot& slot,
                                    const MatchResult& result) {
  {
    std::lock_guard<SpinLock> yield_guard(yield_m_);
    slot.yielding = true;
    slot.yield_causes = result.others;
    slot.yield_edge = edge;
    yielding_threads_.insert(edge.thread);
    yield_count_.fetch_add(1, std::memory_order_seq_cst);
  }
  {
    std::lock_guard<std::mutex> park_guard(slot.park_m);
    slot.wake_pending.store(false, std::memory_order_relaxed);
  }
}

void AvoidanceEngine::UnregisterYield(ThreadId thread, ThreadSlot& slot) {
  std::lock_guard<SpinLock> yield_guard(yield_m_);
  slot.yielding = false;
  slot.yield_causes.clear();
  if (yielding_threads_.erase(thread) > 0) {
    yield_count_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool AvoidanceEngine::NamesTuple(const std::vector<YieldCause>& causes, ThreadId thread,
                                 LockId lock, StackId stack) {
  for (const YieldCause& cause : causes) {
    if (cause.thread == thread && cause.lock == lock &&
        (cause.stack == stack || stack == kInvalidStackId)) {
      return true;
    }
  }
  return false;
}

bool AvoidanceEngine::DefersTo(const YieldCause& cause, ThreadId thread, LockId lock,
                               StackId stack) {
  if (cause.thread <= thread) {
    return false;
  }
  // Only registered local threads are in the yield set: a mirrored foreign
  // tuple's owner never is, so it never qualifies.
  std::lock_guard<SpinLock> yield_guard(yield_m_);
  if (yielding_threads_.count(cause.thread) == 0) {
    return false;
  }
  const ThreadSlot& peer = registry_.Slot(cause.thread);
  return peer.yield_edge == cause && NamesTuple(peer.yield_causes, thread, lock, stack);
}

bool AvoidanceEngine::CoverStillStands(ThreadId thread, LockId lock, StackId stack,
                                       const MatchResult& result,
                                       const std::vector<std::uint64_t>& scan_versions) {
  for (const YieldCause& cause : result.others) {
    StackSlot* slot = SlotFor(cause.stack);
    const std::size_t s = StripeIndexOf(cause.stack);
    SlotStripe& stripe = slot_stripes_[s];
    std::lock_guard<SpinLock> guard(stripe.lock);
    if (stripe.version == scan_versions[s]) {
      continue;  // no add/remove since the scan — the pool copy is exact
    }
    bool present = false;
    for (const AllowedTuple& t : slot->tuples) {
      // The held flag may have flipped (allow -> hold on commit) since the
      // scan; the edge is the same instantiation either way.
      if (t.thread == cause.thread && t.lock == cause.lock && t.mode == cause.mode) {
        present = true;
        break;
      }
    }
    // Checked under the cause's stripe lock: a peer rolling back re-adds its
    // tuple under this lock before it unregisters, so it cannot look absent
    // and unregistered at once.
    if (!present && !DefersTo(cause, thread, lock, stack)) {
      return false;
    }
  }
  return true;
}

AvoidanceEngine::MatchOutcome AvoidanceEngine::TryMatchIncremental(
    ThreadId thread, LockId lock, AcquireMode mode, StackId stack, ThreadSlot& slot,
    bool yield_on_match, const SigGen& gen, MatchResult* result) {
  // Scratch reuse matters beyond CPU time: every nanosecond spent here is
  // spent with the requester's tentative tuple live, and the window length
  // feeds quadratically into how often concurrent requesters see each other
  // as instantiation material.
  FastScratch& scratch = MatchScratch();
  const bool upgrade = FindHeld(slot, lock) != nullptr;
  // A rebuild published `gen` after our add. It seeded our tuple into its
  // class counters under the epoch before publishing, so counter reads made
  // now still follow our add: re-collect the candidates against `gen` from
  // a fresh class list (the slot's own cache is written only under its
  // stripe) and decide on `gen` like any other request.
  const bool rebased = scratch.own_version != gen.version;
  if (rebased) {
    const std::vector<std::uint32_t> classes = ComputeMemberships(stack, gen);
    CollectCandidates(gen, &classes, &scratch.own_cands);
    scratch.own_version = gen.version;
  }
  std::uint64_t search_begin = 0;  // set lazily: trivial rejects skip the clock
  const auto record_search = [&](std::int64_t matched_signature) {
    if (search_begin != 0) {
      const std::uint64_t end_ns = obs::NowNs();
      recorder_->Latency(obs::HistoKind::kMatchDuration, end_ns - search_begin);
      recorder_->Span(obs::TraceEventType::kCoverSearch, end_ns, end_ns - search_begin,
                      matched_signature < 0 ? obs::kNoMatchAux
                                            : obs::SaturateAux(matched_signature));
    }
  };

  scratch.scan_versions.assign(slot_stripe_mask_ + 1, 0);
  for (bool retry = false;; retry = true) {
    if (retry) {
      stats_.match_fast_retries.fetch_add(1, std::memory_order_relaxed);
      if (scratch.own_version != gen.version) {
        // The rollback's re-add recorded its candidates against a newer
        // generation: decide on that one.
        record_search(-1);
        return MatchOutcome::kRestart;
      }
    }
    // Candidate signatures: fully live ones the requester's slot can occupy,
    // recorded right after the requester's own add (the request's, the
    // rollback's below, or the re-base above). An upgrade re-evaluates every
    // signature: its held shared tuple can stand in for the new edge.
    if (upgrade) {
      CollectCandidates(gen, nullptr, &scratch.cands);
    }
    const std::vector<std::size_t>& cands = upgrade ? scratch.cands : scratch.own_cands;
    if (cands.empty()) {
      if (!retry) {
        // Trivial reject (§5.6 common case): no scan ran, so no fast-path
        // counter tick and no match-duration sample — the histogram stays a
        // picture of real cover searches.
        return MatchOutcome::kNoMatch;
      }
      stats_.match_fast_path.fetch_add(1, std::memory_order_relaxed);
      record_search(-1);
      return MatchOutcome::kNoMatch;
    }
    if (!retry && rebased) {
      stats_.match_slow_path.fetch_add(1, std::memory_order_relaxed);
    }
    if (search_begin == 0 && recorder_ != nullptr && recorder_->timing()) {
      search_begin = obs::NowNs();
    }

    // Copy every candidate position's live tuples, one stripe lock at a
    // time — never two, preserving the engine's single-stripe hot-path
    // invariant. A no-match over these copies is authoritative without
    // validation (add-before-scan, header comment). A live slot whose
    // membership cache is not from `gen` can only mean a newer generation
    // was published mid-request (a recompute here would corrupt another
    // generation's live counters): restart the decision on it.
    if (!FillPools(gen, cands, scratch)) {
      record_search(-1);
      return MatchOutcome::kRestart;
    }

    // Cover search on the private copies — same algorithm, zero shared
    // state. First matching signature wins.
    MatchResult local;
    if (!SearchCandidates(gen, cands, scratch, thread, lock, &local)) {
      stats_.match_fast_path.fetch_add(1, std::memory_order_relaxed);
      record_search(-1);
      return MatchOutcome::kNoMatch;
    }

    // Commit: register *before* retiring the allow edge, then validate that
    // the matched cover still stands (no-lost-wake and tie-break arguments,
    // header comment). A nonblocking requester is registered only for this
    // step, so a peer's tie-break sees it too; it unregisters before Decide
    // wakes the yielders of its retired edge.
    RegisterYield(YieldCause{thread, lock, stack, mode}, slot, local);
    RemoveTuple(stack, thread, lock, /*held=*/false);
    if (CoverStillStands(thread, lock, stack, local, scratch.scan_versions)) {
      if (!yield_on_match) {
        UnregisterYield(thread, slot);
      }
      stats_.match_fast_path.fetch_add(1, std::memory_order_relaxed);
      *result = std::move(local);
      record_search(result->signature_index);
      return MatchOutcome::kMatched;
    }
    // A matched tuple was retired under us: roll back (re-adding our
    // tentative tuple restores add-before-scan and records fresh
    // candidates; it must precede the unregister, see CoverStillStands)
    // and rescan.
    AddTuple(stack, AllowedTuple{thread, lock, false, mode}, &scratch);
    UnregisterYield(thread, slot);
  }
}

ThreadSlot& AvoidanceEngine::BeginRequest(ThreadId thread) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  ThreadSlot& slot = registry_.Slot(thread);
  // Acquire-latency span opens here and closes in Acquired(): it covers the
  // whole protocol including any yields, which is what an application thread
  // actually waits. Zero clock reads when metrics and tracing are both off.
  if (recorder_ != nullptr && recorder_->timing()) {
    slot.acquire_begin_ns = obs::NowNs();
  }
  return slot;
}

GlobalEdgePublisher* AvoidanceEngine::PublisherFor(LockId lock) const {
  // Global locks (IPC arena wired in, id carries kGlobalLockBit) get their
  // stacks proc-qualified and their wait/hold edges published fleet-wide;
  // for local locks this is one predictable branch.
  GlobalEdgePublisher* pub = global_pub_.load(std::memory_order_acquire);
  return pub != nullptr && IsGlobalLockId(lock) ? pub : nullptr;
}

RequestDecision AvoidanceEngine::Grant(ThreadSlot& slot, ThreadId thread, LockId lock,
                                       StackId stack, AcquireMode mode) {
  BufferHotEvent(slot, MakeEvent(EventType::kAllow, thread, lock, stack, mode));
  stats_.gos.fetch_add(1, std::memory_order_relaxed);
  return RequestDecision::kGo;
}

void AvoidanceEngine::StageAllow(ThreadSlot& slot, ThreadId thread, LockId lock, StackId stack,
                                 AcquireMode mode, GlobalEdgePublisher* pub) {
  AddTuple(stack, AllowedTuple{thread, lock, false, mode}, &MatchScratch());
  slot.pending_stack = stack;
  slot.pending_lock = lock;
  if (pub != nullptr) {
    pub->PublishWait(thread, lock, stack, mode);
  }
}

std::optional<AvoidanceEngine::MatchResult> AvoidanceEngine::Decide(
    ThreadId thread, LockId lock, AcquireMode mode, StackId stack, ThreadSlot& slot,
    bool yield_on_match) {
  MatchResult match;
  MatchOutcome outcome;
  do {
    // The hazard ref pins the generation (and its live counters) across the
    // incremental scan, which embeds the §5.6 fast reject. A restart re-pins
    // the newer generation the scan ran into; each one consumes a rebuild.
    const SigGen* gen = AcquireGenRef(slot);
    if (gen->version != history_->version()) {
      ReleaseGenRef(slot);
      RefreshGen();
      gen = AcquireGenRef(slot);
    }
    outcome = TryMatchIncremental(thread, lock, mode, stack, slot, yield_on_match, *gen, &match);
    ReleaseGenRef(slot);
  } while (outcome == MatchOutcome::kRestart);
  if (outcome == MatchOutcome::kNoMatch) {
    return std::nullopt;
  }
  if (yield_count_.load(std::memory_order_seq_cst) > 0) {
    // Our own allow edge was just retired (a YIELD flips it into a request
    // edge, a kBusy drops it): any thread whose matched cover named it is
    // parked on an instantiation that no longer stands. Wake it to re-decide
    // now instead of riding out its yield timeout — spurious wakes are
    // harmless (the full request protocol reruns).
    WakeYieldersOf(thread, lock, stack);
  }
  return match;
}

RequestDecision AvoidanceEngine::Request(ThreadId thread, LockId lock, AcquireMode mode,
                                         std::optional<MonoTime> deadline) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return RequestDecision::kGo;
  }
  ThreadSlot& slot = BeginRequest(thread);

  GlobalEdgePublisher* pub = PublisherFor(lock);
  std::vector<Frame> captured;
  const StackId stack = CaptureStackId(*stacks_, pub, captured);
  // A broken or timed-out request withdraws its published wait edge, and
  // wakes any yielder that kept its yield on our retired allow edge (the
  // tie-break, header comment): we will not re-add it.
  const auto abandon = [&](RequestDecision decision) {
    if (pub != nullptr) {
      pub->ClearWait(thread, lock);
    }
    if (yield_count_.load(std::memory_order_seq_cst) > 0) {
      WakeYieldersOf(thread, lock, stack);
    }
    return decision;
  };

  for (;;) {
    if (slot.acquisition_canceled.load(std::memory_order_acquire)) {
      slot.acquisition_canceled.store(false, std::memory_order_release);
      stats_.broken_acquisitions.fetch_add(1, std::memory_order_relaxed);
      return abandon(RequestDecision::kBroken);
    }
    if (IsReentrant(slot, lock, mode)) {
      stats_.reentrant_acquisitions.fetch_add(1, std::memory_order_relaxed);
      return RequestDecision::kReentrant;
    }

    // Staged before the fast reject, so two racing requesters cannot both
    // miss each other.
    StageAllow(slot, thread, lock, stack, mode, pub);

    std::optional<MatchResult> match;
    if (!slot.skip_avoidance_once.exchange(false, std::memory_order_acq_rel)) {
      match = Decide(thread, lock, mode, stack, slot, !config_.ignore_yield_decisions);
      if (pub != nullptr) {
        DIMMUNIX_LOG(kDebug) << "global request: thread " << thread << " lock " << lock
                             << " stack " << stack << " matched=" << match.has_value();
      }
    }
    if (!match.has_value()) {
      return Grant(slot, thread, lock, stack, mode);
    }
    if (config_.ignore_yield_decisions) {
      // Table 1's middle configuration: the decision is computed and counted
      // but not enforced. The match retired the allow edge; restore it, since
      // the thread proceeds to blocking on the lock.
      stats_.yields.fetch_add(1, std::memory_order_relaxed);
      AddTuple(stack, AllowedTuple{thread, lock, false, mode});
      return Grant(slot, thread, lock, stack, mode);
    }

    // The kRequest event is only pushed on the yield path: for an immediate
    // GO the monitor-side RAG nets kRequest -> kAllow down to the kAllow
    // state anyway (same drain, same thread), so the uncontended fast path
    // skips the push. A parked thread, though, must be visible as waiting —
    // so the staged hot events (this thread's current holds) flush first,
    // keeping the RAG's view of the yielder complete and in order.
    FlushThreadEvents(slot);
    queue_->Push(MakeEvent(EventType::kRequest, thread, lock, stack, mode));

    Event yield_ev = MakeEvent(EventType::kYield, thread, lock, stack, mode);
    yield_ev.causes = match->others;
    queue_->Push(yield_ev);

    Event avoided_ev = MakeEvent(EventType::kAvoided, thread, lock, stack, mode);
    avoided_ev.signature_index = match->signature_index;
    avoided_ev.match_depth = match->depth;
    avoided_ev.deepest_match_depth = match->deepest;
    avoided_ev.causes = match->others;
    avoided_ev.causes.push_back(YieldCause{thread, lock, stack, mode});
    queue_->Push(avoided_ev);

    history_->RecordAvoidance(match->signature_index);
    last_avoided_.store(match->signature_index, std::memory_order_relaxed);
    stats_.yields.fetch_add(1, std::memory_order_relaxed);
    // Cold path (one line per actual yield); the observable proof of
    // immunity for operators and the preload-smoke CI lane.
    DIMMUNIX_LOG(kInfo) << "avoidance: thread " << thread << " yields on lock " << lock
                        << " to dodge signature " << match->signature_index << " (depth "
                        << match->depth << ")";
    if (match->deepest >= stacks_->max_depth()) {
      stats_.depth_true_yields.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.depth_fp_yields.fetch_add(1, std::memory_order_relaxed);
    }

    if (pub != nullptr) {
      // Contention is one of the batching flush triggers: parking with our
      // wait edge still in the pending log would hide a forming
      // cross-process cycle from every peer for a full flush epoch.
      pub->FlushPending();
    }
    const std::uint64_t park_begin =
        recorder_ != nullptr && recorder_->timing() ? obs::NowNs() : 0;
    const int park_result = Park(slot, deadline);
    if (park_begin != 0) {
      const std::uint64_t park_end = obs::NowNs();
      const std::uint64_t park_ns = park_end - park_begin;
      recorder_->Latency(obs::HistoKind::kYieldDuration, park_ns);
      recorder_->Span(obs::TraceEventType::kYield, park_end, park_ns,
                      obs::SaturateAux(match->signature_index),
                      static_cast<std::uint8_t>(mode), static_cast<std::uint64_t>(lock));
    }

    UnregisterYield(thread, slot);
    queue_->Push(MakeEvent(EventType::kWake, thread, lock, stack, mode));
    stats_.wakes.fetch_add(1, std::memory_order_relaxed);

    if (park_result == 1) {
      // §5.7: the system-wide bound on how long avoidance may hold a thread.
      stats_.yield_timeouts.fetch_add(1, std::memory_order_relaxed);
      history_->RecordAbort(match->signature_index);
      if (config_.auto_disable_aborts > 0 &&
          history_->Get(match->signature_index).abort_count >=
              static_cast<std::uint64_t>(config_.auto_disable_aborts)) {
        history_->SetDisabled(match->signature_index, true);
        stats_.signatures_disabled.fetch_add(1, std::memory_order_relaxed);
        NotifyHistoryChanged();
        DIMMUNIX_LOG(kWarn) << "signature " << match->signature_index
                            << " auto-disabled: too risky to avoid (abort bound reached)";
      }
      // Proceed despite the danger: the thread is released from the yield.
      AddTuple(stack, AllowedTuple{thread, lock, false, mode});
      slot.pending_stack = stack;
      slot.pending_lock = lock;
      return Grant(slot, thread, lock, stack, mode);
    }
    if (park_result == 2) {
      stats_.broken_acquisitions.fetch_add(1, std::memory_order_relaxed);
      return abandon(RequestDecision::kBroken);
    }
    if (park_result == 3) {
      return abandon(RequestDecision::kTimedOut);
    }
    // Woken (or starvation-broken): retry the request from scratch.
  }
}

RequestDecision AvoidanceEngine::RequestNonblocking(ThreadId thread, LockId lock,
                                                    AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return RequestDecision::kGo;
  }
  ThreadSlot& slot = BeginRequest(thread);
  GlobalEdgePublisher* pub = PublisherFor(lock);
  std::vector<Frame> captured;
  const StackId stack = CaptureStackId(*stacks_, pub, captured);
  if (IsReentrant(slot, lock, mode)) {
    stats_.reentrant_acquisitions.fetch_add(1, std::memory_order_relaxed);
    return RequestDecision::kReentrant;  // caller resolves against lock kind
  }

  StageAllow(slot, thread, lock, stack, mode, pub);

  if (!config_.ignore_yield_decisions) {
    if (const std::optional<MatchResult> match =
            Decide(thread, lock, mode, stack, slot, /*yield_on_match=*/false)) {
      // The kBusy answer permanently retires our allow edge.
      stats_.yields.fetch_add(1, std::memory_order_relaxed);
      history_->RecordAvoidance(match->signature_index);
      last_avoided_.store(match->signature_index, std::memory_order_relaxed);
      if (pub != nullptr) {
        pub->ClearWait(thread, lock);
      }
      return RequestDecision::kBusy;  // refuse to enter the dangerous pattern
    }
  }
  return Grant(slot, thread, lock, stack, mode);
}

void AvoidanceEngine::FlipToHold(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) {
  StackSlot* stack_slot = SlotFor(stack);
  SlotStripe& stripe = StripeOf(stack);
  std::lock_guard<SpinLock> guard(stripe.lock);
  for (auto& tuple : stack_slot->tuples) {
    if (!tuple.held && tuple.thread == thread && tuple.lock == lock) {
      tuple.held = true;
      return;
    }
  }
  AddTupleLocked(stripe, stack, stack_slot, AllowedTuple{thread, lock, true, mode});
}

void AvoidanceEngine::PromoteHold(ThreadId thread, LockId lock, StackId stack) {
  StackSlot* stack_slot = SlotFor(stack);
  SlotStripe& stripe = StripeOf(stack);
  std::lock_guard<SpinLock> guard(stripe.lock);
  for (auto& tuple : stack_slot->tuples) {
    if (tuple.held && tuple.thread == thread && tuple.lock == lock) {
      tuple.mode = AcquireMode::kExclusive;
      // A cover that reused the lock as shared no longer stands: make
      // CoverStillStands re-check this stripe's tuples.
      ++stripe.version;
      return;
    }
  }
}

void AvoidanceEngine::RetireTuple(StackId stack, ThreadId thread, LockId lock, bool held) {
  RemoveTuple(stack, thread, lock, held);
  // Lock conditions changed in a way that could let yielders make progress
  // (§5.1: "Dimmunix reschedules the paused thread T whenever lock
  // conditions change"). yield_count_ lets the common no-yielders case
  // skip the yield-set lock: a yielder that validated this tuple present
  // registered before that check, which precedes the removal above (no lost
  // wake, header comment).
  if (yield_count_.load(std::memory_order_seq_cst) > 0) {
    WakeYieldersOf(thread, lock, stack);
  }
}

void AvoidanceEngine::Acquired(ThreadId thread, LockId lock, AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  ThreadSlot& slot = registry_.Slot(thread);
  StackId stack = slot.pending_stack;
  if (ThreadSlot::Held* held = FindHeld(slot, lock); held != nullptr) {
    // Reentrant acquisition (exclusive re-lock or recursive shared hold).
    ++held->count;
    stack = held->stack;
    if (mode == AcquireMode::kExclusive && held->mode == AcquireMode::kShared) {
      // A committed upgrade: the raw layer only grants exclusive over our
      // own shared hold when no other holder exists. The hold and its tuple
      // become exclusive, and the upgrade request's allow tuple retires —
      // otherwise it lingers as a phantom allow edge.
      held->mode = AcquireMode::kExclusive;
      PromoteHold(thread, lock, stack);
      if (slot.pending_stack != kInvalidStackId) {
        RemoveTuple(slot.pending_stack, thread, lock, /*held=*/false);
      }
    }
  } else {
    slot.held.push_back(ThreadSlot::Held{lock, stack, 1, mode});
    FlipToHold(thread, lock, stack, mode);
  }
  if (GlobalEdgePublisher* pub = PublisherFor(lock); pub != nullptr) {
    // Promotes the published wait row to a hold (reentrant holds bump the
    // row's count), making the acquisition visible fleet-wide.
    pub->PublishHold(thread, lock, stack, mode);
  }
  BufferHotEvent(slot, MakeEvent(EventType::kAcquired, thread, lock, stack, mode));
  stats_.acquisitions.fetch_add(1, std::memory_order_relaxed);
  if (slot.acquire_begin_ns != 0) {
    const std::uint64_t end_ns = obs::NowNs();
    const std::uint64_t latency_ns = end_ns - slot.acquire_begin_ns;
    slot.acquire_begin_ns = 0;
    if (recorder_ != nullptr) {
      recorder_->Latency(obs::HistoKind::kAcquireLatency, latency_ns);
      recorder_->Span(obs::TraceEventType::kAcquire, end_ns, latency_ns, /*aux=*/0,
                      static_cast<std::uint8_t>(mode), static_cast<std::uint64_t>(lock));
    }
  }
}

void AvoidanceEngine::WakeYieldersOf(ThreadId thread, LockId lock, StackId stack) {
  // Wake every thread whose yieldCause contains (thread, lock, stack) — the
  // Java version's yieldLock[Ti].notifyAll() (§6).
  std::lock_guard<SpinLock> yield_guard(yield_m_);
  for (ThreadId yielder : yielding_threads_) {
    ThreadSlot& yslot = registry_.Slot(yielder);
    if (NamesTuple(yslot.yield_causes, thread, lock, stack)) {
      std::lock_guard<std::mutex> park_guard(yslot.park_m);
      yslot.wake_pending.store(true, std::memory_order_release);
      yslot.park_cv.notify_all();
    }
  }
}

void AvoidanceEngine::Release(ThreadId thread, LockId lock) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  ThreadSlot& slot = registry_.Slot(thread);
  StackId stack = kInvalidStackId;
  AcquireMode mode = AcquireMode::kExclusive;
  bool final_release = false;  // the thread's hold ends
  if (ThreadSlot::Held* held = FindHeld(slot, lock); held != nullptr) {
    stack = held->stack;
    mode = held->mode;
    if (--held->count <= 0) {
      final_release = true;
      slot.held.erase(slot.held.begin() + (held - slot.held.data()));
    }
  }
  if (GlobalEdgePublisher* pub = PublisherFor(lock); pub != nullptr && stack != kInvalidStackId) {
    // Arena rows carry the reentrancy count, so every release of a held
    // global lock maps to one ClearHold; the row frees when the count hits
    // zero — exactly when final_release fires here.
    pub->ClearHold(thread, lock);
  }
  if (final_release) {
    RetireTuple(stack, thread, lock, /*held=*/true);
  }
  BufferHotEvent(slot, MakeEvent(EventType::kRelease, thread, lock, stack, mode));
  stats_.releases.fetch_add(1, std::memory_order_relaxed);
}

void AvoidanceEngine::CancelRequest(ThreadId thread, LockId lock, AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  ThreadSlot& slot = registry_.Slot(thread);
  const StackId stack = slot.pending_stack;
  if (stack != kInvalidStackId) {
    // A canceled request retires an allow edge other yielders may have
    // matched; let them re-decide instead of waiting out their timeout.
    RetireTuple(stack, thread, lock, /*held=*/false);
  }
  if (GlobalEdgePublisher* pub = PublisherFor(lock); pub != nullptr) {
    pub->ClearWait(thread, lock);
  }
  BufferHotEvent(slot, MakeEvent(EventType::kCancel, thread, lock, stack, mode));
  stats_.trylock_cancels.fetch_add(1, std::memory_order_relaxed);
  if (slot.acquire_begin_ns != 0) {
    const std::uint64_t end_ns = obs::NowNs();
    const std::uint64_t latency_ns = end_ns - slot.acquire_begin_ns;
    slot.acquire_begin_ns = 0;
    if (recorder_ != nullptr && recorder_->tracing()) {
      recorder_->Span(obs::TraceEventType::kAcquireCancel, end_ns, latency_ns, /*aux=*/0,
                      static_cast<std::uint8_t>(mode), static_cast<std::uint64_t>(lock));
    }
  }
}

void AvoidanceEngine::BreakYield(ThreadId thread) {
  if (!registry_.Contains(thread)) {
    return;  // synthetic/stale id from the event stream
  }
  ThreadSlot& slot = registry_.Slot(thread);
  slot.skip_avoidance_once.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> park_guard(slot.park_m);
  slot.wake_pending.store(true, std::memory_order_release);
  slot.park_cv.notify_all();
}

void AvoidanceEngine::CancelAcquisition(ThreadId thread) {
  if (!registry_.Contains(thread)) {
    return;  // synthetic/stale id from the event stream
  }
  ThreadSlot& slot = registry_.Slot(thread);
  slot.acquisition_canceled.store(true, std::memory_order_release);
  // The victim may be blocked in the raw mutex (canceler registered by the
  // sync layer) or parked in a yield (woken via its parking lot; Park
  // re-checks the canceled flag without consuming a wake).
  std::function<void()> canceler;
  {
    std::lock_guard<std::mutex> guard(slot.canceler_m);
    canceler = slot.acquisition_canceler;
  }
  if (canceler) {
    canceler();
  }
  {
    std::lock_guard<std::mutex> park_guard(slot.park_m);
    slot.park_cv.notify_all();
  }
}

void AvoidanceEngine::NotifyHistoryChanged() {
  RefreshGen();
}

// --- Hot-event staging -------------------------------------------------------

void AvoidanceEngine::BufferHotEvent(ThreadSlot& slot, Event&& ev) {
  bool flush = false;
  {
    std::lock_guard<SpinLock> guard(slot.ev_m);
    if (coalesce_events_.load(std::memory_order_relaxed)) {
      auto& buf = slot.ev_buf;
      const std::size_t n = buf.size();
      // An uncontended critical section stages allow -> acquired -> release
      // of the same lock back to back; the triple is a RAG no-op, so it
      // cancels here and the monitor queue never sees it. Same for the
      // trylock-miss pair allow -> cancel. The match must cover the whole
      // in-buffer prefix of the exchange: if the allow already flushed, the
      // later events must flush too or the RAG would keep a stale edge.
      if (ev.type == EventType::kRelease && n >= 2 &&
          buf[n - 1].type == EventType::kAcquired && buf[n - 1].lock == ev.lock &&
          buf[n - 2].type == EventType::kAllow && buf[n - 2].lock == ev.lock) {
        buf.pop_back();
        buf.pop_back();
        return;
      }
      if (ev.type == EventType::kCancel && n >= 1 &&
          buf[n - 1].type == EventType::kAllow && buf[n - 1].lock == ev.lock) {
        buf.pop_back();
        return;
      }
    }
    // Stamp at buffering time, INSIDE ev_m (coalesced-away events above
    // need no stamp): the monitor re-sorts its drain batch by seq, so
    // staged events interleave with directly-pushed ones (and with other
    // threads' staged events) in true emission order — without the seq, a
    // buffered acquired(L) could drain after another thread's later
    // acquired(L) and displace the live holder in the RAG. Stamping under
    // the same lock FlushAllThreadEvents takes per slot guarantees the
    // sweep can never miss an already-stamped event (a thread preempted
    // between stamp and push would otherwise hold a low seq hostage into a
    // later batch, past where stable_sort can restore order). Events
    // stamped after the sweep passes a slot drain one tick later; that
    // one-tick convergence window is inherent to staging, and the RAG's
    // additive kAcquired handling absorbs it.
    ev.seq = queue_->Stamp();
    slot.ev_buf.push_back(std::move(ev));
    flush = slot.ev_buf.size() >= kEventBufCap;
  }
  if (flush) {
    FlushThreadEvents(slot);
  }
}

void AvoidanceEngine::FlushThreadEvents(ThreadSlot& slot) {
  std::lock_guard<SpinLock> guard(slot.ev_m);
  for (Event& ev : slot.ev_buf) {
    queue_->PushStamped(std::move(ev));
  }
  slot.ev_buf.clear();
}

void AvoidanceEngine::FlushAllThreadEvents() {
  const std::size_t n = registry_.size();
  for (std::size_t i = 0; i < n; ++i) {
    FlushThreadEvents(registry_.Slot(static_cast<ThreadId>(i)));
  }
}

// --- Foreign-edge mirror (src/ipc bridge thread) -----------------------------
//
// These reproduce the tuple and event effects of Request-allow, Cancel,
// Acquired, and Release for a thread that lives in another process. They
// never touch the ThreadRegistry: foreign ids (>= kForeignThreadBase) have
// no slot, and every monitor-side path already guards slot access with
// registry().Contains(). A foreign hold is counted by its held tuples alone:
// when fcntl aliasing folds two foreign holds onto one (thread, lock), each
// is a tuple and each release retires one.

void AvoidanceEngine::MirrorForeignWait(ThreadId thread, LockId lock, StackId stack,
                                        AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  AddTuple(stack, AllowedTuple{thread, lock, false, mode});
  DIMMUNIX_LOG(kDebug) << "foreign wait: thread " << thread << " lock " << lock << " stack "
                       << stack << " (" << stacks_->Describe(stack) << ")";
  queue_->Push(MakeEvent(EventType::kAllow, thread, lock, stack, mode));
}

void AvoidanceEngine::MirrorForeignWaitEnd(ThreadId thread, LockId lock, StackId stack,
                                           AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  // A withdrawn foreign wait dissolves any local instantiation built on it.
  RetireTuple(stack, thread, lock, /*held=*/false);
  queue_->Push(MakeEvent(EventType::kCancel, thread, lock, stack, mode));
}

void AvoidanceEngine::MirrorForeignHold(ThreadId thread, LockId lock, StackId stack,
                                        AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  FlipToHold(thread, lock, stack, mode);
  DIMMUNIX_LOG(kDebug) << "foreign hold: thread " << thread << " lock " << lock << " stack "
                       << stack << " (" << stacks_->Describe(stack) << ")";
  queue_->Push(MakeEvent(EventType::kAcquired, thread, lock, stack, mode));
}

void AvoidanceEngine::MirrorForeignRelease(ThreadId thread, LockId lock, StackId stack,
                                           AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  // A foreign release changes lock conditions exactly like a local one:
  // yielders whose causes name this foreign hold can retry now. This is the
  // wake-up that lets a process resume once the peer it dodged has finished
  // its critical section.
  RetireTuple(stack, thread, lock, /*held=*/true);
  queue_->Push(MakeEvent(EventType::kRelease, thread, lock, stack, mode));
}

int AvoidanceEngine::Park(ThreadSlot& slot, std::optional<MonoTime> deadline) {
  MonoTime bound = Now() + config_.yield_timeout;
  bool deadline_is_nearest = false;
  if (deadline.has_value() && *deadline < bound) {
    bound = *deadline;
    deadline_is_nearest = true;
  }
  // The hold a yielder waits on usually ends within the spin budget; a wake
  // (or a cancel) seen here skips the condvar sleep and its futex wake-up.
  // Either way the decision below is made under park_m, as for a sleeper.
  SpinUntil(bound, [&slot] {
    return slot.wake_pending.load(std::memory_order_acquire) ||
           slot.acquisition_canceled.load(std::memory_order_relaxed);
  });
  std::unique_lock<std::mutex> park_guard(slot.park_m);
  bool slept = false;
  while (!slot.wake_pending.load(std::memory_order_relaxed)) {
    if (slot.acquisition_canceled.load(std::memory_order_acquire)) {
      slot.acquisition_canceled.store(false, std::memory_order_release);
      return 2;
    }
    if (!slept) {
      slept = true;
      stats_.yield_sleeps.fetch_add(1, std::memory_order_relaxed);
    }
    if (slot.park_cv.wait_until(park_guard, bound) == std::cv_status::timeout) {
      if (!slot.wake_pending.load(std::memory_order_relaxed)) {
        return deadline_is_nearest ? 3 : 1;
      }
      break;
    }
  }
  slot.wake_pending.store(false, std::memory_order_relaxed);
  return 0;
}

std::vector<AvoidanceEngine::AllowedTuple> AvoidanceEngine::HeldTuples(LockId lock) const {
  auto* self = const_cast<AvoidanceEngine*>(this);
  std::vector<AllowedTuple> holds;
  for (std::size_t s = 0; s <= slot_stripe_mask_; ++s) {
    SlotStripe& stripe = self->slot_stripes_[s];
    std::lock_guard<SpinLock> guard(stripe.lock);
    for (const StackId id : stripe.live) {
      const StackSlot* slot = self->stack_slots_.Get(static_cast<std::size_t>(id));
      for (const AllowedTuple& tuple : slot->tuples) {
        if (tuple.held && tuple.lock == lock) {
          holds.push_back(tuple);
        }
      }
    }
  }
  return holds;
}

ThreadId AvoidanceEngine::LockOwner(LockId lock) const {
  for (const AllowedTuple& hold : HeldTuples(lock)) {
    if (hold.mode == AcquireMode::kExclusive) {
      return hold.thread;
    }
  }
  return kInvalidThreadId;
}

std::optional<AcquireMode> AvoidanceEngine::HeldMode(ThreadId self, LockId lock) {
  const ThreadSlot::Held* held = FindHeld(registry_.Slot(self), lock);
  return held != nullptr ? std::optional<AcquireMode>(held->mode) : std::nullopt;
}

std::size_t AvoidanceEngine::SharedHolderCount(LockId lock) const {
  std::vector<ThreadId> holders;
  for (const AllowedTuple& hold : HeldTuples(lock)) {
    if (hold.mode == AcquireMode::kExclusive) {
      return 0;
    }
    if (std::find(holders.begin(), holders.end(), hold.thread) == holders.end()) {
      holders.push_back(hold.thread);
    }
  }
  return holders.size();
}

std::size_t AvoidanceEngine::AllowedCount(StackId id) const {
  auto* self = const_cast<AvoidanceEngine*>(this);
  if (static_cast<std::size_t>(id) >= self->stack_slots_.size()) {
    return 0;
  }
  StackSlot* slot = self->stack_slots_.Get(static_cast<std::size_t>(id));
  SlotStripe& stripe = self->StripeOf(id);
  std::lock_guard<SpinLock> guard(stripe.lock);
  return slot->tuples.size();
}

EngineView AvoidanceEngine::Snapshot() {
  EngineView view;
  view.stripes = stripe_count();
  {
    SlotEpochGuard epoch(*this);
    view.signature_generation = CurrentGen()->version;
    std::vector<LockId> held_locks;
    for (std::size_t s = 0; s <= slot_stripe_mask_; ++s) {
      view.live_stacks += slot_stripes_[s].live.size();
      for (const StackId id : slot_stripes_[s].live) {
        const auto& tuples = stack_slots_.Get(static_cast<std::size_t>(id))->tuples;
        view.allowed_tuples += tuples.size();
        for (const AllowedTuple& tuple : tuples) {
          if (tuple.held) {
            held_locks.push_back(tuple.lock);
          }
        }
      }
    }
    std::sort(held_locks.begin(), held_locks.end());
    view.tracked_locks = static_cast<std::size_t>(
        std::unique(held_locks.begin(), held_locks.end()) - held_locks.begin());
  }
  view.yielding_threads = static_cast<std::size_t>(
      std::max(0, yield_count_.load(std::memory_order_seq_cst)));
  return view;
}

}  // namespace dimmunix
