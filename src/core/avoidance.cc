// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/core/avoidance.h"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/stack/capture.h"

namespace dimmunix {
namespace {

constexpr std::size_t kNotCandidate = ~std::size_t{0};

std::size_t StripeCountFor(const Config& config) {
  if (config.engine_stripes > 0) {
    return RoundUpPow2(static_cast<std::size_t>(config.engine_stripes));
  }
  return DefaultStripeCount();
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

}  // namespace

AvoidanceEngine::AvoidanceEngine(const Config& config, StackTable* stacks, History* history,
                                 EventQueue* queue, obs::Recorder* recorder)
    : config_(config),
      stacks_(stacks),
      history_(history),
      queue_(queue),
      recorder_(recorder),
      use_peterson_(config.use_peterson_guard),
      peterson_guard_(static_cast<std::size_t>(std::max(2, config.peterson_slots))),
      slot_stripe_mask_(StripeCountFor(config) - 1),
      slot_stripes_(std::make_unique<SlotStripe[]>(slot_stripe_mask_ + 1)),
      lock_owners_(slot_stripe_mask_ + 1) {
  auto initial = std::make_unique<SigGen>();  // version kStaleVersion, no entries
  gen_.store(initial.get(), std::memory_order_release);
  retired_gens_.push_back(std::move(initial));
}

AvoidanceEngine::~AvoidanceEngine() = default;

AvoidanceEngine::SlotEpochGuard::SlotEpochGuard(AvoidanceEngine& engine, ThreadId thread)
    : engine_(engine), thread_(thread) {
  // Epoch entry is rare — with the incremental matcher in front, only cache
  // rebuilds, snapshots, and fast-path validation churn land here — so the
  // wait and hold are *always* measured: the clock reads feed the
  // epoch_entries / epoch_stall_ns / epoch_hold_ns counters that
  // `dimctl status` reports with tracing off.
  const std::uint64_t wait_begin = obs::NowNs();
  if (engine_.use_peterson_) {
    assert(static_cast<std::size_t>(thread_) < engine_.peterson_guard_.slots() &&
           "peterson guard requires thread ids < peterson_slots");
    engine_.peterson_guard_.Lock(static_cast<std::size_t>(thread_));
  }
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
  // epoch. Debug builds assert the configured hold bound — the epoch is
  // allowed to be slow-path-rare, never slow-path-long.
  const std::uint64_t end_ns = obs::NowNs();
  const std::uint64_t hold_ns = end_ns - entered_ns_;
  assert(hold_ns <= static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            engine_.config_.epoch_hold_bound)
                            .count()) &&
         "stop-the-stripes epoch held past Config::epoch_hold_bound");
  for (std::size_t i = engine_.slot_stripe_mask_ + 1; i-- > 0;) {
    engine_.slot_stripes_[i].lock.Unlock();
  }
  if (engine_.use_peterson_) {
    engine_.peterson_guard_.Unlock(static_cast<std::size_t>(thread_));
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
  for (std::size_t e = 0; e < gen.entries.size(); ++e) {
    const SigGen::Entry& entry = gen.entries[e];
    const std::size_t positions =
        std::min(entry.sig_stacks.size(), std::size_t{1} << kPosBits);
    for (std::size_t j = 0; j < positions; ++j) {
      if (stacks_->MatchesAtDepth(stack, entry.sig_stacks[j], entry.depth)) {
        memberships.push_back(static_cast<std::uint32_t>((e << kPosBits) | j));
      }
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

bool AvoidanceEngine::EveryPositionLive(const SigGen::Entry& sig) {
  if (sig.sig_stacks.empty()) {
    return false;
  }
  for (std::size_t j = 0; j < sig.sig_stacks.size(); ++j) {
    if (sig.live[j].load(std::memory_order_seq_cst) < sig.need[j]) {
      return false;
    }
  }
  return true;
}

void AvoidanceEngine::CollectCandidates(const SigGen& gen,
                                        const std::vector<std::uint32_t>* memberships,
                                        std::vector<std::size_t>* out) {
  out->clear();
  if (memberships == nullptr) {
    for (std::size_t e = 0; e < gen.entries.size(); ++e) {
      if (EveryPositionLive(gen.entries[e])) {
        out->push_back(e);
      }
    }
    return;
  }
  std::size_t last = kNotCandidate;
  for (const std::uint32_t pack : *memberships) {
    const std::size_t e = pack >> kPosBits;
    if (e != last && EveryPositionLive(gen.entries[e])) {
      out->push_back(e);
    }
    last = e;
  }
}

void AvoidanceEngine::AddTupleLocked(SlotStripe& stripe, StackId stack, StackSlot* slot,
                                     const AllowedTuple& tuple, FastScratch* scratch) {
  const bool matching = config_.stage == EngineStage::kFull;
  const SigGen* gen = nullptr;
  if (matching) {
    gen = CurrentGen();  // stable: rebuilds need every stripe, we hold one
    EnsureMemberships(stack, slot, *gen);
  }
  slot->tuples.push_back(tuple);
  ++stripe.version;
  if (slot->live_index < 0) {
    slot->live_index = static_cast<int>(stripe.live.size());
    stripe.live.push_back(stack);
  }
  if (matching) {
    // seq_cst: pairs with the seq_cst fast-reject loads so two racing
    // requesters cannot both miss each other's tentative tuple. The
    // fully_live gate preserves that argument: if requester A's fully_live
    // load misses requester B's increment, then in the seq_cst total order
    // A's live[] add precedes B's fully_live add — so B's candidate scan
    // (which runs after its own increment) observes A's tuple.
    for (const std::uint32_t pack : slot->memberships) {
      const std::size_t e = pack >> kPosBits;
      const std::size_t j = pack & ((1u << kPosBits) - 1);
      const SigGen::Entry& entry = gen->entries[e];
      if (entry.live[j].fetch_add(1, std::memory_order_seq_cst) == entry.need[j] - 1 &&
          gen->dead[e].fetch_sub(1, std::memory_order_seq_cst) == 1) {
        gen->fully_live.fetch_add(1, std::memory_order_seq_cst);
      }
    }
  }
  if (scratch != nullptr) {
    // The requester's candidates, read after its own seq_cst adds above —
    // the same point the fully_live gate reads at, so the add-before-scan
    // argument is unchanged. A valid instance must use the requester's new
    // allow edge, which only its own slot's positions can hold.
    scratch->own_cands.clear();
    scratch->own_version = kStaleVersion;
    if (matching) {
      scratch->own_version = gen->version;
      if (gen->fully_live.load(std::memory_order_seq_cst) > 0) {
        CollectCandidates(*gen, &slot->memberships, &scratch->own_cands);
      }
    }
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
  if (config_.stage == EngineStage::kFull) {
    const SigGen* gen = CurrentGen();
    // Invariant: a slot that held tuples has memberships current w.r.t. the
    // published generation (adds refresh lazily; rebuilds visit live slots).
    EnsureMemberships(stack, slot, *gen);
    for (const std::uint32_t pack : slot->memberships) {
      const std::size_t e = pack >> kPosBits;
      const std::size_t j = pack & ((1u << kPosBits) - 1);
      const SigGen::Entry& entry = gen->entries[e];
      if (entry.live[j].fetch_sub(1, std::memory_order_seq_cst) == entry.need[j] &&
          gen->dead[e].fetch_add(1, std::memory_order_seq_cst) == 0) {
        gen->fully_live.fetch_sub(1, std::memory_order_seq_cst);
      }
    }
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
  if (config_.stage != EngineStage::kFull) {
    return;
  }
  const ThreadId me = registry_.RegisterCurrentThread();
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
    if (sig.disabled) {
      return;
    }
    SigGen::Entry entry;
    entry.index = index;
    entry.depth = sig.match_depth;
    entry.sig_stacks = sig.stacks;
    entry.live = std::make_unique<std::atomic<std::int64_t>[]>(sig.stacks.size());
    gen->entries.push_back(std::move(entry));
  });
  for (SigGen::Entry& entry : gen->entries) {
    // Matching at a depth is symmetric: each matching pair counts for both.
    const std::size_t k = entry.sig_stacks.size();
    entry.need.assign(k, 1);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = j + 1; i < k; ++i) {
        if (stacks_->MatchesAtDepth(entry.sig_stacks[i], entry.sig_stacks[j], entry.depth)) {
          ++entry.need[i];
          ++entry.need[j];
        }
      }
    }
  }
  gen->dead = std::make_unique<std::atomic<std::int32_t>[]>(gen->entries.size());
  {
    // Stop the stripes: recompute every live slot's memberships against the
    // new generation and seed its per-position live counters, then publish.
    SlotEpochGuard epoch(*this, me);
    for (std::size_t s = 0; s <= slot_stripe_mask_; ++s) {
      for (const StackId id : slot_stripes_[s].live) {
        StackSlot* slot = stack_slots_.Get(static_cast<std::size_t>(id));
        slot->memberships = ComputeMemberships(id, *gen);
        slot->member_version = gen->version;
        for (const std::uint32_t pack : slot->memberships) {
          gen->entries[pack >> kPosBits].live[pack & ((1u << kPosBits) - 1)].fetch_add(
              static_cast<std::int64_t>(slot->tuples.size()), std::memory_order_relaxed);
        }
      }
    }
    // Seed the O(1) fast-reject counters from the freshly computed live
    // counts. Safe to do non-transitionally: we hold every stripe, so no
    // Add/RemoveTupleLocked can interleave before the generation publishes.
    std::int64_t fully_live = 0;
    for (std::size_t e = 0; e < gen->entries.size(); ++e) {
      const SigGen::Entry& entry = gen->entries[e];
      std::int32_t dead = entry.sig_stacks.empty() ? 1 : 0;
      for (std::size_t j = 0; j < entry.sig_stacks.size(); ++j) {
        if (entry.live[j].load(std::memory_order_relaxed) < entry.need[j]) {
          ++dead;
        }
      }
      gen->dead[e].store(dead, std::memory_order_relaxed);
      if (dead == 0) {
        ++fully_live;
      }
    }
    gen->fully_live.store(fully_live, std::memory_order_relaxed);
    gen_.store(gen.get(), std::memory_order_seq_cst);
    retired_gens_.push_back(std::move(gen));

    // Reclaim superseded generations. Safe here because (a) we hold every
    // stripe, so no AddTuple/RemoveTuple/MatchAndRetire holds an old
    // pointer, and (b) lock-free readers pin theirs via a hazard slot —
    // published seq_cst before re-validating against gen_, so a reader
    // whose pointer was still current when it validated is visible to this
    // scan (its publish precedes our gen_ store in the seq_cst order).
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

bool AvoidanceEngine::AnyInstantiationPlausible(const SigGen& gen) const {
  // §5.6 fast reject: "in most cases, at least one of these sets is empty,
  // meaning there is no thread holding a lock in that stack configuration,
  // so the signature is not instantiated." The per-entry dead-position
  // counters reduce the signature scan to this single load.
  return gen.fully_live.load(std::memory_order_seq_cst) > 0;
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

bool AvoidanceEngine::IsUpgrade(const ThreadSlot& slot, LockId lock) {
  for (const ThreadSlot::Held& held : slot.held) {
    if (held.lock == lock) {
      return true;
    }
  }
  return false;
}

bool AvoidanceEngine::FillPools(const SigGen& gen, const std::vector<std::size_t>& cands,
                                FastScratch& scratch, bool lock_stripes) {
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
        if (lock_stripes) {
          return false;
        }
        EnsureMemberships(id, live_slot, gen);
      }
      for (const std::uint32_t pack : live_slot->memberships) {
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
    return true;
  };
  bool current = true;
  for (std::size_t s = 0; s <= slot_stripe_mask_ && current; ++s) {
    std::unique_lock<SpinLock> guard(slot_stripes_[s].lock, std::defer_lock);
    if (lock_stripes) {
      guard.lock();
      scratch.scan_versions[s] = slot_stripes_[s].version;
    }
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

std::optional<AvoidanceEngine::MatchResult> AvoidanceEngine::MatchAndRetire(
    ThreadId thread, LockId lock, StackId stack, ThreadSlot& slot, bool yield_on_match) {
  // The scratch's pools keep their capacity across searches, so the epoch
  // below copies tuples without allocating once a thread has warmed up.
  FastScratch& scratch = MatchScratch();
  const bool upgrade = IsUpgrade(slot, lock);
  StackSlot* own_slot = SlotFor(stack);
  SlotEpochGuard epoch(*this, thread);
  // Cover-search span: how long the matcher held everyone else out looking
  // for an instantiation. aux carries the matched signature (kNoMatchAux on
  // a miss) so a Perfetto query can pin a convoy on one signature.
  const std::uint64_t search_begin =
      recorder_ != nullptr && recorder_->tracing() ? obs::NowNs() : 0;
  const auto record_search = [&](std::int64_t matched_signature) {
    if (search_begin != 0) {
      const std::uint64_t end_ns = obs::NowNs();
      recorder_->Span(obs::TraceEventType::kCoverSearch, end_ns, end_ns - search_begin,
                      matched_signature < 0 ? obs::kNoMatchAux
                                            : obs::SaturateAux(matched_signature));
    }
  };
  // The generation cannot be republished while we hold every stripe.
  const SigGen& gen = *CurrentGen();
  auto& cands = scratch.cands;
  if (upgrade) {
    CollectCandidates(gen, nullptr, &cands);
  } else {
    EnsureMemberships(stack, own_slot, gen);
    CollectCandidates(gen, &own_slot->memberships, &cands);
  }
  MatchResult result;
  if (cands.empty() || !FillPools(gen, cands, scratch, /*lock_stripes=*/false) ||
      !SearchCandidates(gen, cands, scratch, thread, lock, &result)) {
    record_search(-1);
    return std::nullopt;
  }
  // Retire the tentative allow edge (the YIELD flips it into a request
  // edge, §5.4) and — in blocking mode — register the yield while the
  // epoch still excludes releasers: a releaser whose tuple we matched
  // cannot finish removing it (and thus cannot scan the yield set)
  // before we are registered, so its wake cannot be lost.
  RemoveTupleLocked(StripeOf(stack), stack, own_slot, thread, lock, /*held=*/false);
  if (yield_on_match) {
    RegisterYield(thread, slot, result);
  }
  record_search(result.signature_index);
  return result;
}

void AvoidanceEngine::RegisterYield(ThreadId thread, ThreadSlot& slot,
                                    const MatchResult& result) {
  {
    std::lock_guard<SpinLock> yield_guard(yield_m_);
    slot.yielding = true;
    slot.yield_causes = result.others;
    yielding_threads_.insert(thread);
    yield_count_.fetch_add(1, std::memory_order_seq_cst);
  }
  {
    std::lock_guard<std::mutex> park_guard(slot.park_m);
    slot.wake_pending = false;
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

bool AvoidanceEngine::CoverStillStands(const MatchResult& result,
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
    if (!present) {
      return false;
    }
  }
  return true;
}

AvoidanceEngine::FastMatchOutcome AvoidanceEngine::TryMatchIncremental(
    ThreadId thread, LockId lock, AcquireMode mode, StackId stack, ThreadSlot& slot,
    bool yield_on_match, const SigGen& gen, MatchResult* result) {
  // Bounded validation churn: every retry means a matched tuple was retired
  // mid-decision. Persistent churn is real contention on the instantiation
  // itself, which only the epoch can arbitrate.
  constexpr int kFastMatchAttempts = 3;
  // O(1) trivial reject (§5.6 common case): no signature has every position
  // live, so no instantiation can exist. No counter tick and no
  // match-duration sample — the histogram stays a picture of real cover
  // searches. Our own tentative tuple is already counted (AddTuple ran
  // before the match), so two racing requesters cannot both pass through.
  if (gen.fully_live.load(std::memory_order_seq_cst) == 0) {
    return FastMatchOutcome::kNoMatch;
  }
  // Scratch reuse matters beyond CPU time: every nanosecond spent here is
  // spent with the requester's tentative tuple live, and the window length
  // feeds quadratically into how often concurrent requesters see each other
  // as instantiation material.
  FastScratch& scratch = MatchScratch();
  const bool upgrade = IsUpgrade(slot, lock);
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
  for (int attempt = 0; attempt < kFastMatchAttempts; ++attempt) {
    if (attempt > 0) {
      stats_.match_fast_retries.fetch_add(1, std::memory_order_relaxed);
    }
    // Candidate signatures: fully live ones the requester's slot can occupy,
    // recorded by the AddTuple that preceded this attempt (the request's own,
    // or the rollback below). An upgrade re-evaluates every signature: its
    // held shared tuple can stand in for the new edge.
    if (upgrade) {
      CollectCandidates(gen, nullptr, &scratch.cands);
    } else if (scratch.own_version != gen.version) {
      record_search(-1);
      return FastMatchOutcome::kFallback;
    }
    const std::vector<std::size_t>& cands = upgrade ? scratch.cands : scratch.own_cands;
    if (cands.empty()) {
      if (attempt == 0) {
        // Trivial reject (§5.6 common case): no scan ran, so no fast-path
        // counter tick and no match-duration sample — the histogram stays a
        // picture of real cover searches.
        return FastMatchOutcome::kNoMatch;
      }
      stats_.match_fast_path.fetch_add(1, std::memory_order_relaxed);
      record_search(-1);
      return FastMatchOutcome::kNoMatch;
    }
    if (search_begin == 0 && recorder_ != nullptr && recorder_->timing()) {
      search_begin = obs::NowNs();
    }

    // Copy every candidate position's live tuples, one stripe lock at a
    // time — never two, preserving the engine's single-stripe hot-path
    // invariant. A no-match over these copies is authoritative without
    // validation: the requester's tentative tuple was added *before* this
    // scan, so of two racing requesters at least one scan sees the other
    // (add-before-scan litmus, header comment). A slot whose membership
    // cache is stale w.r.t. the pinned generation means a rebuild
    // republished mid-request; only the epoch path may recompute
    // memberships (a recompute here would corrupt another generation's
    // live counters), so the decision falls back.
    if (!FillPools(gen, cands, scratch, /*lock_stripes=*/true)) {
      record_search(-1);
      return FastMatchOutcome::kFallback;
    }

    // Cover search on the private copies — same algorithm, zero shared
    // state. First matching signature wins, mirroring MatchAndRetire.
    MatchResult local;
    if (!SearchCandidates(gen, cands, scratch, thread, lock, &local)) {
      stats_.match_fast_path.fetch_add(1, std::memory_order_relaxed);
      record_search(-1);
      return FastMatchOutcome::kNoMatch;
    }

    // Commit: register the yield *before* retiring the allow edge, then
    // validate the matched cover is still standing. Ordering argument for
    // no lost wakes: if validation saw a cause tuple present, our stripe
    // critical section precedes the releaser's removal of that tuple, so
    // our (seq_cst) yield_count_ increment is visible to the releaser's
    // post-removal yield_count_ check — it will take yield_m_ and wake us.
    // Mutual validation by two requesters matched on each other's allow
    // tuples cannot both succeed: each removes its own tuple before
    // validating the other's, so the stripe-lock order forces one
    // validation to observe an absent tuple and retry.
    if (yield_on_match) {
      RegisterYield(thread, slot, local);
    }
    RemoveTuple(stack, thread, lock, /*held=*/false);
    if (CoverStillStands(local, scratch.scan_versions)) {
      stats_.match_fast_path.fetch_add(1, std::memory_order_relaxed);
      *result = std::move(local);
      record_search(result->signature_index);
      return FastMatchOutcome::kMatched;
    }
    // A matched tuple was retired under us: roll back (re-adding our
    // tentative tuple restores the add-before-scan protocol and records
    // fresh candidates) and rescan.
    AddTuple(stack, AllowedTuple{thread, lock, false, mode}, &scratch);
    if (yield_on_match) {
      UnregisterYield(thread, slot);
    }
  }
  record_search(-1);
  return FastMatchOutcome::kFallback;
}

RequestDecision AvoidanceEngine::Request(ThreadId thread, LockId lock, AcquireMode mode,
                                         std::optional<MonoTime> deadline) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return RequestDecision::kGo;
  }
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  ThreadSlot& slot = registry_.Slot(thread);
  // Acquire-latency span opens here and closes in Acquired(): it covers the
  // whole protocol including any yields, which is what an application thread
  // actually waits. Zero clock reads when metrics and tracing are both off.
  if (recorder_ != nullptr && recorder_->timing()) {
    slot.acquire_begin_ns = obs::NowNs();
  }

  // Global locks (IPC arena wired in, id carries kGlobalLockBit) get their
  // stacks proc-qualified and their wait/hold edges published fleet-wide;
  // for local locks `pub` stays null after one predictable branch.
  GlobalEdgePublisher* pub = global_pub_.load(std::memory_order_acquire);
  if (pub != nullptr && !IsGlobalLockId(lock)) {
    pub = nullptr;
  }

  if (config_.stage == EngineStage::kInstrumentationOnly) {
    // Figure 8 stage 1: intercept + capture + events only.
    const StackId stack = stacks_->Intern(CaptureStack());
    slot.pending_stack = stack;
    slot.pending_lock = lock;
    Event ev;
    ev.type = EventType::kAllow;
    ev.thread = thread;
    ev.lock = lock;
    ev.stack = stack;
    ev.mode = mode;
    queue_->Push(ev);
    stats_.gos.fetch_add(1, std::memory_order_relaxed);
    return RequestDecision::kGo;
  }

  std::vector<Frame> captured = CaptureStack();
  if (pub != nullptr) {
    captured.insert(captured.begin(), pub->ProcFrame());
  }
  const StackId stack = stacks_->Intern(captured);

  for (;;) {
    if (slot.acquisition_canceled.load(std::memory_order_acquire)) {
      slot.acquisition_canceled.store(false, std::memory_order_release);
      stats_.broken_acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (pub != nullptr) {
        pub->ClearWait(thread, lock);
      }
      return RequestDecision::kBroken;
    }

    // Reentrant acquisition can never deadlock; skip avoidance (§6: a thread
    // re-entering a monitor returns immediately). An exclusive owner
    // re-requesting in any mode and a shared holder re-requesting shared are
    // reentrant; a shared holder requesting exclusive is an *upgrade* and
    // runs the full protocol — upgrade cycles are exactly the rwlock
    // deadlocks the engine must see. The thread's own holds live in its
    // slot, so this needs no lock-owner stripe round trip.
    bool reentrant = false;
    for (const ThreadSlot::Held& held : slot.held) {
      if (held.lock == lock) {
        reentrant = held.mode == AcquireMode::kExclusive || mode == AcquireMode::kShared;
        break;
      }
    }
    if (reentrant) {
      stats_.reentrant_acquisitions.fetch_add(1, std::memory_order_relaxed);
      return RequestDecision::kReentrant;
    }

    // Tentatively add the allow edge to the RAG cache (§5.4) — before the
    // fast reject, so two racing requesters cannot both miss each other.
    // The add also records this request's candidate signatures.
    AddTuple(stack, AllowedTuple{thread, lock, false, mode}, &MatchScratch());
    slot.pending_stack = stack;
    slot.pending_lock = lock;
    if (pub != nullptr) {
      pub->PublishWait(thread, lock, stack, mode);
    }

    std::optional<MatchResult> match;
    const bool skip_once = slot.skip_avoidance_once.exchange(false, std::memory_order_acq_rel);
    if (config_.stage == EngineStage::kFull && !skip_once) {
      const SigGen* gen = AcquireGenRef(slot);
      if (gen->version != history_->version()) {
        ReleaseGenRef(slot);
        RefreshGen();
        gen = AcquireGenRef(slot);
      }
      const bool yield_on_match = !config_.ignore_yield_decisions;
      bool need_epoch = false;
      if (config_.incremental_matcher) {
        // Decide from per-stripe snapshots; the hazard ref pins `gen` (and
        // its live counters) across the scan. The scan embeds the §5.6 fast
        // reject, so no separate plausibility pre-pass runs here.
        MatchResult fast;
        switch (
            TryMatchIncremental(thread, lock, mode, stack, slot, yield_on_match, *gen, &fast)) {
          case FastMatchOutcome::kMatched:
            match = std::move(fast);
            break;
          case FastMatchOutcome::kNoMatch:
            break;
          case FastMatchOutcome::kFallback:
            need_epoch = true;
            break;
        }
      } else if (AnyInstantiationPlausible(*gen)) {
        need_epoch = true;
      }
      ReleaseGenRef(slot);
      if (need_epoch) {
        stats_.match_slow_path.fetch_add(1, std::memory_order_relaxed);
        match = MatchAndRetire(thread, lock, stack, slot, yield_on_match);
      }
      if (match.has_value() && yield_on_match &&
          yield_count_.load(std::memory_order_seq_cst) > 0) {
        // Our own allow edge was just retired (the YIELD flips it into a
        // request edge): any thread whose matched cover named it is parked
        // on an instantiation that no longer stands. Wake it to re-decide
        // now instead of riding out its yield timeout — spurious wakes are
        // harmless (the full request protocol reruns).
        WakeYieldersOf(thread, lock, stack);
      }
      if (pub != nullptr) {
        DIMMUNIX_LOG(kDebug) << "global request: thread " << thread << " lock " << lock
                             << " stack " << stack << " matched=" << match.has_value();
      }
    }

    if (!match.has_value() || config_.ignore_yield_decisions) {
      if (match.has_value()) {
        // Table 1's middle configuration: the decision is computed and
        // counted but not enforced. MatchAndRetire retired the allow edge;
        // restore it, since the thread proceeds to blocking on the lock.
        stats_.yields.fetch_add(1, std::memory_order_relaxed);
        AddTuple(stack, AllowedTuple{thread, lock, false, mode});
      }
      Event allow_ev;
      allow_ev.type = EventType::kAllow;
      allow_ev.thread = thread;
      allow_ev.lock = lock;
      allow_ev.stack = stack;
      allow_ev.mode = mode;
      BufferHotEvent(slot, std::move(allow_ev));
      stats_.gos.fetch_add(1, std::memory_order_relaxed);
      return RequestDecision::kGo;
    }

    // The kRequest event is only pushed on the yield path: for an immediate
    // GO the monitor-side RAG nets kRequest -> kAllow down to the kAllow
    // state anyway (same drain, same thread), so the uncontended fast path
    // skips the push. A parked thread, though, must be visible as waiting —
    // so the staged hot events (this thread's current holds) flush first,
    // keeping the RAG's view of the yielder complete and in order.
    FlushThreadEvents(slot);
    Event request_ev;
    request_ev.type = EventType::kRequest;
    request_ev.thread = thread;
    request_ev.lock = lock;
    request_ev.stack = stack;
    request_ev.mode = mode;
    queue_->Push(request_ev);

    Event yield_ev;
    yield_ev.type = EventType::kYield;
    yield_ev.thread = thread;
    yield_ev.lock = lock;
    yield_ev.stack = stack;
    yield_ev.mode = mode;
    yield_ev.causes = match->others;
    queue_->Push(yield_ev);

    Event avoided_ev;
    avoided_ev.type = EventType::kAvoided;
    avoided_ev.thread = thread;
    avoided_ev.lock = lock;
    avoided_ev.stack = stack;
    avoided_ev.mode = mode;
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

    Event wake_ev;
    wake_ev.type = EventType::kWake;
    wake_ev.thread = thread;
    wake_ev.lock = lock;
    wake_ev.stack = stack;
    wake_ev.mode = mode;
    queue_->Push(wake_ev);
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
      Event allow_ev;
      allow_ev.type = EventType::kAllow;
      allow_ev.thread = thread;
      allow_ev.lock = lock;
      allow_ev.stack = stack;
      allow_ev.mode = mode;
      BufferHotEvent(slot, std::move(allow_ev));
      stats_.gos.fetch_add(1, std::memory_order_relaxed);
      return RequestDecision::kGo;
    }
    if (park_result == 2) {
      stats_.broken_acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (pub != nullptr) {
        pub->ClearWait(thread, lock);
      }
      return RequestDecision::kBroken;
    }
    if (park_result == 3) {
      if (pub != nullptr) {
        pub->ClearWait(thread, lock);
      }
      return RequestDecision::kTimedOut;
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
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  ThreadSlot& slot = registry_.Slot(thread);
  if (recorder_ != nullptr && recorder_->timing()) {
    slot.acquire_begin_ns = obs::NowNs();
  }
  GlobalEdgePublisher* pub = global_pub_.load(std::memory_order_acquire);
  if (pub != nullptr && !IsGlobalLockId(lock)) {
    pub = nullptr;
  }
  std::vector<Frame> captured = CaptureStack();
  if (pub != nullptr) {
    captured.insert(captured.begin(), pub->ProcFrame());
  }
  const StackId stack = stacks_->Intern(captured);

  bool reentrant = false;
  for (const ThreadSlot::Held& held : slot.held) {
    if (held.lock == lock) {
      reentrant = held.mode == AcquireMode::kExclusive || mode == AcquireMode::kShared;
      break;
    }
  }
  if (reentrant) {
    stats_.reentrant_acquisitions.fetch_add(1, std::memory_order_relaxed);
    return RequestDecision::kReentrant;  // caller resolves against lock kind
  }

  AddTuple(stack, AllowedTuple{thread, lock, false, mode}, &MatchScratch());
  slot.pending_stack = stack;
  slot.pending_lock = lock;
  if (pub != nullptr) {
    pub->PublishWait(thread, lock, stack, mode);
  }

  if (config_.stage == EngineStage::kFull && !config_.ignore_yield_decisions) {
    const SigGen* gen = AcquireGenRef(slot);
    if (gen->version != history_->version()) {
      ReleaseGenRef(slot);
      RefreshGen();
      gen = AcquireGenRef(slot);
    }
    std::optional<MatchResult> match;
    bool need_epoch = false;
    if (config_.incremental_matcher) {
      MatchResult fast;
      switch (TryMatchIncremental(thread, lock, mode, stack, slot, /*yield_on_match=*/false, *gen,
                                  &fast)) {
        case FastMatchOutcome::kMatched:
          match = std::move(fast);
          break;
        case FastMatchOutcome::kNoMatch:
          break;
        case FastMatchOutcome::kFallback:
          need_epoch = true;
          break;
      }
    } else if (AnyInstantiationPlausible(*gen)) {
      need_epoch = true;
    }
    ReleaseGenRef(slot);
    if (need_epoch) {
      stats_.match_slow_path.fetch_add(1, std::memory_order_relaxed);
      match = MatchAndRetire(thread, lock, stack, slot, /*yield_on_match=*/false);
    }
    if (match.has_value()) {
      stats_.yields.fetch_add(1, std::memory_order_relaxed);
      history_->RecordAvoidance(match->signature_index);
      last_avoided_.store(match->signature_index, std::memory_order_relaxed);
      // The kBusy answer permanently retires our allow edge; yielders whose
      // cover named it can re-decide now.
      if (yield_count_.load(std::memory_order_seq_cst) > 0) {
        WakeYieldersOf(thread, lock, stack);
      }
      if (pub != nullptr) {
        pub->ClearWait(thread, lock);
      }
      return RequestDecision::kBusy;  // refuse to enter the dangerous pattern
    }
  }

  Event allow_ev;
  allow_ev.type = EventType::kAllow;
  allow_ev.thread = thread;
  allow_ev.lock = lock;
  allow_ev.stack = stack;
  allow_ev.mode = mode;
  BufferHotEvent(slot, std::move(allow_ev));
  stats_.gos.fetch_add(1, std::memory_order_relaxed);
  return RequestDecision::kGo;
}

void AvoidanceEngine::Acquired(ThreadId thread, LockId lock, AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested()) {
    return;
  }
  ThreadSlot& slot = registry_.Slot(thread);
  StackId stack = slot.pending_stack;
  bool already_holding = false;
  bool upgrade_retire = false;
  lock_owners_.WithStripe(lock, [&](auto& owners) {
    auto it = owners.find(lock);
    LockHolder* holder = it != owners.end() ? it->second.HolderFor(thread) : nullptr;
    if (holder != nullptr) {
      // Reentrant acquisition (exclusive re-lock or recursive shared hold).
      ++holder->count;
      stack = holder->stack;
      already_holding = true;
      if (mode == AcquireMode::kExclusive && it->second.mode == AcquireMode::kShared) {
        // A committed upgrade: the raw layer only grants exclusive over our
        // own shared hold when no other holder exists, so promote the entry
        // and retire the upgrade request's allow tuple — otherwise the owner
        // set stays kShared and the tuple lingers as a phantom allow edge.
        it->second.mode = AcquireMode::kExclusive;
        upgrade_retire = true;
      }
    } else if (it == owners.end()) {
      // First time this lock is seen: create its (permanent) entry.
      auto& info = owners[lock];
      info.mode = mode;
      info.holders.push_back(LockHolder{thread, stack, 1});
    } else if (mode == AcquireMode::kExclusive || it->second.holders.empty()) {
      // Free lock (released entries keep their map node and holder-vector
      // capacity as a tombstone, so the uncontended acquire/release cycle
      // never touches the allocator), or an exclusive grant (an exclusive
      // grant implies every previous holder is gone; replace defensively if
      // events raced).
      it->second.mode = mode;
      it->second.holders.clear();
      it->second.holders.push_back(LockHolder{thread, stack, 1});
    } else {
      // Additional shared holder joins the owner set.
      it->second.mode = AcquireMode::kShared;
      it->second.holders.push_back(LockHolder{thread, stack, 1});
    }
  });
  if (already_holding) {
    if (upgrade_retire && slot.pending_stack != kInvalidStackId) {
      RemoveTuple(slot.pending_stack, thread, lock, /*held=*/false);
    }
    for (auto& held : slot.held) {
      if (held.lock == lock) {
        ++held.count;
        if (upgrade_retire) {
          held.mode = AcquireMode::kExclusive;  // committed upgrade
        }
        break;
      }
    }
  } else {
    slot.held.push_back(ThreadSlot::Held{lock, stack, 1, mode});
    // Allow edge -> hold edge in the RAG cache.
    StackSlot* stack_slot = SlotFor(stack);
    SlotStripe& stripe = StripeOf(stack);
    std::lock_guard<SpinLock> guard(stripe.lock);
    bool found = false;
    for (auto& tuple : stack_slot->tuples) {
      if (tuple.thread == thread && tuple.lock == lock) {
        tuple.held = true;
        found = true;
        break;
      }
    }
    if (!found) {
      // Stage kInstrumentationOnly does not maintain tuples; kFull always
      // will have inserted one.
      if (config_.stage != EngineStage::kInstrumentationOnly) {
        AddTupleLocked(stripe, stack, stack_slot, AllowedTuple{thread, lock, true, mode});
      }
    }
  }
  if (GlobalEdgePublisher* pub = global_pub_.load(std::memory_order_acquire);
      pub != nullptr && IsGlobalLockId(lock)) {
    // Promotes the published wait row to a hold (reentrant holds bump the
    // row's count), making the acquisition visible fleet-wide.
    pub->PublishHold(thread, lock, stack, mode);
  }
  Event ev;
  ev.type = EventType::kAcquired;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  BufferHotEvent(slot, std::move(ev));
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
    bool matches = false;
    for (const YieldCause& cause : yslot.yield_causes) {
      if (cause.thread == thread && cause.lock == lock &&
          (cause.stack == stack || stack == kInvalidStackId)) {
        matches = true;
        break;
      }
    }
    if (matches) {
      std::lock_guard<std::mutex> park_guard(yslot.park_m);
      yslot.wake_pending = true;
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
  bool final_release = false;
  lock_owners_.WithStripe(lock, [&](auto& owners) {
    auto it = owners.find(lock);
    if (it == owners.end()) {
      return;
    }
    LockOwnerInfo& info = it->second;
    mode = info.mode;
    if (LockHolder* holder = info.HolderFor(thread); holder != nullptr) {
      stack = holder->stack;
      if (--holder->count <= 0) {
        // This thread's hold ends (other shared holders may remain). A
        // fully-released entry stays in the map as a tombstone — every
        // reader treats empty holders as "free", and keeping the node (and
        // the holder vector's capacity) makes the next acquisition
        // allocation-free.
        final_release = true;
        info.holders.erase(info.holders.begin() + (holder - info.holders.data()));
      }
    }
  });
  for (auto it = slot.held.begin(); it != slot.held.end(); ++it) {
    if (it->lock == lock) {
      if (--it->count <= 0) {
        slot.held.erase(it);
      }
      break;
    }
  }
  if (GlobalEdgePublisher* pub = global_pub_.load(std::memory_order_acquire);
      pub != nullptr && IsGlobalLockId(lock) && stack != kInvalidStackId) {
    // Arena rows carry the reentrancy count, so every release of a held
    // global lock maps to one ClearHold; the row frees when the count hits
    // zero — exactly when final_release fires here.
    pub->ClearHold(thread, lock);
  }
  if (final_release) {
    RemoveTuple(stack, thread, lock, /*held=*/true);
    // Lock conditions changed in a way that could let yielders make
    // progress (§5.1: "Dimmunix reschedules the paused thread T whenever
    // lock conditions change"). yield_count_ lets the common no-yielders
    // case skip the yield-set lock: a yielder that matched our hold tuple
    // registered before we could remove that tuple (the match holds every
    // stripe), and the removal above synchronizes with its registration.
    if (yield_count_.load(std::memory_order_seq_cst) > 0) {
      WakeYieldersOf(thread, lock, stack);
    }
  }
  Event ev;
  ev.type = EventType::kRelease;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  BufferHotEvent(slot, std::move(ev));
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
    RemoveTuple(stack, thread, lock, /*held=*/false);
    // A canceled request retires an allow edge other yielders may have
    // matched; let them re-decide instead of waiting out their timeout.
    if (yield_count_.load(std::memory_order_seq_cst) > 0) {
      WakeYieldersOf(thread, lock, stack);
    }
  }
  if (GlobalEdgePublisher* pub = global_pub_.load(std::memory_order_acquire);
      pub != nullptr && IsGlobalLockId(lock)) {
    pub->ClearWait(thread, lock);
  }
  Event ev;
  ev.type = EventType::kCancel;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  BufferHotEvent(slot, std::move(ev));
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
  slot.wake_pending = true;
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
// These reproduce the tuple/owner-map/event effects of Request-allow,
// Cancel, Acquired, and Release for a thread that lives in another process.
// They never touch the ThreadRegistry: foreign ids (>= kForeignThreadBase)
// have no slot, and every monitor-side path already guards slot access with
// registry().Contains().

void AvoidanceEngine::MirrorForeignWait(ThreadId thread, LockId lock, StackId stack,
                                        AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested() ||
      config_.stage == EngineStage::kInstrumentationOnly) {
    return;
  }
  AddTuple(stack, AllowedTuple{thread, lock, false, mode});
  DIMMUNIX_LOG(kDebug) << "foreign wait: thread " << thread << " lock " << lock << " stack "
                       << stack << " (" << stacks_->Describe(stack) << ")";
  Event ev;
  ev.type = EventType::kAllow;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  queue_->Push(ev);
}

void AvoidanceEngine::MirrorForeignWaitEnd(ThreadId thread, LockId lock, StackId stack,
                                           AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested() ||
      config_.stage == EngineStage::kInstrumentationOnly) {
    return;
  }
  RemoveTuple(stack, thread, lock, /*held=*/false);
  // A withdrawn foreign wait dissolves any local instantiation built on it.
  if (yield_count_.load(std::memory_order_seq_cst) > 0) {
    WakeYieldersOf(thread, lock, stack);
  }
  Event ev;
  ev.type = EventType::kCancel;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  queue_->Push(ev);
}

void AvoidanceEngine::MirrorForeignHold(ThreadId thread, LockId lock, StackId stack,
                                        AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested() ||
      config_.stage == EngineStage::kInstrumentationOnly) {
    return;
  }
  bool already_holding = false;
  lock_owners_.WithStripe(lock, [&](auto& owners) {
    auto it = owners.find(lock);
    LockHolder* holder = it != owners.end() ? it->second.HolderFor(thread) : nullptr;
    if (holder != nullptr) {
      ++holder->count;
      already_holding = true;
      if (mode == AcquireMode::kExclusive) {
        it->second.mode = AcquireMode::kExclusive;
      }
    } else if (it == owners.end()) {
      auto& info = owners[lock];
      info.mode = mode;
      info.holders.push_back(LockHolder{thread, stack, 1});
    } else if (it->second.holders.empty()) {
      // Tombstone of a fully released lock: reuse it as a free entry.
      it->second.mode = mode;
      it->second.holders.push_back(LockHolder{thread, stack, 1});
    } else {
      // Unlike Acquired(), a foreign edge must NEVER displace existing
      // holders: this snapshot can be one bridge tick stale, and a local
      // thread may have legitimately acquired the lock in between —
      // dropping its holder record would orphan its arena row and leave a
      // phantom hold fleet-wide. Join the holder set and leave the
      // recorded mode to the standing holders (each holder is retired
      // individually by its own release).
      it->second.holders.push_back(LockHolder{thread, stack, 1});
    }
  });
  if (!already_holding) {
    // Flip a standing foreign wait tuple into a hold, or add a fresh one —
    // the same allow -> hold transition Acquired() performs locally.
    StackSlot* stack_slot = SlotFor(stack);
    SlotStripe& stripe = StripeOf(stack);
    std::lock_guard<SpinLock> guard(stripe.lock);
    bool found = false;
    for (auto& tuple : stack_slot->tuples) {
      if (tuple.thread == thread && tuple.lock == lock) {
        tuple.held = true;
        found = true;
        break;
      }
    }
    if (!found) {
      AddTupleLocked(stripe, stack, stack_slot, AllowedTuple{thread, lock, true, mode});
    }
  }
  DIMMUNIX_LOG(kDebug) << "foreign hold: thread " << thread << " lock " << lock << " stack "
                       << stack << " (" << stacks_->Describe(stack) << ")";
  Event ev;
  ev.type = EventType::kAcquired;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  queue_->Push(ev);
}

void AvoidanceEngine::MirrorForeignRelease(ThreadId thread, LockId lock, StackId stack,
                                           AcquireMode mode) {
  ScopedEngineEntry entry;
  if (!config_.enabled || entry.nested() ||
      config_.stage == EngineStage::kInstrumentationOnly) {
    return;
  }
  bool final_release = false;
  lock_owners_.WithStripe(lock, [&](auto& owners) {
    auto it = owners.find(lock);
    if (it == owners.end()) {
      return;
    }
    if (LockHolder* holder = it->second.HolderFor(thread); holder != nullptr) {
      if (--holder->count <= 0) {
        final_release = true;
        it->second.holders.erase(it->second.holders.begin() +
                                 (holder - it->second.holders.data()));
        // Empty entries stay as tombstones, same as local Release().
      }
    }
  });
  if (final_release) {
    RemoveTuple(stack, thread, lock, /*held=*/true);
    // A foreign release changes lock conditions exactly like a local one:
    // yielders whose causes name this foreign hold can retry now. This is
    // the wake-up that lets a process resume once the peer it dodged has
    // finished its critical section.
    if (yield_count_.load(std::memory_order_seq_cst) > 0) {
      WakeYieldersOf(thread, lock, stack);
    }
  }
  Event ev;
  ev.type = EventType::kRelease;
  ev.thread = thread;
  ev.lock = lock;
  ev.stack = stack;
  ev.mode = mode;
  queue_->Push(ev);
}

int AvoidanceEngine::Park(ThreadSlot& slot, std::optional<MonoTime> deadline) {
  std::unique_lock<std::mutex> park_guard(slot.park_m);
  MonoTime bound = Now() + config_.yield_timeout;
  bool deadline_is_nearest = false;
  if (deadline.has_value() && *deadline < bound) {
    bound = *deadline;
    deadline_is_nearest = true;
  }
  while (!slot.wake_pending) {
    if (slot.acquisition_canceled.load(std::memory_order_acquire)) {
      slot.acquisition_canceled.store(false, std::memory_order_release);
      return 2;
    }
    if (slot.park_cv.wait_until(park_guard, bound) == std::cv_status::timeout) {
      if (!slot.wake_pending) {
        return deadline_is_nearest ? 3 : 1;
      }
      break;
    }
  }
  slot.wake_pending = false;
  return 0;
}

ThreadId AvoidanceEngine::LockOwner(LockId lock) const {
  auto* self = const_cast<AvoidanceEngine*>(this);
  return self->lock_owners_.WithStripe(lock, [&](auto& owners) {
    auto it = owners.find(lock);
    return (it == owners.end() || it->second.mode != AcquireMode::kExclusive ||
            it->second.holders.empty())
               ? kInvalidThreadId
               : it->second.holders.front().thread;
  });
}

bool AvoidanceEngine::HoldsLock(ThreadId thread, LockId lock) const {
  auto* self = const_cast<AvoidanceEngine*>(this);
  return self->lock_owners_.WithStripe(lock, [&](auto& owners) {
    auto it = owners.find(lock);
    return it != owners.end() && it->second.HolderFor(thread) != nullptr;
  });
}

std::size_t AvoidanceEngine::SharedHolderCount(LockId lock) const {
  auto* self = const_cast<AvoidanceEngine*>(this);
  return self->lock_owners_.WithStripe(lock, [&](auto& owners) {
    auto it = owners.find(lock);
    return (it == owners.end() || it->second.mode != AcquireMode::kShared)
               ? std::size_t{0}
               : it->second.holders.size();
  });
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
  const ThreadId me = registry_.RegisterCurrentThread();
  EngineView view;
  view.stripes = stripe_count();
  {
    SlotEpochGuard epoch(*this, me);
    view.signature_generation = CurrentGen()->version;
    for (std::size_t s = 0; s <= slot_stripe_mask_; ++s) {
      view.live_stacks += slot_stripes_[s].live.size();
      for (const StackId id : slot_stripes_[s].live) {
        view.allowed_tuples += stack_slots_.Get(static_cast<std::size_t>(id))->tuples.size();
      }
    }
    StripedMap<LockId, LockOwnerInfo>::AllStripesGuard owners(lock_owners_);
    for (std::size_t s = 0; s < lock_owners_.stripe_count(); ++s) {
      // Fully released locks linger as empty tombstone entries; only count
      // entries that currently have holders.
      for (const auto& [id, info] : lock_owners_.map_at(s)) {
        if (!info.holders.empty()) {
          ++view.tracked_locks;
        }
      }
    }
  }
  view.yielding_threads = static_cast<std::size_t>(
      std::max(0, yield_count_.load(std::memory_order_seq_cst)));
  return view;
}

}  // namespace dimmunix
