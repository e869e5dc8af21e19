// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The avoidance side of Dimmunix (§5.4): the request / acquired / release /
// cancel methods invoked by the lock instrumentation, the "RAG cache"
// (per-stack Allowed sets + a lock-owner map), signature-instantiation
// matching, and the yield parking/waking machinery.
//
// Everything here runs on the application's critical path; the expensive
// work (cycle detection, history file I/O, calibration verdicts) is done
// asynchronously by the monitor, which consumes the events this class
// enqueues.
//
// Concurrency design (the striped hot path)
// -----------------------------------------
// The engine used to serialize every entry point under one global guard.
// It now shards its mutable state:
//
//  * lock_owners_       — StripedMap keyed by LockId hash.
//  * Allowed-set slots  — dense per-StackId slots in an append-only slab,
//                         each guarded by the slot stripe chosen by StackId
//                         hash; a per-stripe list tracks slots that
//                         currently have tuples ("live" slots).
//  * EngineStats        — sharded counters (src/common/sharded_counter.h).
//  * stack interning    — lock-free in StackTable.
//  * yield set          — a dedicated small lock (yield_m_); releasers skip
//                         it entirely while no thread is yielding.
//
// A hot-path operation holds at most one stripe lock at a time. The only
// paths that need a consistent cross-stripe view take the "stop-the-
// stripes" epoch — every slot stripe in ascending order (optionally behind
// the §5.6 Peterson filter): the authoritative signature-instantiation
// search, signature-cache rebuilds after a history change, and Snapshot().
//
// Matching stays off the epoch in the common case: each signature-cache
// generation keeps one atomic live-tuple counter per signature position,
// maintained by tuple add/remove under slot stripe locks with seq_cst RMWs.
// A request first bumps its own tentative tuple, then reads the counters
// (the store-buffer litmus guarantees two racing requesters cannot both
// miss each other). A position counts as live only while it has as many
// tuples as the signature has positions matching the same stacks (distinct
// threads fill them). When every position of a signature the requester's
// own stack can occupy is live — an instantiation that uses the new edge is
// plausible — the request runs the *incremental* cover search
// (TryMatchIncremental): it copies the candidate tuples one stripe lock at a
// time into private pools, runs the cover search on the copies, and on a
// match validates the chosen cover after registering its yield.
// The add-before-scan protocol makes a no-match answer authoritative
// without validation: if requester R1's scan of R2's stripe missed R2's
// tentative tuple, then R1's add happened before R1's scan, which happened
// before R2's add, which happened before R2's scan — so R2's scan sees R1.
// The stop-the-stripes epoch survives only as the rare slow path: cache
// rebuilds after history changes, Snapshot(), and fast-path validation
// churn (bounded retries, then the epoch arbitrates). Its hold time is
// counted (epoch_hold_ns) and bounded by Config::epoch_hold_bound in debug
// builds.
//
// Lock ordering (outermost first):
//   sig_mutex_ -> slot stripes (ascending) -> owner stripes (ascending)
//     -> yield_m_ -> ThreadSlot::park_m
// with single-stripe holders never taking a second stripe, and the history
// and stack-table locks used only as leaves.

#ifndef DIMMUNIX_CORE_AVOIDANCE_H_
#define DIMMUNIX_CORE_AVOIDANCE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/atomic_slab.h"
#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/common/peterson_lock.h"
#include "src/common/spin_lock.h"
#include "src/common/striped_map.h"
#include "src/core/global_port.h"
#include "src/core/stats.h"
#include "src/core/thread_registry.h"
#include "src/event/event_queue.h"
#include "src/obs/recorder.h"
#include "src/signature/history.h"
#include "src/stack/stack_table.h"

namespace dimmunix {

// Outcome of the request protocol (blocking and nonblocking forms).
enum class RequestDecision {
  kGo,         // safe (w.r.t. history) to block waiting for the lock
  kReentrant,  // the caller already owns the lock; skip avoidance
  kBroken,     // acquisition canceled by deadlock recovery
  kTimedOut,   // the caller-supplied deadline expired while yielding
  kBusy,       // nonblocking only: acquiring would instantiate a signature
};

// Epoch-consistent summary of the engine's sharded state (dimctl `status`,
// stress tests). Produced by AvoidanceEngine::Snapshot().
struct EngineView {
  std::size_t stripes = 0;          // slot/owner stripe count
  std::size_t tracked_locks = 0;    // owner-map entries across all stripes
  std::size_t live_stacks = 0;      // stack slots with at least one tuple
  std::size_t allowed_tuples = 0;   // total tuples across all Allowed sets
  std::size_t yielding_threads = 0;
  std::uint64_t signature_generation = 0;  // history version the cache matches
};

class AvoidanceEngine {
 public:
  // `recorder` (optional) is the observability hub (src/obs): when present,
  // the engine records acquire/yield/epoch spans on its trace rings and
  // feeds its latency histograms; when null (tests wiring components by
  // hand) the instrumentation sites cost one null check.
  AvoidanceEngine(const Config& config, StackTable* stacks, History* history, EventQueue* queue,
                  obs::Recorder* recorder = nullptr);
  ~AvoidanceEngine();

  AvoidanceEngine(const AvoidanceEngine&) = delete;
  AvoidanceEngine& operator=(const AvoidanceEngine&) = delete;

  // --- Instrumentation entry points -----------------------------------------
  //
  // Callers outside src/core must not invoke these directly: the
  // acquisition-port API (src/core/acquire.h, Runtime::BeginAcquire) owns
  // the full request/allow/yield/acquired/cancel sequence and is the only
  // sanctioned adapter surface. Tests drive them directly to pin down
  // engine semantics.

  // Blocking request: decides GO vs YIELD against the history; on YIELD the
  // calling thread is parked and the request transparently retried after
  // wake-up. Returns only with a final decision. `deadline` (optional)
  // bounds the total time spent yielding (used by timed lock acquisition).
  RequestDecision Request(ThreadId thread, LockId lock,
                          AcquireMode mode = AcquireMode::kExclusive,
                          std::optional<MonoTime> deadline = std::nullopt);

  // Nonblocking request for trylock: returns kBusy instead of yielding when
  // the acquisition would instantiate a signature (kGo / kReentrant
  // otherwise).
  RequestDecision RequestNonblocking(ThreadId thread, LockId lock,
                                     AcquireMode mode = AcquireMode::kExclusive);

  // The lock was actually acquired / released by `thread`. A lock has one
  // exclusive owner XOR n shared holders; Release infers the mode the lock
  // is held in (pthread_rwlock_unlock does not say which side it undoes).
  void Acquired(ThreadId thread, LockId lock, AcquireMode mode = AcquireMode::kExclusive);
  void Release(ThreadId thread, LockId lock);

  // Rolls back a granted request whose underlying acquisition did not happen
  // (trylock contention, timedlock timeout) — the pthreads `cancel` event of
  // §6.
  void CancelRequest(ThreadId thread, LockId lock,
                     AcquireMode mode = AcquireMode::kExclusive);

  // --- Monitor entry points ---------------------------------------------------

  // Breaks induced starvation (§3): wakes `thread` from its yield and lets
  // it pursue its most recently requested lock, skipping avoidance once.
  void BreakYield(ThreadId thread);

  // Deadlock recovery support: cancels `thread`'s in-flight underlying
  // acquisition via the canceler registered by the sync layer (no-op if the
  // thread is not cancellably blocked).
  void CancelAcquisition(ThreadId thread);

  // The history changed (signature added / disabled / depth changed):
  // eagerly rebuild the signature-cache generation. (The hot path would
  // also notice the version change lazily; the eager rebuild keeps
  // control-plane mutations deterministic.)
  void NotifyHistoryChanged();

  // --- Hot-event staging ------------------------------------------------------
  //
  // kAllow/kAcquired/kRelease/kCancel events are staged in the emitting
  // thread's slot instead of hitting the monitor queue one atomic exchange
  // (plus one allocation) at a time. An uncontended critical section nets
  // to ZERO queue traffic: its allow+acquired+release triple cancels in the
  // buffer. Events that describe blocking (kRequest/kYield/...) flush the
  // buffer first, and the monitor sweeps every slot at the top of each
  // drain, so a wait edge is visible to detection within one monitor tick
  // even if its owner is parked on a real mutex. Events carry emission-time
  // sequence stamps; the drain re-sorts, so the RAG still applies them in
  // global emission order.

  // Publishes `slot`'s staged events to the monitor queue. Safe from any
  // thread (spin-guarded); called by the owner before blocking-path events
  // and by the monitor's per-tick sweep.
  void FlushThreadEvents(ThreadSlot& slot);
  // Sweeps all registered threads' staging buffers (monitor, shutdown).
  void FlushAllThreadEvents();
  // Calibration gate: while false-positive probes are open the calibrator
  // needs to observe every acquired/release, so triple-cancelling is
  // suspended (events still stage; they just all flush).
  void SetEventCoalescing(bool enabled) {
    coalesce_events_.store(enabled, std::memory_order_relaxed);
  }

  // --- Global-lock port (src/core/global_port.h) ------------------------------
  //
  // With a publisher registered, requests/holds of locks whose id carries
  // kGlobalLockBit are proc-qualified and published to the IPC arena; local
  // locks see exactly one predictable branch. Registered once during
  // Runtime construction, before application threads call in.
  void SetGlobalPublisher(GlobalEdgePublisher* publisher) {
    global_pub_.store(publisher, std::memory_order_release);
  }

  // --- Foreign-edge mirror (bridge thread) ------------------------------------
  //
  // Folds another process's wait/hold edges for global locks into the local
  // engine: the tuples join the Allowed sets (so signature matching sees
  // cross-process instantiations) and the matching events reach the monitor
  // (so the RAG's colored DFS finds cross-process cycles). `thread` is a
  // synthetic id at kForeignThreadBase or above — never a registry index.
  void MirrorForeignWait(ThreadId thread, LockId lock, StackId stack, AcquireMode mode);
  void MirrorForeignWaitEnd(ThreadId thread, LockId lock, StackId stack, AcquireMode mode);
  void MirrorForeignHold(ThreadId thread, LockId lock, StackId stack, AcquireMode mode);
  void MirrorForeignRelease(ThreadId thread, LockId lock, StackId stack, AcquireMode mode);

  // --- Introspection -----------------------------------------------------------

  ThreadRegistry& registry() { return registry_; }
  EngineStats& stats() { return stats_; }
  const Config& config() const { return config_; }
  std::size_t stripe_count() const { return slot_stripe_mask_ + 1; }
  // Index of the most recently avoided signature, -1 if none yet. Supports
  // the §5.7 "disable the last avoided signature" user workflow (the
  // pop-up-blocker analogy).
  int last_avoided_signature() const {
    return last_avoided_.load(std::memory_order_relaxed);
  }
  // Exclusive owner of `lock`, if tracked (kInvalidThreadId when free or
  // held in shared mode).
  ThreadId LockOwner(LockId lock) const;
  // True when `thread` is among `lock`'s tracked holders (any mode). Used
  // by adapters for locks with replace-on-relock kernel semantics (flock,
  // fcntl record locks) to model conversions correctly.
  bool HoldsLock(ThreadId thread, LockId lock) const;
  // Number of threads currently holding `lock` in shared mode (0 when free
  // or exclusively owned).
  std::size_t SharedHolderCount(LockId lock) const;
  // Number of (thread, lock) tuples currently in stack `id`'s Allowed set.
  std::size_t AllowedCount(StackId id) const;
  // Stop-the-stripes consistent summary (control plane, tests).
  EngineView Snapshot();

 private:
  struct AllowedTuple {
    ThreadId thread = kInvalidThreadId;
    LockId lock = kInvalidLockId;
    bool held = false;  // allow edge (false) vs hold edge (true)
    AcquireMode mode = AcquireMode::kExclusive;
  };

  // Per interned stack: the paper's Allowed set ("handles to all the threads
  // that are permitted to wait for locks while having call stack S;
  // Allowed includes those threads that have acquired and still hold the
  // locks", §5.6). Guarded by the slot stripe chosen by StackId hash.
  struct StackSlot {
    std::vector<AllowedTuple> tuples;
    // Position in the owning stripe's live-slot list; -1 while empty.
    int live_index = -1;
    // Which signature positions of which cache generation this stack can
    // occupy, packed as (entry_index << kPosBits) | position. Recomputed
    // lazily when the generation changes.
    std::uint64_t member_version = kStaleVersion;
    std::vector<std::uint32_t> memberships;
  };

  struct alignas(64) SlotStripe {
    SpinLock lock;
    std::vector<StackId> live;  // slots in this stripe with tuples
    // Bumped (under `lock`) on every tuple add/remove in this stripe. The
    // incremental matcher records the versions it scanned; an unchanged
    // version at validation time proves the whole stripe's tuple population
    // is exactly what the scan copied, skipping per-tuple presence checks.
    std::uint64_t version = 0;
  };

  // Mode-aware owner set: one exclusive owner XOR n shared holders, each
  // holder with its acquisition stack and a reentrancy count.
  struct LockHolder {
    ThreadId thread = kInvalidThreadId;
    StackId stack = kInvalidStackId;
    int count = 0;
  };
  struct LockOwnerInfo {
    AcquireMode mode = AcquireMode::kExclusive;
    std::vector<LockHolder> holders;  // size 1 when mode == kExclusive

    LockHolder* HolderFor(ThreadId thread) {
      for (LockHolder& h : holders) {
        if (h.thread == thread) {
          return &h;
        }
      }
      return nullptr;
    }
  };

  // Lock-usage bookkeeping for signature instantiation covers: a lock may be
  // reused across tuples only while every use (existing and new) is shared —
  // a reader-writer cycle legitimately visits one rwlock once per holder.
  // Vector-backed: covers hold at most a handful of locks, and the matcher
  // runs on the acquisition hot path where node allocations both cost time
  // and stretch the requester's tuple-live window.
  struct UsedLocks {
    struct Use {
      LockId lock = kInvalidLockId;
      int count = 0;
      bool exclusive = false;  // only ever true while count == 1
    };
    std::vector<Use> uses;

    void Clear() { uses.clear(); }
    bool CanUse(LockId lock, AcquireMode mode) const {
      for (const Use& use : uses) {
        if (use.lock == lock) {
          return !use.exclusive && mode == AcquireMode::kShared;
        }
      }
      return true;
    }
    void Push(LockId lock, AcquireMode mode) {
      for (Use& use : uses) {
        if (use.lock == lock) {
          ++use.count;
          use.exclusive = use.exclusive || mode == AcquireMode::kExclusive;
          return;
        }
      }
      uses.push_back(Use{lock, 1, mode == AcquireMode::kExclusive});
    }
    void Pop(LockId lock) {
      for (auto it = uses.begin(); it != uses.end(); ++it) {
        if (it->lock == lock) {
          if (--it->count <= 0) {
            uses.erase(it);
          }
          return;
        }
      }
    }
  };

  // Backtracking state for CoverPositions, reusable across attempts so the
  // hot path settles into zero allocations.
  struct CoverScratch {
    std::vector<AllowedTuple> chosen;
    std::vector<StackId> chosen_stacks;
    std::vector<ThreadId> used_threads;  // linear: covers are tiny
    UsedLocks used_locks;
    bool requester_used = false;

    void Clear() {
      chosen.clear();
      chosen_stacks.clear();
      used_threads.clear();
      used_locks.Clear();
      requester_used = false;
    }
    bool UsesThread(ThreadId thread) const {
      for (const ThreadId t : used_threads) {
        if (t == thread) {
          return true;
        }
      }
      return false;
    }
  };

  // Per-thread scratch for both matchers: candidate indexes and tuple pools
  // keep their capacity between acquisitions, so the steady state copies
  // tuples without touching the allocator (shortening the requester's own
  // tuple-live window, which quadratically lowers the odds other requesters
  // coincide with it, and keeping allocation out of the epoch).
  struct FastScratch {
    // The requester-scoped candidate set: entries of generation
    // `own_version` that the requester's slot can occupy and that were fully
    // live right after its tentative add. Written by AddTupleLocked.
    std::vector<std::size_t> own_cands;
    std::uint64_t own_version = kStaleVersion;
    std::vector<std::size_t> cands;    // upgrade / epoch candidate set
    std::vector<std::size_t> cand_of;  // entry -> candidate slot; reset after use
    std::vector<std::uint64_t> scan_versions;
    std::vector<std::vector<std::vector<std::pair<StackId, AllowedTuple>>>> pools;
    CoverScratch cover;
  };
  static FastScratch& MatchScratch();

  // One immutable generation of the signature cache. Generations are built
  // under sig_mutex_ + the epoch and published via an atomic pointer;
  // superseded generations are reclaimed by the next rebuild, sparing any
  // still pinned by a reader's hazard pointer (AcquireGenRef). Only the
  // per-position live counters mutate after publication.
  static constexpr std::uint64_t kStaleVersion = ~0ULL;
  static constexpr unsigned kPosBits = 10;  // max 1024 stacks per signature
  struct SigGen {
    std::uint64_t version = kStaleVersion;  // History::version() it reflects
    struct Entry {
      int index = -1;  // position in History
      int depth = 4;
      std::vector<StackId> sig_stacks;
      // live[j] = tuples currently present in slots matching sig_stacks[j]
      // at `depth`. seq_cst add/remove + seq_cst fast-reject reads.
      std::unique_ptr<std::atomic<std::int64_t>[]> live;
      // need[j] = positions k (j included) whose sig_stacks[k] matches
      // sig_stacks[j] at `depth`. An instance puts a distinct thread on every
      // position, and matching at a depth is an equivalence, so position j
      // can only be covered while live[j] >= need[j]: a same-suffix
      // signature needs two threads at that suffix, not one.
      std::vector<std::int64_t> need;
    };
    std::vector<Entry> entries;
    // dead[e] = positions j of entries[e] with live[j] < need[j] (empty
    // signatures pin a sentinel 1 so they can never look fully live).
    // Maintained on live[] need-1 <-> need transitions by
    // Add/RemoveTupleLocked.
    std::unique_ptr<std::atomic<std::int32_t>[]> dead;
    // Entries with dead[e] == 0 — the O(1) form of the §5.6 fast reject.
    // Zero means no signature can possibly be instantiated right now, which
    // is the steady state of a deadlock-free run: the matcher's per-request
    // cost collapses to this one load. seq_cst keeps the two-racing-
    // requesters argument (see AddTupleLocked) intact.
    mutable std::atomic<std::int64_t> fully_live{0};
  };
  // True when every position j of `sig` has live[j] >= need[j] (seq_cst
  // reads): only then can the signature have an instance.
  static bool EveryPositionLive(const SigGen::Entry& sig);
  // Writes to `out` the entries named in `memberships` (packed, sorted by
  // entry) that pass EveryPositionLive; every entry of `gen` when
  // `memberships` is null.
  static void CollectCandidates(const SigGen& gen, const std::vector<std::uint32_t>* memberships,
                                std::vector<std::size_t>* out);

  struct MatchResult {
    int signature_index = -1;
    int depth = 0;
    int deepest = 0;                  // deepest depth the same cover matches at
    std::vector<YieldCause> others;   // the signature instance minus the requester
  };

  // Locks every slot stripe in ascending order (behind the Peterson filter
  // when configured); the holder has a consistent view of all Allowed sets.
  class SlotEpochGuard {
   public:
    SlotEpochGuard(AvoidanceEngine& engine, ThreadId thread);
    ~SlotEpochGuard();
    SlotEpochGuard(const SlotEpochGuard&) = delete;
    SlotEpochGuard& operator=(const SlotEpochGuard&) = delete;

   private:
    AvoidanceEngine& engine_;
    ThreadId thread_;
    // Steady-clock ns when the last stripe lock was taken; the destructor
    // turns it into the epoch-hold histogram sample and kEpoch trace span.
    std::uint64_t entered_ns_ = 0;
    std::uint64_t stall_ns_ = 0;  // time spent waiting to enter
  };

  std::size_t StripeIndexOf(StackId stack) const {
    return static_cast<std::size_t>(MixHash64(static_cast<std::uint64_t>(stack))) &
           slot_stripe_mask_;
  }
  SlotStripe& StripeOf(StackId stack) { return slot_stripes_[StripeIndexOf(stack)]; }

  // Slot accessor; creates slots up to `id` (serialized internally). The
  // returned pointer is stable; contents are guarded by StripeOf(id).
  StackSlot* SlotFor(StackId id);

  // Tuple bookkeeping. Caller must hold StripeOf(stack). These maintain the
  // stripe live list and the generation's per-position live counters. A
  // requester passes its `scratch` to AddTupleLocked, which then records the
  // requester-scoped candidate set (FastScratch::own_cands) right after the
  // add, under the stripe lock it already holds.
  void AddTupleLocked(SlotStripe& stripe, StackId stack, StackSlot* slot, const AllowedTuple& tuple,
                      FastScratch* scratch = nullptr);
  // Removes (thread, lock)'s tuple, preferring the edge kind being retired
  // (held: hold edge; !held: allow edge) — during an upgrade a thread can
  // have both a shared hold tuple and an exclusive allow tuple for the same
  // lock in the same slot.
  void RemoveTupleLocked(SlotStripe& stripe, StackId stack, StackSlot* slot,
                         ThreadId thread, LockId lock, bool held);
  // Convenience: lock the stripe, run the op.
  void AddTuple(StackId stack, const AllowedTuple& tuple, FastScratch* scratch = nullptr);
  void RemoveTuple(StackId stack, ThreadId thread, LockId lock, bool held);

  // Refreshes `slot`'s membership cache against `gen` if stale. Caller
  // holds the slot's stripe.
  void EnsureMemberships(StackId stack, StackSlot* slot, const SigGen& gen);
  std::vector<std::uint32_t> ComputeMemberships(StackId stack, const SigGen& gen) const;

  // The current cache generation (never null). Stable while the caller
  // holds any slot stripe (rebuilds — and generation reclamation — require
  // all of them).
  const SigGen* CurrentGen() const { return gen_.load(std::memory_order_acquire); }
  // Lock-free generation access for callers that hold NO stripe: publishes
  // the pointer in the slot's hazard slot so RefreshGen's reclamation
  // spares it. Pair with ReleaseGenRef.
  const SigGen* AcquireGenRef(ThreadSlot& slot) const;
  static void ReleaseGenRef(ThreadSlot& slot) {
    slot.sig_gen_hazard.store(nullptr, std::memory_order_release);
  }
  // Rebuilds the generation if stale w.r.t. the history version, then
  // frees retired generations no thread still references.
  void RefreshGen();

  // Fast reject (§5.6): true when every position of at least one signature
  // has a live tuple — only then can an instantiation exist. Lock-free.
  bool AnyInstantiationPlausible(const SigGen& gen) const;

  // Authoritative search under the epoch. On a match in blocking mode
  // (yield_on_match), atomically retires the requester's allow tuple and
  // registers the yield; in nonblocking mode only retires the tuple. Like
  // the incremental matcher it searches only the signatures the requester's
  // slot can occupy (every signature for an upgrade).
  std::optional<MatchResult> MatchAndRetire(ThreadId thread, LockId lock, StackId stack,
                                            ThreadSlot& slot, bool yield_on_match);

  // True when `thread` already holds `lock` (the request is a shared ->
  // exclusive upgrade): its held shared tuple can then serve as the
  // instance's requester edge, so candidates cannot be scoped to its slot.
  static bool IsUpgrade(const ThreadSlot& slot, LockId lock);
  // Copies the live tuples of every position of `cands` into scratch.pools.
  // With `lock_stripes` (incremental matcher) each stripe is locked in turn
  // and its version recorded in scratch.scan_versions, and a live slot whose
  // memberships are not from `gen` makes it return false; the epoch holder
  // passes false and refreshes such memberships instead.
  bool FillPools(const SigGen& gen, const std::vector<std::size_t>& cands, FastScratch& scratch,
                 bool lock_stripes);
  // Cover search over the filled pools, candidates in order; the first
  // match wins and is written to `result`.
  bool SearchCandidates(const SigGen& gen, const std::vector<std::size_t>& cands,
                        FastScratch& scratch, ThreadId thread, LockId lock, MatchResult* result);

  // Incremental cover search — the common-case replacement for the epoch.
  enum class FastMatchOutcome {
    kNoMatch,   // authoritative: no signature instantiation exists
    kMatched,   // *result holds the cover; tuple retired (+ yield registered)
    kFallback,  // could not decide locally; caller runs MatchAndRetire
  };
  // Takes the requester-scoped candidates its AddTuple recorded (every fully
  // live signature for an upgrade), scans the live slots one stripe lock at
  // a time against `gen` (the caller's pinned generation), copies the
  // candidates' tuples into private pools, and runs the cover search on the
  // copies. On a match it performs the same retire(+register) sequence as
  // MatchAndRetire, then validates the chosen cover is still standing;
  // validation churn retries a bounded number of times before handing the
  // decision to the epoch. Falls back (never recomputes) when the recorded
  // candidates or any live slot's membership cache are stale w.r.t. `gen`
  // — only the epoch path may recompute memberships.
  FastMatchOutcome TryMatchIncremental(ThreadId thread, LockId lock, AcquireMode mode,
                                       StackId stack, ThreadSlot& slot, bool yield_on_match,
                                       const SigGen& gen, MatchResult* result);
  // True when every non-requester tuple of `result`'s cover is still in its
  // slot (one stripe lock at a time). `scan_versions[s]` is the version
  // slot stripe `s` had during the pool scan: an unchanged stripe is valid
  // without a presence check.
  bool CoverStillStands(const MatchResult& result,
                        const std::vector<std::uint64_t>& scan_versions);
  // Yield-set bookkeeping shared by both matchers. Register takes yield_m_
  // then park_m; it must complete before the requester's allow tuple is
  // removed so a releaser that saw the tuple also sees yield_count_ > 0.
  void RegisterYield(ThreadId thread, ThreadSlot& slot, const MatchResult& result);
  void UnregisterYield(ThreadId thread, ThreadSlot& slot);

  bool CoverPositions(const SigGen::Entry& sig,
                      const std::vector<std::vector<std::pair<StackId, AllowedTuple>>>& pools,
                      std::size_t pos, CoverScratch& cover, ThreadId requester, LockId req_lock);

  // Stages a hot-path event in `slot`'s buffer (stamping it first), netting
  // out cancelling pairs, and flushes on overflow. See FlushThreadEvents.
  void BufferHotEvent(ThreadSlot& slot, Event&& ev);

  // Parks the calling thread until woken, canceled, or timed out.
  // Returns: 0 woken, 1 timeout(yield bound), 2 broken, 3 deadline.
  int Park(ThreadSlot& slot, std::optional<MonoTime> deadline);
  // Wakes every yielder whose causes include (thread, lock, stack). Takes
  // yield_m_; callers should skip via yield_count_ when nothing yields.
  void WakeYieldersOf(ThreadId thread, LockId lock, StackId stack);

  const Config config_;
  StackTable* stacks_;
  History* history_;
  EventQueue* queue_;
  obs::Recorder* recorder_;  // null when no observability hub is wired in
  ThreadRegistry registry_;
  EngineStats stats_;

  const bool use_peterson_;
  PetersonLock peterson_guard_;
  // Null unless the runtime wired an IPC arena in (Config::ipc_path).
  std::atomic<GlobalEdgePublisher*> global_pub_{nullptr};

  // --- Striped state ---------------------------------------------------------
  const std::size_t slot_stripe_mask_;
  std::unique_ptr<SlotStripe[]> slot_stripes_;
  AtomicSlab<StackSlot> stack_slots_;
  SpinLock slot_growth_lock_;  // serializes slab appends
  StripedMap<LockId, LockOwnerInfo> lock_owners_;

  // --- Signature cache generations ------------------------------------------
  SpinLock sig_mutex_;  // serializes RefreshGen
  std::atomic<const SigGen*> gen_;
  // Current + superseded generations. Guarded by sig_mutex_; superseded
  // entries are freed by the next rebuild once no hazard pointer (and no
  // stripe holder — the rebuild owns the epoch) can still reference them.
  std::vector<std::unique_ptr<SigGen>> retired_gens_;

  // --- Yield set -------------------------------------------------------------
  SpinLock yield_m_;
  std::unordered_set<ThreadId> yielding_threads_;  // guarded by yield_m_
  std::atomic<int> yield_count_{0};  // == yielding_threads_.size()

  std::atomic<int> last_avoided_{-1};

  // Hot-event staging: allow/acquired/release triples cancel in the slot
  // buffers unless the monitor suspends coalescing for open calibration
  // probes. Flush threshold bounds buffered state per thread.
  static constexpr std::size_t kEventBufCap = 32;
  std::atomic<bool> coalesce_events_{true};
};

}  // namespace dimmunix

#endif  // DIMMUNIX_CORE_AVOIDANCE_H_
