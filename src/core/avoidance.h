// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The avoidance side of Dimmunix (§5.4): the request / acquired / release /
// cancel methods invoked by the lock instrumentation, the "RAG cache"
// (per-stack Allowed sets), signature-instantiation matching, and the yield
// parking/waking machinery.
//
// Everything here runs on the application's critical path; the expensive
// work (cycle detection, history file I/O, calibration verdicts) is done
// asynchronously by the monitor, which consumes the events this class
// enqueues.
//
// Concurrency design (the striped hot path)
// -----------------------------------------
// The engine shards its mutable state:
//
//  * Allowed-set slots  — dense per-StackId slots in an append-only slab,
//                         each guarded by the slot stripe chosen by StackId
//                         hash; a per-stripe list tracks slots that
//                         currently have tuples ("live" slots).
//  * holds              — one record per hold in each place that reads it:
//                         the holder's ThreadSlot::held (owner thread only:
//                         reentrancy, upgrades, releases) and a held tuple
//                         in its stack's Allowed set (matching, and the
//                         cold LockOwner/SharedHolderCount scans). A foreign
//                         hold has only the tuple; two mirrored holds of one
//                         (thread, lock) are two tuples.
//  * EngineStats        — sharded counters (src/common/sharded_counter.h).
//  * stack interning    — lock-free in StackTable.
//  * yield set          — a dedicated small lock (yield_m_); releasers skip
//                         it entirely while no thread is yielding.
//
// A yielding thread waits for lock conditions to change (§5.4) in Park: it
// spins for at most kSpinBudget on its slot's atomic wake flag, which a
// releaser sets under park_m, and only then sleeps on park_cv (counted in
// EngineStats::yield_sleeps). Wakers are the same either way.
//
// A hot-path operation holds at most one stripe lock at a time (validation
// may take yield_m_ under it). Only cache rebuilds (RefreshGen, which
// publishes a generation) and Snapshot() take the "stop-the-stripes" epoch —
// every slot stripe in ascending order; no decision does. Its hold time is
// counted (epoch_hold_ns) and bounded by kEpochHoldBound in debug builds.
//
// One matcher decides every request (Decide -> TryMatchIncremental). Each
// cache generation groups signature positions into suffix classes (the
// stacks matching a position at its signature's depth) with one atomic
// live-tuple counter per class, kept by tuple add/remove under the slot's
// stripe (one seq_cst RMW per class of the stack). A signature can have an
// instance only while each class holds as many tuples as the signature has
// positions in it. A request adds its tentative tuple, reads the counters of
// the signatures its stack can occupy, and when one passes copies the
// candidate tuples one stripe at a time into private pools and runs the
// cover search there; on a match it registers its yield, retires its allow
// edge and validates the cover.
//
// Add-before-scan makes a no-match authoritative without validation. If R1's
// counter read misses R2's seq_cst add, R1's add precedes R2's in the seq_cst
// order, so R2's reads see R1; if R1's scan of R2's stripe missed R2's tuple,
// R1's add < R1's scan < R2's add < R2's scan, so R2's scan sees R1. A
// rebuild between add and decide keeps both: RefreshGen seeds every live
// slot, the requester's included, into the new counters under the epoch
// before publishing, and the requester re-collects its candidates against
// that generation. A live slot whose memberships are not from the pinned
// generation means a newer one was published: the decision restarts on it,
// so restarts are bounded by history changes.
//
// No lost wake: registration (yield_m_, seq_cst yield_count_) precedes the
// allow tuple's removal and validation. A cause tuple validation saw present
// is removed after that check, and its remover's yield_count_ check then
// sees the registration and wakes the yielder (RetireTuple, or Decide for a
// matcher retiring its own edge).
//
// Tie-break: two requesters matched on each other's allow tuples can both
// fail validation, each having removed its own tuple first. An absent cause
// is forgiven when it is the very allow edge its owner retired for a yield
// registered on a cover naming the requester's tuple, and the owner has a
// higher ThreadId; only local threads register, so mirrored foreign tuples
// never qualify. So the lower ThreadId keeps its yield and the higher one
// fails, re-adds its tuple, unregisters and rescans without the lower's
// edge: one round. The check runs under the cause's stripe, which the re-add
// needs, so a peer mid-rollback still looks registered. The kept yield is
// woken: the keeper's Decide wakes the peer if it parked on the keeper's
// edge, and the peer, which unregisters only after the keeper's check,
// re-adds that same edge and then releases, cancels or matches it
// (RetireTuple / Decide's WakeYieldersOf) or abandons it (Request wakes on
// kBroken / kTimedOut). A cause that is some other edge of a registered
// peer (say a hold it has since released) is not forgiven: nothing would
// wake on it again. A nonblocking requester registers only for its
// commit step and unregisters before its Decide wake. Any other failed
// validation means a matched tuple was retired — progress elsewhere — so
// the rescan needs no retry cap.
//
// Lock ordering (outermost first):
//   sig_mutex_ -> slot stripes (ascending) -> yield_m_ -> ThreadSlot::park_m
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
#include "src/common/hash.h"
#include "src/common/spin_lock.h"
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
  std::size_t stripes = 0;          // slot stripe count
  std::size_t tracked_locks = 0;    // distinct locks among held tuples
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
  // calling thread waits in Park (spin, then sleep) and the request is
  // transparently retried after wake-up. Returns only with a final
  // decision. `deadline` (optional) bounds the total time spent yielding
  // (used by timed lock acquisition).
  RequestDecision Request(ThreadId thread, LockId lock,
                          AcquireMode mode = AcquireMode::kExclusive,
                          std::optional<MonoTime> deadline = std::nullopt);

  // Nonblocking request for trylock: returns kBusy instead of yielding when
  // the acquisition would instantiate a signature (kGo / kReentrant
  // otherwise).
  RequestDecision RequestNonblocking(ThreadId thread, LockId lock,
                                     AcquireMode mode = AcquireMode::kExclusive);

  // The lock was actually acquired / released by `thread`. Release reads the
  // mode from the thread's own hold record (pthread_rwlock_unlock does not
  // say which side it undoes).
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
  // Exclusive owner of `lock` (kInvalidThreadId when free or held in shared
  // mode). Cold: scans the live Allowed sets one stripe at a time.
  ThreadId LockOwner(LockId lock) const;
  // The mode the calling thread `self` holds `lock` in, if it holds it. Reads
  // only `self`'s own slot, so only `self` may call it. Used by adapters for
  // locks with replace-on-relock kernel semantics (flock, fcntl record
  // locks) to model conversions correctly.
  std::optional<AcquireMode> HeldMode(ThreadId self, LockId lock);
  // Number of threads currently holding `lock` in shared mode (0 when free
  // or exclusively owned). Cold, like LockOwner.
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
  // One cache line each: slab neighbours are written under other stripes.
  struct alignas(64) StackSlot {
    std::vector<AllowedTuple> tuples;
    // Position in the owning stripe's live-slot list; -1 while empty.
    int live_index = -1;
    // The suffix classes of cache generation `member_version` this stack
    // belongs to: one per distinct signature depth it matches at.
    // Recomputed lazily when the generation changes.
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

  // Per-thread matcher scratch: candidate indexes and tuple pools keep their
  // capacity between acquisitions, so the steady state copies tuples without
  // touching the allocator (shortening the requester's own tuple-live
  // window, which quadratically lowers the odds other requesters coincide
  // with it).
  struct FastScratch {
    // The requester-scoped candidate set: entries of generation
    // `own_version` that the requester's slot can occupy and that were fully
    // live right after its tentative add. Written by AddTupleLocked, or by
    // TryMatchIncremental when it re-bases on a newer generation.
    std::vector<std::size_t> own_cands;
    std::uint64_t own_version = kStaleVersion;
    std::vector<std::size_t> cands;    // upgrade candidate set
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
  // per-class live counters mutate after publication.
  static constexpr std::uint64_t kStaleVersion = ~0ULL;
  static constexpr unsigned kPosBits = 10;  // max 1024 stacks per signature
  struct SigGen {
    std::uint64_t version = kStaleVersion;  // History::version() it reflects
    struct Entry {
      int index = -1;  // position in History
      int depth = 4;
      std::vector<StackId> sig_stacks;
      // cls[j] = the class of sig_stacks[j]; need[j] = this entry's positions
      // in that class. An instance puts a distinct thread on every position,
      // so j can only be covered while live[cls[j]] >= need[j]: a same-suffix
      // signature needs two threads at that suffix, not one.
      std::vector<std::uint32_t> cls;
      std::vector<std::int64_t> need;
    };
    // A suffix class: the stacks matching `rep` at `depth` (matching at a
    // depth is an equivalence). `positions` are the signature positions in
    // the class, packed (entry << kPosBits) | j, in entry order.
    struct Class {
      int depth = 0;
      StackId rep = kInvalidStackId;
      std::vector<std::uint32_t> positions;
    };
    std::vector<Entry> entries;
    std::vector<Class> classes;
    // live[c] = tuples currently in slots of class c. seq_cst add/remove +
    // seq_cst candidate reads.
    std::unique_ptr<std::atomic<std::int64_t>[]> live;
  };
  // True when every position j of `sig` has live[cls[j]] >= need[j]
  // (seq_cst reads): only then can the signature have an instance.
  static bool EveryPositionLive(const SigGen& gen, const SigGen::Entry& sig);
  // Writes to `out`, in entry order, the entries with a position in one of
  // `classes` (any entry when null) that pass EveryPositionLive. An empty
  // result is the §5.6 fast reject.
  static void CollectCandidates(const SigGen& gen, const std::vector<std::uint32_t>* classes,
                                std::vector<std::size_t>* out);

  struct MatchResult {
    int signature_index = -1;
    int depth = 0;
    int deepest = 0;                  // deepest depth the same cover matches at
    std::vector<YieldCause> others;   // the signature instance minus the requester
  };

  // Locks every slot stripe in ascending order; the holder has a consistent
  // view of all Allowed sets.
  class SlotEpochGuard {
   public:
    explicit SlotEpochGuard(AvoidanceEngine& engine);
    ~SlotEpochGuard();
    SlotEpochGuard(const SlotEpochGuard&) = delete;
    SlotEpochGuard& operator=(const SlotEpochGuard&) = delete;

   private:
    AvoidanceEngine& engine_;
    // Steady-clock ns when the last stripe lock was taken; the destructor
    // turns it into the epoch-hold histogram sample and kEpoch trace span.
    std::uint64_t entered_ns_ = 0;
    std::uint64_t stall_ns_ = 0;  // time spent waiting to enter
  };
  // Upper bound on how long any epoch may be held, asserted in debug builds
  // (release builds only count epoch_hold_ns). Generous by design: it exists
  // to catch reintroduced unbounded epoch work, not scheduler noise or
  // sanitizer slowdowns.
  static constexpr std::chrono::milliseconds kEpochHoldBound{1000};

  std::size_t StripeIndexOf(StackId stack) const {
    return static_cast<std::size_t>(MixHash64(static_cast<std::uint64_t>(stack))) &
           slot_stripe_mask_;
  }
  SlotStripe& StripeOf(StackId stack) { return slot_stripes_[StripeIndexOf(stack)]; }

  // Slot accessor; creates slots up to `id` (serialized internally). The
  // returned pointer is stable; contents are guarded by StripeOf(id).
  StackSlot* SlotFor(StackId id);

  // Tuple bookkeeping. Caller must hold StripeOf(stack). These maintain the
  // stripe live list and the generation's per-class live counters. A
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

  // The decide step shared by Request and RequestNonblocking, run after the
  // requester's tentative allow tuple is in place: pins the signature-cache
  // generation (rebuilding it if the history moved) and runs the incremental
  // matcher, re-pinning and rerunning it when it restarts on a newer
  // generation. On a match the allow tuple is retired (and, with
  // yield_on_match, the yield stays registered), and yielders whose cover
  // named that tuple are woken to re-decide.
  std::optional<MatchResult> Decide(ThreadId thread, LockId lock, AcquireMode mode,
                                    StackId stack, ThreadSlot& slot, bool yield_on_match);

  // The publisher for `lock`: null unless an IPC arena is wired in and the
  // id carries kGlobalLockBit.
  GlobalEdgePublisher* PublisherFor(LockId lock) const;
  // The request-side bookkeeping shared by both request forms: counts the
  // request and opens the acquire-latency span, which closes in Acquired().
  ThreadSlot& BeginRequest(ThreadId thread);
  // Grants the request: stages its kAllow event and counts the GO.
  RequestDecision Grant(ThreadSlot& slot, ThreadId thread, LockId lock, StackId stack,
                        AcquireMode mode);
  // Stages the request's tentative allow edge in the RAG cache (§5.4): the
  // tuple add (which also records the requester's candidate signatures),
  // the slot's pending request, and a global lock's published wait edge.
  void StageAllow(ThreadSlot& slot, ThreadId thread, LockId lock, StackId stack, AcquireMode mode,
                  GlobalEdgePublisher* pub);
  // Allow edge -> hold edge in the RAG cache, for local and foreign holds
  // alike: flips (thread, lock)'s standing allow tuple to held, or adds a
  // held tuple when none stands (so a second foreign hold of one (thread,
  // lock) is a second tuple).
  void FlipToHold(ThreadId thread, LockId lock, StackId stack, AcquireMode mode);
  // A committed upgrade: (thread, lock)'s held tuple in `stack` now says
  // kExclusive, so covers stop reusing the lock as if it were shared.
  void PromoteHold(ThreadId thread, LockId lock, StackId stack);
  // Every held tuple of `lock`, collected one stripe lock at a time
  // (LockOwner, SharedHolderCount).
  std::vector<AllowedTuple> HeldTuples(LockId lock) const;
  // Removes (thread, lock)'s tuple, then wakes the yielders whose cover
  // named it so they re-decide now instead of at their timeout.
  void RetireTuple(StackId stack, ThreadId thread, LockId lock, bool held);

  // Copies the live tuples of every position of `cands` into scratch.pools,
  // locking each stripe in turn and recording its version in
  // scratch.scan_versions. Returns false when a live slot's memberships are
  // not from `gen` (a newer generation was published).
  bool FillPools(const SigGen& gen, const std::vector<std::size_t>& cands, FastScratch& scratch);
  // Cover search over the filled pools, candidates in order; the first
  // match wins and is written to `result`.
  bool SearchCandidates(const SigGen& gen, const std::vector<std::size_t>& cands,
                        FastScratch& scratch, ThreadId thread, LockId lock, MatchResult* result);

  enum class MatchOutcome {
    kNoMatch,  // authoritative: no signature instantiation exists
    kMatched,  // *result holds the cover; tuple retired (+ yield registered)
    kRestart,  // a newer generation was published; decide again on it
  };
  // The cover search that decides every request, on `gen` (the caller's
  // pinned generation): takes the candidates the requester's add recorded
  // (every fully live signature for an upgrade), re-collected against `gen`
  // when a rebuild republished since; copies their live tuples one stripe
  // lock at a time into private pools and searches the copies. A match is
  // committed and validated (CoverStillStands); a failed validation re-adds
  // the tuple and rescans.
  MatchOutcome TryMatchIncremental(ThreadId thread, LockId lock, AcquireMode mode, StackId stack,
                                   ThreadSlot& slot, bool yield_on_match, const SigGen& gen,
                                   MatchResult* result);
  // True when every non-requester tuple of `result`'s cover is still in its
  // slot (one stripe lock at a time) or its owner DefersTo the requester.
  // `scan_versions[s]` is stripe `s`'s version during the pool scan: an
  // unchanged stripe is valid without a presence check.
  bool CoverStillStands(ThreadId thread, LockId lock, StackId stack, const MatchResult& result,
                        const std::vector<std::uint64_t>& scan_versions);
  // The tie-break (takes yield_m_): `cause` is the allow edge its owner
  // retired for a yield registered on a cover naming (thread, lock, stack),
  // and the owner's ThreadId is higher than `thread`.
  bool DefersTo(const YieldCause& cause, ThreadId thread, LockId lock, StackId stack);
  // True when `causes` names (thread, lock, stack); an invalid `stack`
  // matches any.
  static bool NamesTuple(const std::vector<YieldCause>& causes, ThreadId thread, LockId lock,
                         StackId stack);
  // Yield-set bookkeeping for the matcher's commit step. Register takes
  // yield_m_ then park_m; it must complete before the requester's allow
  // tuple (`edge`) is removed so a releaser that saw the tuple also sees
  // yield_count_ > 0.
  void RegisterYield(const YieldCause& edge, ThreadSlot& slot, const MatchResult& result);
  void UnregisterYield(ThreadId thread, ThreadSlot& slot);

  bool CoverPositions(const SigGen::Entry& sig,
                      const std::vector<std::vector<std::pair<StackId, AllowedTuple>>>& pools,
                      std::size_t pos, CoverScratch& cover, ThreadId requester, LockId req_lock);

  // Stages a hot-path event in `slot`'s buffer (stamping it first), netting
  // out cancelling pairs, and flushes on overflow. See FlushThreadEvents.
  void BufferHotEvent(ThreadSlot& slot, Event&& ev);

  // Waits until woken, canceled, or timed out: spins (SpinUntil) on
  // wake_pending and the cancel flag, then sleeps on park_cv if neither came,
  // counting the sleep in yield_sleeps. The spin stops at the yield bound
  // or `deadline` like the sleep does.
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

  // Null unless the runtime wired an IPC arena in (Config::ipc_path).
  std::atomic<GlobalEdgePublisher*> global_pub_{nullptr};

  // --- Striped state ---------------------------------------------------------
  const std::size_t slot_stripe_mask_;
  std::unique_ptr<SlotStripe[]> slot_stripes_;
  AtomicSlab<StackSlot> stack_slots_;
  SpinLock slot_growth_lock_;  // serializes slab appends

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
