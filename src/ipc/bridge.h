// Copyright (c) dimmunix-cpp authors. MIT license.
//
// IpcBridge — the per-process glue between the avoidance engine and the
// shared-memory arena (src/ipc/arena.h). It plays both directions:
//
//   publisher (application threads, via the engine's global-lock port):
//     wait/hold transitions of global locks update one EdgeState per
//     (thread, lock) — the edges it should show now — under a spin lock,
//     with no arena traffic. A flush reconciles every key whose desired
//     edges differ from the published ones: it frees, allocates and
//     rewrites this process's arena rows until they show the desired
//     state. Flushes run on contention (the engine flushes before parking)
//     and on a fixed 2 ms timer (kFlushPeriod). An uncontended
//     acquire/release returns its key to the published state, so the
//     uncontended global fast path never touches the arena. The price is a
//     publication lag bounded by one flush epoch; docs/ipc-arena.md states
//     the resulting detectability bound.
//
//   mirror (the bridge thread): every `period`, foreign participants' rows
//     are snapshot, diffed against the previously mirrored set, and the
//     delta folded into the local engine as synthetic-thread edges
//     (MirrorForeign*). The existing colored-DFS deadlock search and the
//     signature matcher then operate on cross-process cycles with no
//     changes of their own. Disappearing holds wake local yielders, so a
//     process parked to dodge a foreign peer resumes as soon as that peer
//     releases — or dies (liveness sweeps reclaim SIGKILL'd participants).
//
// Foreign (participant, claim-generation, thread) triples map to stable
// synthetic ThreadIds at kForeignThreadBase; a participant slot reuse gets
// fresh ids, so a corpse's edges can never be confused with its
// successor's.

#ifndef DIMMUNIX_IPC_BRIDGE_H_
#define DIMMUNIX_IPC_BRIDGE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/spin_lock.h"
#include "src/core/avoidance.h"
#include "src/core/global_port.h"
#include "src/ipc/arena.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace ipc {

// Control-plane summary (dimctl ipc).
struct IpcStatus {
  bool running = false;
  std::string arena_path;
  int participant = -1;
  std::uint64_t generation = 0;
  std::uint64_t ticks = 0;
  std::uint64_t foreign_edges_mirrored = 0;  // currently mirrored foreign edges
  std::uint64_t participants_reclaimed = 0;
  std::uint64_t dropped_publishes = 0;
  std::uint64_t flushes = 0;           // flushes that had keys to reconcile
  std::uint64_t flush_ops = 0;         // arena row writes + frees across all flushes
  std::uint64_t pending_ops = 0;       // keys whose desired edges are unpublished now
  std::uint64_t id_cache_hits = 0;     // global-ID cache (src/ipc/global_id.h)
  std::uint64_t id_cache_misses = 0;
  std::vector<ParticipantInfo> participants;
};

class IpcBridge : public GlobalEdgePublisher {
 public:
  struct Options {
    std::string arena_path;
    std::chrono::milliseconds period{25};
    int sweep_every = 8;         // liveness sweep every N ticks
    bool start_thread = true;    // false: tests drive Tick() themselves
  };

  // `engine` and `stacks` must outlive the bridge. `recorder` (optional) is
  // the src/obs flight recorder: each Tick that folds edges emits a
  // kBridgeFold span when tracing is live.
  IpcBridge(Options options, AvoidanceEngine* engine, StackTable* stacks,
            obs::Recorder* recorder = nullptr);
  ~IpcBridge() override;

  IpcBridge(const IpcBridge&) = delete;
  IpcBridge& operator=(const IpcBridge&) = delete;

  // Opens + claims the arena and (unless start_thread is off) starts the
  // mirror thread. False with `*error` set when the arena is unusable; the
  // runtime then continues without cross-process immunity.
  bool Start(std::string* error);

  // Retracts mirrored foreign edges from the engine, stops the thread, and
  // releases the participant slot. Idempotent. Like Runtime destruction
  // itself (whose teardown sequence calls this), it requires application
  // threads to be out of the engine: a thread still inside a global-lock
  // Request may have captured the publisher pointer before Stop() unhooked
  // it. Runtime::Global() is leaked intentionally for exactly this reason;
  // embedded runtimes must join their workers before destruction.
  void Stop();

  // One mirror iteration (heartbeat, sweep, snapshot, diff-fold). Called by
  // the background loop; public so tests run the bridge deterministically.
  void Tick();

  IpcStatus SnapshotStatus() const;
  IpcArena* arena() { return arena_.get(); }

  // --- GlobalEdgePublisher (application threads) ----------------------------
  Frame ProcFrame() const override;
  void PublishWait(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) override;
  void ClearWait(ThreadId thread, LockId lock) override;
  void PublishHold(ThreadId thread, LockId lock, StackId stack, AcquireMode mode) override;
  void ClearHold(ThreadId thread, LockId lock) override;
  // Reconciles this process's arena rows with the desired edge states.
  // Safe from any thread; the engine calls it right before parking a
  // global-lock waiter so a forming cross-process cycle becomes
  // arena-visible without waiting for the timer. No-op when every key is
  // published.
  void FlushPending() override;

  // Flush cadence. The engine additionally flushes before parking, so this
  // timer only bounds how long an *uncontended* edge stays unpublished.
  static constexpr std::chrono::microseconds kFlushPeriod{2000};

 private:
  struct EdgeKey {
    int participant;
    std::uint64_t generation;
    ThreadId thread;
    LockId lock;
    // Edge kind is part of the identity: during a shared->exclusive upgrade
    // a foreign thread legitimately has BOTH a hold and a wait on the same
    // lock (two arena rows), and both must be mirrored side by side.
    bool hold;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& k) const;
  };
  struct Mirrored {
    ThreadId synthetic = kInvalidThreadId;
    StackId stack = kInvalidStackId;
    bool hold = false;
    AcquireMode mode = AcquireMode::kExclusive;
    std::uint64_t seen_tick = 0;  // last snapshot containing this edge
  };
  struct ThreadKey {
    int participant;
    std::uint64_t generation;
    ThreadId thread;
    bool operator==(const ThreadKey&) const = default;
  };
  struct ThreadKeyHash {
    std::size_t operator()(const ThreadKey& k) const;
  };

  // --- Deferred publication (protocol v2) -----------------------------------
  // Both locks are spin locks: publisher calls run inside interposed lock
  // operations under LD_PRELOAD, where a pthread mutex would recurse into
  // the engine. Lock order: flush_m_ -> pending_m_; publishers take only
  // pending_m_.
  struct Edge {
    bool present = false;
    AcquireMode mode = AcquireMode::kExclusive;
    StackId stack = kInvalidStackId;
    std::uint32_t count = 0;  // reentrant hold depth; 0 for a wait
    bool operator==(const Edge&) const = default;
  };
  // The edges one (thread, lock) shows. A key with both is a thread that
  // requests a lock it holds (reentrantly, or as a shared->exclusive
  // upgrade): two rows, so peers can detect upgrade-upgrade cycles.
  struct Edges {
    Edge wait;
    Edge hold;
    bool operator==(const Edges&) const = default;
  };
  struct EdgeState {
    ThreadId thread = kInvalidThreadId;
    LockId lock = kInvalidLockId;
    Edges want;            // desired (pending_m_)
    Edges shown;           // published by the last flush (pending_m_)
    bool queued = false;   // listed in queued_ (pending_m_)
    int wait_row = -1;     // arena rows, -1 = none or dropped (flush_m_)
    int hold_row = -1;
  };
  struct LocalKey {
    ThreadId thread;
    LockId lock;
    bool operator==(const LocalKey&) const = default;
  };
  struct LocalKeyHash {
    std::size_t operator()(const LocalKey& k) const;
  };

  struct FlushTally {
    std::uint64_t writes = 0;
    std::uint64_t frees = 0;
  };

  template <typename Apply>
  void Update(ThreadId thread, LockId lock, Apply apply);
  // Brings one arena row from showing `was` to showing `want`.
  void SyncRow(const EdgeState& state, int* row, const Edge& was, const Edge& want, bool hold,
               FlushTally* tally);

  void Loop();
  ThreadId SyntheticTid(const ThreadKey& key);
  void RetireEdge(const EdgeKey& key, const Mirrored& m);

  const Options options_;
  AvoidanceEngine* engine_;
  StackTable* stacks_;
  obs::Recorder* recorder_;
  std::unique_ptr<IpcArena> arena_;

  // Deferred publication state. Entries are never erased while the bridge
  // runs, so EdgeState pointers stay valid across rehashes; an emptied key
  // keeps its node for the next acquisition of the same lock.
  SpinLock flush_m_;
  mutable SpinLock pending_m_;
  std::unordered_map<LocalKey, EdgeState, LocalKeyHash> states_;
  std::vector<EdgeState*> queued_;  // keys that differed since the last flush
  std::size_t differing_ = 0;       // keys with want != shown (pending_m_)
  std::vector<EdgeState*> flushing_;  // the batch being reconciled (flush_m_)
  std::atomic<std::uint64_t> flush_count_{0};
  std::atomic<std::uint64_t> flush_ops_total_{0};

  // Mirror state (bridge thread only).
  std::unordered_map<EdgeKey, Mirrored, EdgeKeyHash> mirrored_;
  std::unordered_map<ThreadKey, ThreadId, ThreadKeyHash> synthetic_tids_;
  ThreadId next_synthetic_ = kForeignThreadBase;
  std::uint64_t tick_count_ = 0;
  std::uint64_t reclaimed_total_ = 0;

  mutable std::mutex status_m_;  // guards the IpcStatus copy fields below
  std::uint64_t status_ticks_ = 0;
  std::uint64_t status_mirrored_ = 0;
  std::uint64_t status_reclaimed_ = 0;

  std::mutex stop_m_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace ipc
}  // namespace dimmunix

#endif  // DIMMUNIX_IPC_BRIDGE_H_
