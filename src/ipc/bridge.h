// Copyright (c) dimmunix-cpp authors. MIT license.
//
// IpcBridge — the per-process glue between the avoidance engine and the
// shared-memory arena (src/ipc/arena.h). It plays both directions:
//
//   publisher (application threads, via the engine's global-lock port):
//     wait/hold transitions of global locks are *logged* into a per-process
//     pending op-log (a SpinLock'd map, no arena traffic) and drained to
//     this process's arena rows in batches — on contention (the engine
//     flushes before parking), on a fixed 2 ms flush timer
//     (kFlushPeriod), or when the backlog crosses a cap. Uncontended acquire/release pairs coalesce
//     to nothing, so the uncontended global fast path never touches the
//     arena. The price is a publication lag bounded by one flush epoch;
//     docs/ipc-arena.md states the resulting detectability bound.
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
  std::uint64_t flushes = 0;           // completed pending-log drains
  std::uint64_t flush_ops = 0;         // ops replayed across all drains
  std::uint64_t pending_ops = 0;       // ops waiting in the log right now
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
  // Drains the pending op-log into the arena. Safe from any thread; the
  // engine calls it right before parking a global-lock waiter so a forming
  // cross-process cycle becomes arena-visible without waiting for the
  // timer. No-op when the log is empty.
  void FlushPending() override;

  // Backlog size that triggers an inline flush from the publishing thread.
  static constexpr std::size_t kPendingFlushCap = 512;
  // Pending-log drain cadence. The engine additionally flushes before
  // parking and the log self-flushes past kPendingFlushCap, so this timer
  // only bounds how long an *uncontended* edge stays unpublished.
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

  // --- Pending op-log (deferred publication, protocol v2) -------------------
  // Application threads append; any thread drains via FlushPending(). Both
  // locks are spin locks: publisher calls run inside interposed lock
  // operations under LD_PRELOAD, where a pthread mutex would recurse into
  // the engine. Lock order: flush_m_ -> pending_m_; appends take only
  // pending_m_.
  enum class OpKind : std::uint8_t { kWait, kClearWait, kHold, kClearHold };
  struct PendingOp {
    OpKind kind;
    StackId stack;  // kInvalidStackId for clears
    AcquireMode mode;
  };
  struct PendingKey {
    ThreadId thread;
    LockId lock;
    bool operator==(const PendingKey&) const = default;
  };
  struct PendingKeyHash {
    std::size_t operator()(const PendingKey& k) const;
  };
  struct PendingEntry {
    std::vector<PendingOp> ops;
    // Arena-row shadow, advanced as ops are staged for replay: whether the
    // arena currently shows a wait row for this key and how many published
    // holds stand. Append consults it so pop-coalescing never nets the log
    // to nothing while a flushed wait row is still standing — without it,
    // a Wait flushed early (pre-park contention flush, epoch timer, backlog
    // cap) followed by an in-log Hold/ClearHold annihilation would leave
    // peers mirroring a phantom waiter forever.
    bool arena_wait = false;
    std::uint32_t arena_holds = 0;
  };

  void Append(ThreadId thread, LockId lock, OpKind kind, StackId stack, AcquireMode mode);

  void Loop();
  ThreadId SyntheticTid(const ThreadKey& key);
  void RetireEdge(const EdgeKey& key, const Mirrored& m);

  const Options options_;
  AvoidanceEngine* engine_;
  StackTable* stacks_;
  obs::Recorder* recorder_;
  std::unique_ptr<IpcArena> arena_;

  // Pending op-log state. flush_m_ serializes drains end to end: the batch
  // is detached (under pending_m_) only AFTER flush_m_ is held, so two
  // racing flushers can never replay one key's ops out of order.
  SpinLock flush_m_;
  mutable SpinLock pending_m_;
  std::unordered_map<PendingKey, PendingEntry, PendingKeyHash> pending_;
  std::size_t pending_ops_ = 0;  // total ops across pending_ (under pending_m_)
  // Drain staging buffer, reused across flushes (guarded by flush_m_).
  std::vector<std::pair<PendingKey, PendingOp>> flush_scratch_;
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
