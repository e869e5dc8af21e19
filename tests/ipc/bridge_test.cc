// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The bridge: foreign arena edges folded into a local engine as
// synthetic-thread tuples, cross-process signature instantiation, and the
// retirement of a vanished participant's edges. Two complete engine stacks
// ("process" A and B) share one arena file inside this test process; the
// bridges run deterministically via Tick().
//
// Publication is deferred (docs/ipc-arena.md): an engine transition updates
// the publisher's desired edge state, not the arena, so tests flush the
// publishing side with FlushPending() before the peer's mirroring Tick —
// exactly the one-flush-epoch visibility contract the protocol documents.

#include "src/ipc/bridge.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "src/common/config.h"
#include "src/core/avoidance.h"
#include "src/event/event_queue.h"
#include "src/ipc/global_id.h"
#include "src/rag/rag.h"
#include "src/signature/history.h"
#include "src/stack/annotation.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace ipc {
namespace {

constexpr LockId kLock1 = kGlobalLockBit | 0x101;
constexpr LockId kLock2 = kGlobalLockBit | 0x202;

// One in-process "process": engine + bridge over the shared arena.
struct Side {
  explicit Side(const std::string& arena_path) {
    Config config;
    config.start_monitor = false;
    stacks = std::make_unique<StackTable>(config.max_match_depth);
    history = std::make_unique<History>(stacks.get());
    queue = std::make_unique<EventQueue>();
    engine = std::make_unique<AvoidanceEngine>(config, stacks.get(), history.get(),
                                               queue.get());
    IpcBridge::Options options;
    options.arena_path = arena_path;
    options.start_thread = false;  // ticks are driven by the test
    bridge = std::make_unique<IpcBridge>(options, engine.get(), stacks.get());
    std::string error;
    started = bridge->Start(&error);
  }

  std::unique_ptr<StackTable> stacks;
  std::unique_ptr<History> history;
  std::unique_ptr<EventQueue> queue;
  std::unique_ptr<AvoidanceEngine> engine;
  std::unique_ptr<IpcBridge> bridge;
  bool started = false;
};

class BridgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    arena_path_ = (std::filesystem::temp_directory_path() /
                   ("bridge_" + std::to_string(::getpid()) + "_" +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                      .string();
    std::filesystem::remove(arena_path_);
  }
  void TearDown() override { std::filesystem::remove(arena_path_); }

  std::string arena_path_;
};

TEST_F(BridgeTest, ForeignHoldBecomesLocalOwnerAndTuple) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // A acquires a global lock through the full protocol.
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::holder"));
  ASSERT_EQ(a.engine->Request(ta, kLock1), RequestDecision::kGo);
  a.engine->Acquired(ta, kLock1);
  a.bridge->FlushPending();

  // B's next tick folds the hold in under a synthetic foreign thread id.
  b.bridge->Tick();
  const ThreadId foreign = b.engine->LockOwner(kLock1);
  EXPECT_GE(foreign, kForeignThreadBase);
  EXPECT_FALSE(b.engine->registry().Contains(foreign))
      << "synthetic ids must not alias registry slots";
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 1u);

  // Release in A; B's next tick retires the mirrored hold.
  a.engine->Release(ta, kLock1);
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.engine->LockOwner(kLock1), kInvalidThreadId);
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 0u);
}

TEST_F(BridgeTest, CrossProcessInstantiationRefusesTheDeadlyAcquisition) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // The cross-process signature: proc-qualified first-lock stacks of both
  // sides, as the monitor would have archived after run 1.
  const Frame proc = ProcessIdentityFrame();
  const Frame frame_a = FrameFromName("bridge::side_a");
  const Frame frame_b = FrameFromName("bridge::side_b");
  bool added = false;
  for (Side* side : {&a, &b}) {
    const StackId sa = side->stacks->Intern({proc, frame_a});
    const StackId sb = side->stacks->Intern({proc, frame_b});
    side->history->Add(SignatureKind::kDeadlock, {sa, sb}, /*match_depth=*/4, &added);
    side->engine->NotifyHistoryChanged();
  }

  // A holds lock1 (its first lock, at its signature stack).
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  {
    ScopedFrame frame(frame_a);
    ASSERT_EQ(a.engine->Request(ta, kLock1), RequestDecision::kGo);
    a.engine->Acquired(ta, kLock1);
  }
  a.bridge->FlushPending();
  b.bridge->Tick();

  // B's first acquisition would complete the instantiation: the engine must
  // refuse (kBusy in the nonblocking form — the blocking form would yield).
  const ThreadId tb = b.engine->registry().RegisterCurrentThread();
  {
    ScopedFrame frame(frame_b);
    EXPECT_EQ(b.engine->RequestNonblocking(tb, kLock2), RequestDecision::kBusy);
  }
  EXPECT_EQ(b.engine->stats().yields.load(), 1u);

  // Once A releases (and the bridge mirrors it), the same acquisition is
  // safe again — one process's escape unblocks the peer.
  a.engine->Release(ta, kLock1);
  a.bridge->FlushPending();
  b.bridge->Tick();
  {
    ScopedFrame frame(frame_b);
    EXPECT_EQ(b.engine->RequestNonblocking(tb, kLock2), RequestDecision::kGo);
  }
  b.engine->CancelRequest(tb, kLock2);
}

TEST_F(BridgeTest, StoppedPeerEdgesAreRetired) {
  Side b(arena_path_);
  ASSERT_TRUE(b.started);
  {
    Side a(arena_path_);
    ASSERT_TRUE(a.started);
    const ThreadId ta = a.engine->registry().RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("bridge::transient"));
    ASSERT_EQ(a.engine->Request(ta, kLock1), RequestDecision::kGo);
    a.engine->Acquired(ta, kLock1);
    a.bridge->FlushPending();
    b.bridge->Tick();
    EXPECT_NE(b.engine->LockOwner(kLock1), kInvalidThreadId);
    // A's bridge shuts down cleanly here (participant slot released, edges
    // cleared) — the library-mode equivalent of a process exit.
  }
  b.bridge->Tick();
  EXPECT_EQ(b.engine->LockOwner(kLock1), kInvalidThreadId);
}

TEST_F(BridgeTest, WaitEdgesMirrorAndClear) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::waiter"));
  ASSERT_EQ(a.engine->Request(ta, kLock2), RequestDecision::kGo);  // wait standing
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 1u);

  a.engine->CancelRequest(ta, kLock2);  // trylock-style rollback
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 0u);
}

TEST_F(BridgeTest, UpgradeUpgradeCycleAcrossProcessesIsDetectable) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // Both "processes" read-lock the same global lock, then request the
  // exclusive upgrade — the SQLite RESERVED-lock shape, across processes.
  // Neither upgrade can commit while the other side's shared hold stands.
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  const ThreadId tb = b.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::upgrader"));
  ASSERT_EQ(a.engine->Request(ta, kLock1, AcquireMode::kShared), RequestDecision::kGo);
  a.engine->Acquired(ta, kLock1, AcquireMode::kShared);
  ASSERT_EQ(b.engine->Request(tb, kLock1, AcquireMode::kShared), RequestDecision::kGo);
  b.engine->Acquired(tb, kLock1, AcquireMode::kShared);
  a.bridge->FlushPending();
  b.bridge->Tick();  // B mirrors A's shared hold

  // Upgrade requests (granted by avoidance — no signature matches — so the
  // wait edges stand while the raw layer would block).
  ASSERT_EQ(a.engine->Request(ta, kLock1, AcquireMode::kExclusive), RequestDecision::kGo);
  ASSERT_EQ(b.engine->Request(tb, kLock1, AcquireMode::kExclusive), RequestDecision::kGo);
  a.bridge->FlushPending();
  b.bridge->Tick();

  // The arena publishes A's upgrade as hold + wait side by side, so B
  // mirrors TWO foreign edges for the one foreign thread.
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 2u);

  // B's monitor-side RAG now sees the cycle: tb (exclusive waiter) conflicts
  // with the foreign shared holder, whose own exclusive wait conflicts with
  // tb's shared hold. Before upgrade waits were published, this deadlock
  // was undetectable from either process.
  Rag rag;
  // tb's own allow/acquired events are staged in its slot buffer (hot-event
  // batching); sweep them into the queue the way the monitor's drain does.
  b.engine->FlushAllThreadEvents();
  while (auto ev = b.queue->Pop()) {
    rag.Apply(*ev);
  }
  EXPECT_FALSE(rag.DetectDeadlocks().empty())
      << "cross-process upgrade-upgrade cycle must form a detectable RAG cycle";
}

TEST_F(BridgeTest, MirrorToleratesUnflushedPublisherLag) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // A's wait sits in the pending log. B's mirror pass must see a consistent
  // (empty) arena — deferred publication is invisible, never torn.
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::lagged"));
  ASSERT_EQ(a.engine->Request(ta, kLock1), RequestDecision::kGo);
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 0u);
  EXPECT_GT(a.bridge->SnapshotStatus().pending_ops, 0u);

  // One flush epoch later the edge is there — the documented visibility
  // bound (docs/ipc-arena.md).
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 1u);
  EXPECT_EQ(a.bridge->SnapshotStatus().pending_ops, 0u);
  a.engine->CancelRequest(ta, kLock1);
}

TEST_F(BridgeTest, UncontendedAcquireReleaseCoalescesToNothing) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // The whole point of batching: a full uncontended acquire/release cycle
  // (wait -> hold -> clear) annihilates inside the op-log, so the flush has
  // nothing to write and the arena is never touched.
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::uncontended"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.engine->Request(ta, kLock1), RequestDecision::kGo);
    a.engine->Acquired(ta, kLock1);
    a.engine->Release(ta, kLock1);
  }
  EXPECT_EQ(a.bridge->SnapshotStatus().pending_ops, 0u);
  a.bridge->FlushPending();  // must be a no-op
  EXPECT_EQ(a.bridge->SnapshotStatus().flushes, 0u);
  EXPECT_EQ(a.bridge->SnapshotStatus().flush_ops, 0u);
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 0u);
}

TEST_F(BridgeTest, FlushedWaitIsClearedWhenGrantAndReleaseCoalesce) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // The op-log leak regression: A's wait is flushed to the arena (the
  // pre-park contention flush, the epoch timer, or the backlog cap all do
  // this), and THEN the grant + release land in the log and annihilate
  // (ClearHold pops Hold). Nothing in that pair reaches the arena — so the
  // bridge must enqueue a compensating ClearWait, or the flushed wait row
  // leaks and peers mirror a phantom waiter forever.
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::flushed_waiter"));
  ASSERT_EQ(a.engine->Request(ta, kLock1), RequestDecision::kGo);
  a.bridge->FlushPending();  // wait row is now arena-visible
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 1u);

  a.engine->Acquired(ta, kLock1);
  a.engine->Release(ta, kLock1);
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.engine->LockOwner(kLock1), kInvalidThreadId);
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 0u)
      << "a flushed wait whose grant/release pair coalesced away must not "
         "leave a phantom wait row in the arena";
}

TEST_F(BridgeTest, ParkThenGrantPromotesFlushedWaitToHold) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // The park-then-grant path: wait flushed first (as before parking), the
  // grant's Hold flushed on a later epoch. The hold must replace — not
  // stack beside — the published wait row, and the eventual release must
  // retire everything.
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::parked_waiter"));
  ASSERT_EQ(a.engine->Request(ta, kLock1), RequestDecision::kGo);
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 1u);
  EXPECT_EQ(b.engine->LockOwner(kLock1), kInvalidThreadId) << "wait edge, not a hold";

  a.engine->Acquired(ta, kLock1);
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 1u)
      << "the grant must promote the wait row, not publish a second edge";
  EXPECT_NE(b.engine->LockOwner(kLock1), kInvalidThreadId);

  a.engine->Release(ta, kLock1);
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.engine->LockOwner(kLock1), kInvalidThreadId);
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 0u);
}

TEST_F(BridgeTest, OverlappingFcntlRangesConflictInTheMirror) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  // Two distinct fcntl ranges on one file: [0,16) and [8,32) overlap, so
  // the kernel would conflict them — and so must the mirrored RAG, even
  // though their LockIds differ. [40,48) stays disjoint as the control.
  const std::string file_path = arena_path_ + ".lockfile";
  const int fd = ::open(file_path.c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  const LockId low = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 0, 16);
  const LockId mid = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 8, 24);
  const LockId far = GlobalIdForFileLock(fd, GlobalLockKind::kFcntlRange, 40, 8);
  ASSERT_NE(low, kInvalidLockId);
  ASSERT_NE(low, mid);
  ASSERT_NE(low, far);

  // A holds [0,16).
  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::range_holder"));
  ASSERT_EQ(a.engine->Request(ta, low), RequestDecision::kGo);
  a.engine->Acquired(ta, low);
  a.bridge->FlushPending();
  b.bridge->Tick();

  // B sees the foreign hold under A's id AND under the overlapping local
  // id — the regression this test pins: pre-range-awareness, [0,16) vs
  // [8,32) were independent locks and the cycle through them had a gap.
  EXPECT_NE(b.engine->LockOwner(low), kInvalidThreadId);
  EXPECT_NE(b.engine->LockOwner(mid), kInvalidThreadId);
  EXPECT_EQ(b.engine->LockOwner(far), kInvalidThreadId)
      << "disjoint ranges must not alias";
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 2u);

  // Release retires both the original and the alias.
  a.engine->Release(ta, low);
  a.bridge->FlushPending();
  b.bridge->Tick();
  EXPECT_EQ(b.engine->LockOwner(low), kInvalidThreadId);
  EXPECT_EQ(b.engine->LockOwner(mid), kInvalidThreadId);
  ::close(fd);
  std::filesystem::remove(file_path);
}

// --- Row bookkeeping, driven through the publisher calls ---------------------
// The engine's calls, issued directly with a flush after each, and the
// peer's raw arena view: which rows stand for one (thread, lock).

std::vector<ForeignEdge> PeerView(Side& peer) { return peer.bridge->arena()->SnapshotForeign(); }

TEST_F(BridgeTest, ReentrantHoldsCountAndUnwind) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  const StackId stack = a.stacks->Intern({0xaa});
  a.bridge->PublishWait(3, kLock1, stack, AcquireMode::kExclusive);
  a.bridge->PublishHold(3, kLock1, stack, AcquireMode::kExclusive);
  a.bridge->PublishHold(3, kLock1, stack, AcquireMode::kExclusive);
  a.bridge->FlushPending();
  auto edges = PeerView(b);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].hold);
  EXPECT_EQ(edges[0].count, 2u);

  a.bridge->ClearHold(3, kLock1);  // reentrant unwind: still held
  a.bridge->FlushPending();
  edges = PeerView(b);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].count, 1u);

  a.bridge->ClearHold(3, kLock1);  // final release
  a.bridge->FlushPending();
  EXPECT_TRUE(PeerView(b).empty());
}

TEST_F(BridgeTest, ClearWaitNeverRetractsAPromotedHold) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  const StackId stack = a.stacks->Intern({0x1});
  a.bridge->PublishWait(1, kLock1, stack, AcquireMode::kExclusive);
  a.bridge->FlushPending();
  a.bridge->PublishHold(1, kLock1, stack, AcquireMode::kExclusive);
  a.bridge->FlushPending();
  a.bridge->ClearWait(1, kLock1);  // stale rollback after the acquisition committed
  a.bridge->FlushPending();
  auto edges = PeerView(b);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].hold);

  // And a request over the standing hold never hides it: the wait takes a
  // second row of its own (lifecycle covered by UpgradeWaitGetsDistinctRow).
  a.bridge->PublishWait(1, kLock1, stack, AcquireMode::kExclusive);
  a.bridge->FlushPending();
  edges = PeerView(b);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_NE(edges[0].hold, edges[1].hold);
}

TEST_F(BridgeTest, UpgradeWaitGetsDistinctRow) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  const StackId first = a.stacks->Intern({0x1});
  const StackId upgrade = a.stacks->Intern({0x2});
  a.bridge->PublishWait(4, kLock1, first, AcquireMode::kShared);
  a.bridge->PublishHold(4, kLock1, first, AcquireMode::kShared);
  a.bridge->FlushPending();
  // Shared -> exclusive upgrade: peers must see the shared hold AND the
  // exclusive wait side by side, or cross-process upgrade-upgrade cycles
  // are invisible.
  a.bridge->PublishWait(4, kLock1, upgrade, AcquireMode::kExclusive);
  a.bridge->FlushPending();
  auto edges = PeerView(b);
  ASSERT_EQ(edges.size(), 2u);
  const auto& hold = edges[0].hold ? edges[0] : edges[1];
  const auto& wait = edges[0].hold ? edges[1] : edges[0];
  EXPECT_TRUE(hold.hold);
  EXPECT_EQ(hold.mode, AcquireMode::kShared);
  EXPECT_FALSE(wait.hold);
  EXPECT_EQ(wait.mode, AcquireMode::kExclusive);
  EXPECT_EQ(hold.thread, wait.thread);
  EXPECT_EQ(hold.lock, wait.lock);

  // A withdrawn upgrade (trylock rollback / yield timeout) retracts only
  // the wait row; the shared hold stays published.
  a.bridge->ClearWait(4, kLock1);
  a.bridge->FlushPending();
  edges = PeerView(b);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].hold);
  EXPECT_EQ(edges[0].mode, AcquireMode::kShared);

  // A committed upgrade frees the wait row and promotes the hold row.
  a.bridge->PublishWait(4, kLock1, upgrade, AcquireMode::kExclusive);
  a.bridge->FlushPending();
  a.bridge->PublishHold(4, kLock1, first, AcquireMode::kExclusive);
  a.bridge->FlushPending();
  edges = PeerView(b);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].hold);
  EXPECT_EQ(edges[0].mode, AcquireMode::kExclusive);
  EXPECT_EQ(edges[0].count, 2u);

  // Full unwind leaks nothing (reentrant count was bumped by the commit).
  a.bridge->ClearHold(4, kLock1);
  a.bridge->ClearHold(4, kLock1);
  a.bridge->FlushPending();
  EXPECT_TRUE(PeerView(b).empty());
}

TEST_F(BridgeTest, OverflowDropsInsteadOfBlocking) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  const StackId stack = a.stacks->Intern({0x1});
  const int edges = IpcArena::kEdgesPerParticipant + 5;
  for (int i = 0; i < edges; ++i) {
    a.bridge->PublishWait(1, kGlobalLockBit | static_cast<LockId>(0x1000 + i), stack,
                          AcquireMode::kExclusive);
  }
  a.bridge->FlushPending();  // returns: a full arena never blocks the flusher
  EXPECT_EQ(a.bridge->SnapshotStatus().dropped_publishes, 5u);
  EXPECT_EQ(a.bridge->SnapshotStatus().pending_ops, 0u);
  EXPECT_EQ(PeerView(b).size(), static_cast<std::size_t>(IpcArena::kEdgesPerParticipant));

  // A dropped edge is counted once: it stays unpublished until it changes.
  a.bridge->FlushPending();
  EXPECT_EQ(a.bridge->SnapshotStatus().dropped_publishes, 5u);

  // Freed rows are reused by the next change.
  for (int i = 0; i < edges; ++i) {
    a.bridge->ClearWait(1, kGlobalLockBit | static_cast<LockId>(0x1000 + i));
  }
  a.bridge->PublishWait(1, kLock1, stack, AcquireMode::kShared);
  a.bridge->FlushPending();
  const auto view = PeerView(b);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0].lock, kLock1);
}

TEST_F(BridgeTest, LocalLocksNeverReachTheArena) {
  Side a(arena_path_);
  Side b(arena_path_);
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);

  const ThreadId ta = a.engine->registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bridge::local"));
  const LockId local = 0x1234;  // no kGlobalLockBit
  ASSERT_EQ(a.engine->Request(ta, local), RequestDecision::kGo);
  a.engine->Acquired(ta, local);
  b.bridge->Tick();
  EXPECT_EQ(b.bridge->SnapshotStatus().foreign_edges_mirrored, 0u);
  a.engine->Release(ta, local);
}

}  // namespace
}  // namespace ipc
}  // namespace dimmunix
