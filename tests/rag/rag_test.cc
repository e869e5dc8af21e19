// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Drives the RAG with synthetic event streams — no real threads — and
// checks deadlock-cycle and yield-cycle (starvation) detection semantics
// against the definitions of §5.2, including the Figure 3 scenario.

#include "src/rag/rag.h"

#include <gtest/gtest.h>

namespace dimmunix {
namespace {

Event Ev(EventType type, ThreadId t, LockId l, StackId s = 0,
         AcquireMode mode = AcquireMode::kExclusive) {
  Event event;
  event.type = type;
  event.thread = t;
  event.lock = l;
  event.stack = s;
  event.mode = mode;
  return event;
}

Event YieldEv(ThreadId t, LockId l, std::vector<YieldCause> causes) {
  Event event = Ev(EventType::kYield, t, l);
  event.causes = std::move(causes);
  return event;
}

class RagTest : public ::testing::Test {
 protected:
  void Acquire(ThreadId t, LockId l, StackId s,
               AcquireMode mode = AcquireMode::kExclusive) {
    rag_.Apply(Ev(EventType::kRequest, t, l, s, mode));
    rag_.Apply(Ev(EventType::kAllow, t, l, s, mode));
    rag_.Apply(Ev(EventType::kAcquired, t, l, s, mode));
  }
  void Wait(ThreadId t, LockId l, StackId s, AcquireMode mode = AcquireMode::kExclusive) {
    rag_.Apply(Ev(EventType::kRequest, t, l, s, mode));
    rag_.Apply(Ev(EventType::kAllow, t, l, s, mode));
  }
  Rag rag_;
};

TEST_F(RagTest, NoCycleNoDeadlock) {
  Acquire(1, 100, 10);
  Wait(2, 100, 20);  // waits for a held lock: no cycle
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
}

TEST_F(RagTest, TwoThreadAbBaCycle) {
  Acquire(1, 100, 10);  // T1 holds A (stack 10)
  Acquire(2, 200, 20);  // T2 holds B (stack 20)
  Wait(1, 200, 11);     // T1 waits for B
  Wait(2, 100, 21);     // T2 waits for A
  auto cycles = rag_.DetectDeadlocks();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].threads.size(), 2u);
  // Signature stacks are the hold-edge labels (§5.3): acquisition stacks.
  std::vector<StackId> stacks = cycles[0].stacks;
  std::sort(stacks.begin(), stacks.end());
  EXPECT_EQ(stacks, (std::vector<StackId>{10, 20}));
}

TEST_F(RagTest, ThreeThreadRingCycle) {
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  Acquire(3, 300, 30);
  Wait(1, 200, 11);
  Wait(2, 300, 21);
  Wait(3, 100, 31);
  auto cycles = rag_.DetectDeadlocks();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].threads.size(), 3u);
  EXPECT_EQ(cycles[0].stacks.size(), 3u);
}

TEST_F(RagTest, CycleReportedOnlyOnce) {
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  Wait(1, 200, 11);
  Wait(2, 100, 21);
  EXPECT_EQ(rag_.DetectDeadlocks().size(), 1u);
  // Re-touch the same waiters: the cycle is already flagged.
  rag_.Apply(Ev(EventType::kRequest, 1, 200, 11));
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
}

TEST_F(RagTest, AllowEdgesCountTowardDeadlock) {
  // A thread that is *allowed* to wait commits to blocking: allow edges are
  // part of deadlock cycles (§5.4).
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  Wait(1, 200, 11);
  rag_.Apply(Ev(EventType::kRequest, 2, 100, 21));  // request-only edge
  auto cycles = rag_.DetectDeadlocks();
  EXPECT_EQ(cycles.size(), 1u);
}

TEST_F(RagTest, ReentrantHoldNeedsMatchingReleases) {
  Acquire(1, 100, 10);
  rag_.Apply(Ev(EventType::kAcquired, 1, 100, 10));  // re-acquisition
  rag_.Apply(Ev(EventType::kRelease, 1, 100, 10));
  EXPECT_TRUE(rag_.HoldsAnyLock(1));  // still held: one release remaining
  rag_.Apply(Ev(EventType::kRelease, 1, 100, 10));
  EXPECT_FALSE(rag_.HoldsAnyLock(1));
}

TEST_F(RagTest, ReleaseBreaksPotentialCycle) {
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  rag_.Apply(Ev(EventType::kRelease, 1, 100, 10));
  Wait(1, 200, 11);
  Wait(2, 100, 21);  // A is free now
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
}

TEST_F(RagTest, CancelClearsWaitEdge) {
  Acquire(1, 100, 10);
  Wait(2, 100, 21);
  rag_.Apply(Ev(EventType::kCancel, 2, 100, 21));
  EXPECT_FALSE(rag_.HasWaitEdge(2));
}

// --- Reader-writer (mode-aware) cycles ----------------------------------------

TEST_F(RagTest, SharedRequestOnSharedHoldersIsNoEdge) {
  // Readers waiting behind readers can never deadlock: shared-shared is
  // non-conflicting, so no wait-for edge exists at all.
  Acquire(1, 100, 10, AcquireMode::kShared);
  Acquire(2, 100, 20, AcquireMode::kShared);
  Wait(3, 100, 30, AcquireMode::kShared);
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
}

TEST_F(RagTest, WriterVsWriterThroughReaderCycle) {
  // T1 holds A exclusively and wants B shared; T2 holds B exclusively and
  // wants A shared. Each shared request conflicts with the other's
  // exclusive hold: a two-thread cycle with shared request edges.
  Acquire(1, 100, 10);                          // T1 holds A (X)
  Acquire(2, 200, 20);                          // T2 holds B (X)
  Wait(1, 200, 11, AcquireMode::kShared);       // T1 wants B (S)
  Wait(2, 100, 21, AcquireMode::kShared);       // T2 wants A (S)
  auto cycles = rag_.DetectDeadlocks();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].threads.size(), 2u);
  std::vector<StackId> stacks = cycles[0].stacks;
  std::sort(stacks.begin(), stacks.end());
  EXPECT_EQ(stacks, (std::vector<StackId>{10, 20}));  // the exclusive hold labels
}

TEST_F(RagTest, UpgradeRaceOverOneLockIsACycle) {
  // Both threads hold L shared and both request it exclusively: each
  // exclusive request conflicts with the *other* shared holder (the
  // requester's own hold is not a cycle edge), closing a two-thread cycle
  // over a single lock.
  Acquire(1, 100, 10, AcquireMode::kShared);
  Acquire(2, 100, 20, AcquireMode::kShared);
  Wait(1, 100, 11, AcquireMode::kExclusive);
  Wait(2, 100, 21, AcquireMode::kExclusive);
  auto cycles = rag_.DetectDeadlocks();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].threads.size(), 2u);
  std::vector<StackId> stacks = cycles[0].stacks;
  std::sort(stacks.begin(), stacks.end());
  EXPECT_EQ(stacks, (std::vector<StackId>{10, 20}));  // the shared hold labels
}

TEST_F(RagTest, SoleUpgraderIsNotACycle) {
  // A thread upgrading while being the only reader blocks on itself; the
  // self-hold is not a cycle edge, so this is not reported as a deadlock.
  Acquire(1, 100, 10, AcquireMode::kShared);
  Wait(1, 100, 11, AcquireMode::kExclusive);
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
}

TEST_F(RagTest, DistinctCyclesThroughSharedHoldersAreAllReported) {
  // One exclusive request fanning out to two shared holders can close two
  // distinct cycles at once; both must be reported in the same batch.
  Acquire(1, 200, 12);                          // T1 holds M1 (X)
  Acquire(1, 300, 13);                          // T1 holds M2 (X)
  Acquire(2, 100, 20, AcquireMode::kShared);    // T2 holds L (S)
  Acquire(3, 100, 30, AcquireMode::kShared);    // T3 holds L (S)
  Wait(2, 200, 21);                             // T2 waits for M1 -> T1
  Wait(3, 300, 31);                             // T3 waits for M2 -> T1
  Wait(1, 100, 11, AcquireMode::kExclusive);    // T1 waits for L -> {T2, T3}
  auto cycles = rag_.DetectDeadlocks();
  ASSERT_EQ(cycles.size(), 2u);
  for (const DeadlockCycle& cycle : cycles) {
    EXPECT_EQ(cycle.threads.size(), 2u);
  }
}

TEST_F(RagTest, SharedHoldersReleaseIndependently) {
  Acquire(1, 100, 10, AcquireMode::kShared);
  Acquire(2, 100, 20, AcquireMode::kShared);
  rag_.Apply(Ev(EventType::kRelease, 1, 100, 10, AcquireMode::kShared));
  EXPECT_FALSE(rag_.HoldsAnyLock(1));
  EXPECT_TRUE(rag_.HoldsAnyLock(2));  // the other reader still holds
  // A writer waiting now conflicts only with the remaining reader.
  Wait(3, 100, 30, AcquireMode::kExclusive);
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
}

// --- Starvation (yield cycles) ------------------------------------------------

TEST_F(RagTest, SimpleMutualYieldIsStarvation) {
  // T1 yields because of T2's hold; T2 yields because of T1's hold.
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  rag_.Apply(YieldEv(1, 200, {{2, 200, 20}}));
  rag_.Apply(YieldEv(2, 100, {{1, 100, 10}}));
  auto starvations = rag_.DetectStarvations();
  ASSERT_GE(starvations.size(), 1u);
  EXPECT_NE(starvations[0].starved, kInvalidThreadId);
}

TEST_F(RagTest, YieldOnRunningThreadIsNotStarvation) {
  // T1 yields because of T2, but T2 holds nothing else and isn't blocked —
  // T2 does not reach back to T1, so nobody is starved.
  Acquire(2, 200, 20);
  rag_.Apply(YieldEv(1, 200, {{2, 200, 20}}));
  EXPECT_TRUE(rag_.DetectStarvations().empty());
}

// The Figure 3 scenario: T1 yields on T2 and T3; T4 yields on T5 and T6;
// T3 waits for lock L held by T4. Starvation exists only when *both* of
// T4's escape routes lead back to T1.
TEST_F(RagTest, Figure3EscapeRoutePreventsStarvation) {
  Acquire(4, 500, 40);                         // T4 holds L
  Wait(3, 500, 30);                            // T3 waits for L
  rag_.Apply(YieldEv(2, 900, {{1, 910, 11}})); // T2 yields back toward T1's hold
  Acquire(1, 910, 11);
  rag_.Apply(YieldEv(1, 901, {{2, 900, 20}, {3, 500, 30}}));
  // T4 yields on T5 and T6; T6 leads back to T1, but T5 escapes (T5 is
  // running free).
  rag_.Apply(YieldEv(6, 902, {{1, 910, 11}}));
  rag_.Apply(YieldEv(4, 903, {{5, 904, 50}, {6, 902, 60}}));
  EXPECT_TRUE(rag_.DetectStarvations().empty());
}

TEST_F(RagTest, Figure3FullEntanglementIsStarvation) {
  Acquire(4, 500, 40);
  Wait(3, 500, 30);
  rag_.Apply(YieldEv(2, 900, {{1, 910, 11}}));
  Acquire(1, 910, 11);
  rag_.Apply(YieldEv(1, 901, {{2, 900, 20}, {3, 500, 30}}));
  // Both of T4's yield targets now lead back to T1.
  rag_.Apply(YieldEv(6, 902, {{1, 910, 11}}));
  rag_.Apply(YieldEv(5, 904, {{1, 910, 11}}));
  rag_.Apply(YieldEv(4, 903, {{5, 904, 50}, {6, 902, 60}}));
  auto starvations = rag_.DetectStarvations();
  ASSERT_GE(starvations.size(), 1u);
  const StarvationCycle& cycle = starvations[0];
  EXPECT_FALSE(cycle.stacks.empty());
  // The break victim must be a yielding thread; T1 and T4 hold locks, and
  // among yielding threads the most-holding one is picked (§3).
  EXPECT_TRUE(cycle.break_victim == 1 || cycle.break_victim == 4);
}

TEST_F(RagTest, WakeClearsYieldEdges) {
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  rag_.Apply(YieldEv(1, 200, {{2, 200, 20}}));
  rag_.Apply(Ev(EventType::kWake, 1, 200, 11));
  // T1 abandons the request entirely (e.g. trylock rollback).
  rag_.Apply(Ev(EventType::kCancel, 1, 200, 11));
  rag_.Apply(YieldEv(2, 100, {{1, 100, 10}}));
  // T1's yield edges were retired by the wake: no mutual entanglement.
  EXPECT_TRUE(rag_.DetectStarvations().empty());
}

// --- Yield cycles are starvation, not deadlock ---------------------------------
//
// The engine pushes kRequest before kYield, so a yielder keeps a request
// edge; deadlock search must not follow it (the yielder waits through its
// yield edges), while starvation search does.

TEST_F(RagTest, PureYieldCycleIsOneStarvationAndNoDeadlock) {
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  rag_.Apply(Ev(EventType::kRequest, 1, 200, 11));
  rag_.Apply(YieldEv(1, 200, {{2, 200, 20}}));
  rag_.Apply(Ev(EventType::kRequest, 2, 100, 21));
  rag_.Apply(YieldEv(2, 100, {{1, 100, 10}}));
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
  EXPECT_EQ(rag_.DetectStarvations().size(), 1u);
}

TEST_F(RagTest, YielderBehindBlockedThreadIsStarvationThenDeadlockOnceBroken) {
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  Wait(1, 200, 11);  // T1 is blocked on B, which T2 holds
  rag_.Apply(Ev(EventType::kRequest, 2, 100, 21));
  rag_.Apply(YieldEv(2, 100, {{1, 100, 10}}));  // T2 yields on T1's hold of A
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
  auto starvations = rag_.DetectStarvations();
  ASSERT_EQ(starvations.size(), 1u);
  EXPECT_EQ(starvations[0].starved, 2);
  EXPECT_EQ(starvations[0].break_victim, 2);  // the only yielder
  // Breaking the yield lets T2 pursue A: now a real deadlock.
  rag_.Apply(Ev(EventType::kWake, 2, 100, 21));
  rag_.Apply(Ev(EventType::kAllow, 2, 100, 21));
  auto cycles = rag_.DetectDeadlocks();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].threads.size(), 2u);
}

TEST_F(RagTest, YieldEndingInTheSameBatchLeavesNoDeadlock) {
  Acquire(1, 100, 10);
  Acquire(2, 200, 20);
  rag_.Apply(Ev(EventType::kRequest, 1, 200, 11));
  rag_.Apply(YieldEv(1, 200, {{2, 200, 20}}));
  rag_.Apply(Ev(EventType::kRequest, 2, 100, 21));
  rag_.Apply(YieldEv(2, 100, {{1, 100, 10}}));
  // Before the pass runs, T1's yield ends and its retry is granted: T1 now
  // blocks on B while T2 still yields on T1.
  rag_.Apply(Ev(EventType::kWake, 1, 200, 11));
  rag_.Apply(Ev(EventType::kAllow, 1, 200, 11));
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
  auto starvations = rag_.DetectStarvations();
  ASSERT_EQ(starvations.size(), 1u);
  EXPECT_EQ(starvations[0].starved, 2);
  // The next pass sees nothing new until a wait edge changes.
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
  EXPECT_TRUE(rag_.DetectStarvations().empty());
}

TEST_F(RagTest, ThreadExitReleasesHolds) {
  Acquire(1, 100, 10);
  rag_.Apply(Ev(EventType::kThreadExit, 1, 0, 0));
  Wait(2, 100, 21);
  EXPECT_TRUE(rag_.DetectDeadlocks().empty());
  EXPECT_EQ(rag_.HeldLockCount(1), 0);
}

TEST_F(RagTest, HeldLocksAccessor) {
  Acquire(1, 100, 10);
  Acquire(1, 101, 11);
  const auto held = rag_.HeldLocks(1);
  EXPECT_EQ(held.size(), 2u);
}

}  // namespace
}  // namespace dimmunix
