// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Engine-level avoidance semantics (§5.4): GO/YIELD decisions, signature
// instantiation matching, yield parking and waking, and the §5.7 timeout
// bound. Uses isolated Runtimes with the monitor stopped so every behavior
// is deterministic.

#include "src/core/avoidance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <thread>

#include "src/core/runtime.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

Config TestConfig() {
  Config config;
  config.start_monitor = false;
  config.default_match_depth = 1;
  return config;
}

// Seeds history with one two-stack signature at `depth`.
int SeedSignature(Runtime& rt, const char* frame_a, const char* frame_b, int depth = 1) {
  const StackId sa = rt.stacks().Intern({FrameFromName(frame_a)});
  const StackId sb = rt.stacks().Intern({FrameFromName(frame_b)});
  bool added = false;
  const int index = rt.history().Add(SignatureKind::kDeadlock, {sa, sb}, depth, &added);
  rt.engine().NotifyHistoryChanged();
  return index;
}

TEST(AvoidanceTest, GoWhenHistoryEmpty) {
  Runtime rt(TestConfig());
  const ThreadId tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("siteX"));
  EXPECT_EQ(rt.engine().Request(tid, 1), RequestDecision::kGo);
  rt.engine().Acquired(tid, 1);
  rt.engine().Release(tid, 1);
  EXPECT_EQ(rt.engine().stats().gos.load(), 1u);
  EXPECT_EQ(rt.engine().stats().yields.load(), 0u);
}

TEST(AvoidanceTest, ReentrantAcquisitionSkipsAvoidance) {
  Runtime rt(TestConfig());
  const ThreadId tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("siteR"));
  ASSERT_EQ(rt.engine().Request(tid, 5), RequestDecision::kGo);
  rt.engine().Acquired(tid, 5);
  EXPECT_EQ(rt.engine().Request(tid, 5), RequestDecision::kReentrant);
  rt.engine().Acquired(tid, 5);  // reentrant count 2
  rt.engine().Release(tid, 5);
  EXPECT_EQ(rt.engine().LockOwner(5), tid);  // still held
  rt.engine().Release(tid, 5);
  EXPECT_EQ(rt.engine().LockOwner(5), kInvalidThreadId);
}

TEST(AvoidanceTest, YieldsOnSignatureInstanceAndWakesOnRelease) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::latch started(1);
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("reqB"));
    started.count_down();
    // Dangerous: (main holds 100 @holdA) + (this @reqB) covers the
    // signature. This blocks until main releases.
    EXPECT_EQ(rt.engine().Request(tid, 200), RequestDecision::kGo);
    rt.engine().Acquired(tid, 200);
    rt.engine().Release(tid, 200);
  });
  started.wait();
  // Give the other thread time to park.
  while (rt.engine().stats().yields.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.engine().Release(main_tid, 100);  // wakes the yielder
  other.join();
  EXPECT_GE(rt.engine().stats().yields.load(), 1u);
  EXPECT_GE(rt.engine().stats().wakes.load(), 1u);
  EXPECT_EQ(rt.history().Get(0).avoidance_count, rt.engine().stats().yields.load());
}

TEST(AvoidanceTest, NoYieldWhenStacksDoNotMatch) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("unrelated"));
    EXPECT_EQ(rt.engine().Request(tid, 200), RequestDecision::kGo);
    rt.engine().Acquired(tid, 200);
    rt.engine().Release(tid, 200);
  });
  other.join();
  EXPECT_EQ(rt.engine().stats().yields.load(), 0u);
}

TEST(AvoidanceTest, InstantiationRequiresDistinctLocks) {
  // Both tuples on the same lock cannot form an instance ("all thread-lock-
  // stack tuples in the instance must correspond to distinct threads and
  // locks", §3).
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("reqB"));
    // Same lock 100: no instance, should proceed (and then block on the
    // real mutex in a real program; here we only exercise the decision).
    EXPECT_EQ(rt.engine().Request(tid, 100), RequestDecision::kGo);
    rt.engine().CancelRequest(tid, 100);
  });
  other.join();
  EXPECT_EQ(rt.engine().stats().yields.load(), 0u);
}

TEST(AvoidanceTest, DisabledSignatureIsNotAvoided) {
  Runtime rt(TestConfig());
  const int index = SeedSignature(rt, "holdA", "reqB");
  rt.history().SetDisabled(index, true);
  rt.engine().NotifyHistoryChanged();
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("reqB"));
    EXPECT_EQ(rt.engine().Request(tid, 200), RequestDecision::kGo);
    rt.engine().CancelRequest(tid, 200);
  });
  other.join();
  EXPECT_EQ(rt.engine().stats().yields.load(), 0u);
}

TEST(AvoidanceTest, TryLockReportsBusyInsteadOfYielding) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("reqB"));
    EXPECT_EQ(rt.engine().RequestNonblocking(tid, 200), RequestDecision::kBusy);
  });
  other.join();
  EXPECT_GE(rt.engine().stats().yields.load(), 1u);  // counted as an avoidance
}

TEST(AvoidanceTest, IgnoreYieldDecisionsProceedsButCounts) {
  Config config = TestConfig();
  config.ignore_yield_decisions = true;  // Table 1's middle configuration
  Runtime rt(config);
  SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("reqB"));
    EXPECT_EQ(rt.engine().Request(tid, 200), RequestDecision::kGo);  // not enforced
    rt.engine().CancelRequest(tid, 200);
  });
  other.join();
  EXPECT_GE(rt.engine().stats().yields.load(), 1u);
}

TEST(AvoidanceTest, YieldTimeoutRecordsAbortAndAutoDisables) {
  Config config = TestConfig();
  config.yield_timeout = std::chrono::milliseconds(20);  // §5.7 bound
  config.auto_disable_aborts = 2;
  Runtime rt(config);
  const int index = SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  // The cause (main) never releases: each yield times out, is recorded as
  // an abort, and after the threshold the signature is disabled.
  for (int i = 0; i < 2; ++i) {
    std::thread other([&] {
      const ThreadId tid = rt.RegisterCurrentThread();
      ScopedFrame frame(FrameFromName("reqB"));
      EXPECT_EQ(rt.engine().Request(tid, 200), RequestDecision::kGo);  // released by timeout
      rt.engine().CancelRequest(tid, 200);
    });
    other.join();
  }
  EXPECT_EQ(rt.engine().stats().yield_timeouts.load(), 2u);
  EXPECT_EQ(rt.engine().stats().yield_sleeps.load(), 2u) << "both yields outlived the spin";
  EXPECT_EQ(rt.history().Get(index).abort_count, 2u);
  EXPECT_TRUE(rt.history().Get(index).disabled);
  EXPECT_EQ(rt.engine().stats().signatures_disabled.load(), 1u);
}

TEST(AvoidanceTest, MatchDepthControlsGenerality) {
  // Signature stacks recorded three-deep; runtime stacks share only the top
  // two frames. At signature depth 2 the pattern matches; at depth 3 it
  // does not (§5.5).
  for (int sig_depth : {2, 3}) {
    Config config = TestConfig();
    Runtime rt(config);
    const StackId sa = rt.stacks().Intern(
        {FrameFromName("lockA"), FrameFromName("mid"), FrameFromName("sigOuterA")});
    const StackId sb = rt.stacks().Intern(
        {FrameFromName("lockB"), FrameFromName("mid"), FrameFromName("sigOuterB")});
    bool added = false;
    rt.history().Add(SignatureKind::kDeadlock, {sa, sb}, sig_depth, &added);
    rt.engine().NotifyHistoryChanged();

    const ThreadId main_tid = rt.RegisterCurrentThread();
    {
      ScopedFrame outer(FrameFromName("runtimeOuterA"));
      ScopedFrame mid(FrameFromName("mid"));
      ScopedFrame inner(FrameFromName("lockA"));
      ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
      rt.engine().Acquired(main_tid, 100);
    }
    std::uint64_t yields_seen = 0;
    std::thread other([&] {
      const ThreadId tid = rt.RegisterCurrentThread();
      ScopedFrame outer(FrameFromName("runtimeOuterB"));
      ScopedFrame mid(FrameFromName("mid"));
      ScopedFrame inner(FrameFromName("lockB"));
      if (rt.engine().RequestNonblocking(tid, 200) == RequestDecision::kBusy) {
        yields_seen = 1;
      } else {
        rt.engine().CancelRequest(tid, 200);
      }
    });
    other.join();
    if (sig_depth == 2) {
      EXPECT_EQ(yields_seen, 1u) << "depth-2 match should avoid";
    } else {
      EXPECT_EQ(yields_seen, 0u) << "depth-3 mismatch should not avoid";
    }
  }
}

TEST(AvoidanceTest, CancelAcquisitionBreaksAParkedYielder) {
  // Deadlock recovery can target a thread that is parked in a yield (not
  // just one blocked on the raw mutex): its Request returns kBroken.
  Config config = TestConfig();
  config.yield_timeout = std::chrono::seconds(10);
  Runtime rt(config);
  SeedSignature(rt, "brk_holdA", "brk_reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("brk_holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::atomic<ThreadId> victim{kInvalidThreadId};
  std::atomic<bool> broken{false};
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    victim.store(tid);
    ScopedFrame frame(FrameFromName("brk_reqB"));
    broken.store(rt.engine().Request(tid, 200) == RequestDecision::kBroken);
  });
  while (rt.engine().stats().yields.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.engine().CancelAcquisition(victim.load());
  other.join();
  EXPECT_TRUE(broken.load());
  EXPECT_GE(rt.engine().stats().broken_acquisitions.load(), 1u);
}

// --- The spin before the park ---------------------------------------------------
//
// Park spins for kSpinBudget on the wake and cancel flags before it sleeps.
// Each round parks a fresh yielder (it requests 200 @reqB while main holds
// 100 @holdA) and ends the yield with `end_yield(yielder)` 2 µs after the
// yield is counted: the waker busy-polls, so the end lands after Park began
// and inside its spin, unless the host preempts the waker or the waker's
// path outlasts the spin (a release under TSan does, in most rounds).
// Without the spin such a wake would always find the yielder asleep. Every
// round's decision must be `expected`; rounds repeat until one ended
// without a sleep (yield_sleeps unchanged). Returns whether one did.
bool EndYieldDuringSpin(Runtime& rt, const std::function<void(ThreadId)>& end_yield,
                        RequestDecision expected) {
  SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  for (int round = 0; round < 1000; ++round) {
    if (rt.engine().LockOwner(100) != main_tid) {
      ScopedFrame frame(FrameFromName("holdA"));
      EXPECT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
      rt.engine().Acquired(main_tid, 100);
    }
    const std::uint64_t yields_before = rt.engine().stats().yields.load();
    const std::uint64_t sleeps_before = rt.engine().stats().yield_sleeps.load();
    std::atomic<ThreadId> yielder{kInvalidThreadId};
    std::thread other([&] {
      const ThreadId tid = rt.RegisterCurrentThread();
      yielder.store(tid);
      ScopedFrame frame(FrameFromName("reqB"));
      const RequestDecision decision = rt.engine().Request(tid, 200);
      EXPECT_EQ(decision, expected);
      if (decision == RequestDecision::kGo) {
        rt.engine().Acquired(tid, 200);
        rt.engine().Release(tid, 200);
      }
    });
    while (rt.engine().stats().yields.load() == yields_before) {
    }
    BusySpinMicros(2);
    end_yield(yielder.load());
    other.join();
    if (rt.engine().stats().yield_sleeps.load() == sleeps_before) {
      return true;
    }
  }
  return false;
}

bool HostSpins() { return std::thread::hardware_concurrency() > 1; }

TEST(AvoidanceTest, WakeDuringTheSpinReturnsWoken) {
  Runtime rt(TestConfig());
  const ThreadId main_tid = rt.RegisterCurrentThread();
  // The cause's release wakes the yielder, which then goes.
  const bool in_spin = EndYieldDuringSpin(
      rt, [&](ThreadId) { rt.engine().Release(main_tid, 100); }, RequestDecision::kGo);
  EXPECT_TRUE(in_spin || !HostSpins()) << "no wake landed in the spin in 1000 rounds";
  EXPECT_EQ(rt.engine().stats().wakes.load(), rt.engine().stats().yields.load());
}

TEST(AvoidanceTest, BreakYieldDuringTheSpinReturnsWoken) {
  Runtime rt(TestConfig());
  const bool in_spin = EndYieldDuringSpin(
      rt, [&](ThreadId yielder) { rt.engine().BreakYield(yielder); }, RequestDecision::kGo);
  EXPECT_TRUE(in_spin || !HostSpins()) << "no BreakYield landed in the spin in 1000 rounds";
}

TEST(AvoidanceTest, CancelDuringTheSpinIsBroken) {
  Runtime rt(TestConfig());
  const std::uint64_t broken_before = rt.engine().stats().broken_acquisitions.load();
  const bool in_spin = EndYieldDuringSpin(
      rt, [&](ThreadId yielder) { rt.engine().CancelAcquisition(yielder); },
      RequestDecision::kBroken);
  EXPECT_TRUE(in_spin || !HostSpins()) << "no cancel landed in the spin in 1000 rounds";
  EXPECT_GT(rt.engine().stats().broken_acquisitions.load(), broken_before);
}

TEST(AvoidanceTest, DeadlineShorterThanTheSpinBudgetTimesOut) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdA", "reqB");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdA"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("reqB"));
    const MonoTime deadline = Now() + kSpinBudget / 5;
    EXPECT_EQ(rt.engine().Request(tid, 200, AcquireMode::kExclusive, deadline),
              RequestDecision::kTimedOut);
    EXPECT_GE(Now(), deadline);
  });
  other.join();
  EXPECT_EQ(rt.engine().stats().yields.load(), 1u);
  EXPECT_EQ(rt.engine().stats().yield_timeouts.load(), 0u) << "the deadline, not the bound";
}

TEST(AvoidanceTest, AllowedSetBookkeeping) {
  Runtime rt(TestConfig());
  const ThreadId tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("bookkeeping"));
  const StackId stack = rt.stacks().Intern({FrameFromName("bookkeeping")});
  EXPECT_EQ(rt.engine().AllowedCount(stack), 0u);
  ASSERT_EQ(rt.engine().Request(tid, 42), RequestDecision::kGo);
  EXPECT_EQ(rt.engine().AllowedCount(stack), 1u);  // allow edge
  rt.engine().Acquired(tid, 42);
  EXPECT_EQ(rt.engine().AllowedCount(stack), 1u);  // now a hold edge
  rt.engine().Release(tid, 42);
  EXPECT_EQ(rt.engine().AllowedCount(stack), 0u);
}

TEST(AvoidanceTest, SharedHolderUpgradingRunsTheFullProtocol) {
  // A shared holder re-requesting shared is reentrant; the same holder
  // requesting exclusive (an upgrade) is not — it must run avoidance.
  Runtime rt(TestConfig());
  const ThreadId tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("upgrade_site"));
  ASSERT_EQ(rt.engine().Request(tid, 7, AcquireMode::kShared), RequestDecision::kGo);
  rt.engine().Acquired(tid, 7, AcquireMode::kShared);
  EXPECT_EQ(rt.engine().Request(tid, 7, AcquireMode::kShared), RequestDecision::kReentrant);
  EXPECT_EQ(rt.engine().RequestNonblocking(tid, 7, AcquireMode::kExclusive),
            RequestDecision::kGo);  // upgrade: full protocol (empty history -> GO)
  rt.engine().CancelRequest(tid, 7, AcquireMode::kExclusive);
  rt.engine().Release(tid, 7);
  EXPECT_EQ(rt.engine().SharedHolderCount(7), 0u);
}

TEST(AvoidanceTest, CommittedUpgradePromotesTheOwnerSet) {
  // If the raw layer grants an upgrade (sole reader -> writer), the owner
  // set must flip to exclusive — not record a second "shared" hold.
  Runtime rt(TestConfig());
  const ThreadId tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("promote_site"));
  ASSERT_EQ(rt.engine().Request(tid, 9, AcquireMode::kShared), RequestDecision::kGo);
  rt.engine().Acquired(tid, 9, AcquireMode::kShared);
  EXPECT_EQ(rt.engine().SharedHolderCount(9), 1u);
  ASSERT_EQ(rt.engine().Request(tid, 9, AcquireMode::kExclusive), RequestDecision::kGo);
  rt.engine().Acquired(tid, 9, AcquireMode::kExclusive);
  EXPECT_EQ(rt.engine().LockOwner(9), tid);  // promoted
  EXPECT_EQ(rt.engine().SharedHolderCount(9), 0u);
  rt.engine().Release(tid, 9);
  EXPECT_EQ(rt.engine().LockOwner(9), tid);  // one hold remains
  rt.engine().Release(tid, 9);
  EXPECT_EQ(rt.engine().LockOwner(9), kInvalidThreadId);
}

TEST(AvoidanceTest, SharedCoverMayReuseALockAcrossHolders) {
  // A signature instantiation may visit one lock once per *shared* holder
  // (an upgrade-race cycle has two hold edges on the same rwlock). Seed the
  // two shared-hold stacks as a signature and re-create the dangerous
  // state: one thread holds L shared at rd1; a second thread requesting L
  // shared at rd2 completes the instance and must be refused.
  Runtime rt(TestConfig());
  SeedSignature(rt, "rd1", "rd2");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("rd1"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100, AcquireMode::kShared), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100, AcquireMode::kShared);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("rd2"));
    EXPECT_EQ(rt.engine().RequestNonblocking(tid, 100, AcquireMode::kShared),
              RequestDecision::kBusy);
  });
  other.join();
  EXPECT_GE(rt.engine().stats().yields.load(), 1u);

  // An *exclusive* re-use of the same lock never covers two positions: with
  // the lock held exclusively elsewhere, the same request is a plain GO.
  Runtime rt2(TestConfig());
  SeedSignature(rt2, "rd1", "rd2");
  const ThreadId main2 = rt2.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("rd1"));
    ASSERT_EQ(rt2.engine().Request(main2, 100), RequestDecision::kGo);
    rt2.engine().Acquired(main2, 100);
  }
  std::thread other2([&] {
    const ThreadId tid = rt2.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("rd2"));
    EXPECT_EQ(rt2.engine().RequestNonblocking(tid, 100, AcquireMode::kExclusive),
              RequestDecision::kGo);
    rt2.engine().CancelRequest(tid, 100, AcquireMode::kExclusive);
  });
  other2.join();
  EXPECT_EQ(rt2.engine().stats().yields.load(), 0u);
}

TEST(AvoidanceTest, CommittedUpgradeMakesItsHoldTupleExclusive) {
  // The hold tuple is the only cross-thread record of a hold, so a committed
  // upgrade must re-mode it: a cover may not reuse the lock as if it were
  // still held shared. Signature {rd1, rd2}: main upgrades L at rd1, then a
  // shared request of L at rd2 is no instance (it would wait on a writer).
  Runtime rt(TestConfig());
  SeedSignature(rt, "rd1", "rd2");
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("rd1"));
    ASSERT_EQ(rt.engine().Request(main_tid, 100, AcquireMode::kShared), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100, AcquireMode::kShared);
    ASSERT_EQ(rt.engine().Request(main_tid, 100, AcquireMode::kExclusive), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 100, AcquireMode::kExclusive);
  }
  EXPECT_EQ(rt.engine().HeldMode(main_tid, 100), AcquireMode::kExclusive);
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("rd2"));
    EXPECT_EQ(rt.engine().RequestNonblocking(tid, 100, AcquireMode::kShared),
              RequestDecision::kGo);
    rt.engine().CancelRequest(tid, 100, AcquireMode::kShared);
  });
  other.join();
  EXPECT_EQ(rt.engine().stats().yields.load(), 0u);
  rt.engine().Release(main_tid, 100);
  rt.engine().Release(main_tid, 100);
  EXPECT_FALSE(rt.engine().HeldMode(main_tid, 100).has_value());
}

TEST(AvoidanceTest, AliasedForeignHoldsNeedOneReleaseEach) {
  // fcntl range aliasing can fold two foreign holds onto one (thread, lock):
  // each is its own held tuple, so the lock stays owned until both retire.
  Runtime rt(TestConfig());
  const ThreadId foreign = kForeignThreadBase + 7;
  const StackId stack = rt.stacks().Intern({FrameFromName("foreign_alias")});
  rt.engine().MirrorForeignHold(foreign, 300, stack, AcquireMode::kExclusive);
  rt.engine().MirrorForeignHold(foreign, 300, stack, AcquireMode::kExclusive);
  EXPECT_EQ(rt.engine().LockOwner(300), foreign);
  EXPECT_EQ(rt.engine().Snapshot().tracked_locks, 1u);
  rt.engine().MirrorForeignRelease(foreign, 300, stack, AcquireMode::kExclusive);
  EXPECT_EQ(rt.engine().LockOwner(300), foreign) << "one aliased hold remains";
  rt.engine().MirrorForeignRelease(foreign, 300, stack, AcquireMode::kExclusive);
  EXPECT_EQ(rt.engine().LockOwner(300), kInvalidThreadId);
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 0u);
}

}  // namespace
}  // namespace dimmunix
