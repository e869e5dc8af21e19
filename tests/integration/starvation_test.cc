// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Avoidance-induced starvation, end to end (§3, §5.2): a signature whose
// avoidance traps one thread behind another *blocked* thread produces a
// yield cycle; the monitor detects it, saves a starvation signature, and
// (weak immunity) breaks the yield. The broken avoidance then leads to the
// original deadlock — "in the worst case, each new starvation situation
// will lead (after breaking) to the deadlock that was being avoided" — which
// the configured kBreakVictim recovery unwinds so the test can join.
//
// The choreography (signature = {[f], [f]} at depth 1), ordered by
// handshakes rather than sleeps:
//   T1: LockVia(A)           -> holds A with stack [f]
//   T2: plain B.Lock()       -> (once T1 holds A) holds B with a native
//                               stack (no match)
//   T1: LockVia(B)           -> (once T2 holds B) GO (no second distinct-lock
//                               tuple matches), allow edge (T1, B, [f]);
//                               blocks on raw B
//   T2: LockVia(A)           -> (once [f] carries T1's hold and allow edges)
//                               tentative (T2, A, [f]) + allow (T1, B, [f])
//                               instantiate the signature -> T2 yields on T1
//   T1 is blocked, T2 yields on T1  => yield cycle => starvation.

#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "src/stack/annotation.h"
#include "src/sync/mutex.h"

namespace dimmunix {
namespace {

// All signature-relevant acquisitions funnel through one function so their
// stacks are identical.
LockResult LockVia(Mutex& m) {
  static const Frame f = FrameFromName("starvation::LockVia");
  ScopedFrame scope(f);
  return m.Lock();
}

Config StarvationConfig() {
  Config config;
  config.monitor_period = std::chrono::milliseconds(10);
  config.default_match_depth = 1;
  config.deadlock_action = DeadlockAction::kBreakVictim;  // unwind the endgame
  config.yield_timeout = std::chrono::seconds(5);  // let the monitor act first
  return config;
}

void SeedSignature(Runtime& rt) {
  const StackId f_stack = rt.stacks().Intern({FrameFromName("starvation::LockVia")});
  bool added = false;
  rt.history().Add(SignatureKind::kDeadlock, {f_stack, f_stack}, 1, &added);
  ASSERT_TRUE(added);
  rt.engine().NotifyHistoryChanged();
}

// Returns when both threads have unwound (via completion or kBroken).
void RunChoreography(Runtime& rt) {
  const StackId f_stack = rt.stacks().Intern({FrameFromName("starvation::LockVia")});
  Mutex a(rt);
  Mutex b(rt);
  std::latch a_held(1);
  std::latch b_held(1);
  std::thread t1([&] {
    ASSERT_EQ(LockVia(a), LockResult::kOk);  // hold A with [f]
    a_held.count_down();
    b_held.wait();
    const LockResult r = LockVia(b);  // allow (T1, B, [f]); blocks on raw B
    if (r == LockResult::kOk) {
      b.Unlock();
    }
    a.Unlock();
  });
  std::thread t2([&] {
    a_held.wait();
    ASSERT_EQ(b.Lock(), LockResult::kOk);  // native stack: no signature match
    b_held.count_down();
    // T1's hold of A and its allow edge on B both sit on [f]; T1 is then
    // blocked on raw B (or about to be).
    while (rt.engine().AllowedCount(f_stack) < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const LockResult r = LockVia(a);  // instantiates {[f],[f]} -> yield -> starvation
    if (r == LockResult::kOk) {
      a.Unlock();
    }
    b.Unlock();
  });
  t1.join();
  t2.join();
  // The monitor pass that broke the cycle counts the starvation after its
  // deadlock handler has already let both threads unwind; a pass of our own
  // waits for that one to finish (the monitor serializes passes).
  rt.monitor().RunOnce();
}

TEST(StarvationTest, InducedStarvationIsDetectedSavedAndBroken) {
  Runtime rt(StarvationConfig());
  SeedSignature(rt);
  RunChoreography(rt);

  const auto& mstats = rt.monitor().stats();
  EXPECT_GE(rt.engine().stats().yields.load(), 1u);
  EXPECT_GE(mstats.starvations_detected.load(), 1u);
  EXPECT_GE(mstats.starvations_broken.load(), 1u);
  // The starvation signature is archived like a deadlock (§5.2).
  bool has_starvation_sig = false;
  rt.history().ForEach([&](int, const Signature& sig) {
    has_starvation_sig = has_starvation_sig || sig.kind == SignatureKind::kStarvation;
  });
  EXPECT_TRUE(has_starvation_sig);
  // Breaking the starvation led to the avoided deadlock, which recovery
  // unwound (the paper's n + k occurrences argument, §5.4).
  EXPECT_GE(mstats.deadlocks_detected.load(), 1u);
}

TEST(StarvationTest, StrongImmunityRequestsRestartOnStarvation) {
  Config config = StarvationConfig();
  config.immunity = ImmunityMode::kStrong;
  Runtime rt(config);
  SeedSignature(rt);

  std::atomic<bool> restart{false};
  rt.monitor().SetRestartHook([&] {
    restart.store(true);
    // A real deployment would exec() itself; emulate by breaking every
    // thread's yield so the choreography unwinds (the deadlock endgame is
    // then handled by kBreakVictim).
    for (ThreadId t = 0; t < 8; ++t) {
      rt.engine().BreakYield(t);
    }
  });
  RunChoreography(rt);
  EXPECT_TRUE(restart.load());
  EXPECT_GE(rt.monitor().stats().restarts_requested.load(), 1u);
  EXPECT_GE(rt.monitor().stats().starvations_detected.load(), 1u);
}

}  // namespace
}  // namespace dimmunix
