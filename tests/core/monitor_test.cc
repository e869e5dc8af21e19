// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Monitor semantics (§5.2): event draining, deadlock detection from the
// engine's event stream, signature archiving + persistence, starvation
// handling under weak/strong immunity, and calibration bookkeeping.

#include "src/core/monitor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

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

// Emulates a thread that acquired `held` and is now blocked waiting for
// `wanted` (an allow edge without a matching acquired) — detection works on
// the event stream alone, no real blocking needed.
void EmulateBlockedThread(Runtime& rt, ThreadId tid, LockId held, const char* held_frame,
                          LockId wanted, const char* want_frame) {
  {
    ScopedFrame frame(FrameFromName(held_frame));
    ASSERT_EQ(rt.engine().Request(tid, held), RequestDecision::kGo);
    rt.engine().Acquired(tid, held);
  }
  ScopedFrame frame(FrameFromName(want_frame));
  ASSERT_EQ(rt.engine().Request(tid, wanted), RequestDecision::kGo);
  // No Acquired: the thread is "blocked" on `wanted`.
}

TEST(MonitorTest, DetectsAbBaDeadlockAndArchivesSignature) {
  Runtime rt(TestConfig());
  ThreadId t1 = kInvalidThreadId;
  ThreadId t2 = kInvalidThreadId;
  std::thread a([&] {
    t1 = rt.RegisterCurrentThread();
    EmulateBlockedThread(rt, t1, 100, "acqA", 200, "wantB");
  });
  a.join();
  std::thread b([&] {
    t2 = rt.RegisterCurrentThread();
    EmulateBlockedThread(rt, t2, 200, "acqB", 100, "wantA");
  });
  b.join();

  int hook_calls = 0;
  rt.monitor().SetDeadlockHook([&](const DeadlockCycle& cycle, int index) {
    ++hook_calls;
    EXPECT_EQ(cycle.threads.size(), 2u);
    EXPECT_GE(index, 0);
  });
  rt.monitor().RunOnce();
  EXPECT_EQ(rt.monitor().stats().deadlocks_detected.load(), 1u);
  EXPECT_EQ(rt.monitor().stats().signatures_saved.load(), 1u);
  EXPECT_EQ(hook_calls, 1);
  ASSERT_EQ(rt.history().size(), 1u);
  // Signature = acquisition stacks of the held locks (§5.3).
  const Signature sig = rt.history().Get(0);
  std::vector<std::string> names;
  for (StackId id : sig.stacks) {
    names.push_back(rt.stacks().Describe(id));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0], "acqA");
  EXPECT_EQ(names[1], "acqB");
  // Same cycle is not re-reported on the next period.
  rt.monitor().RunOnce();
  EXPECT_EQ(rt.monitor().stats().deadlocks_detected.load(), 1u);
}

TEST(MonitorTest, PersistsSignatureToHistoryFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dimmunix_monitor_test.hist").string();
  std::remove(path.c_str());
  Config config = TestConfig();
  config.history_path = path;
  {
    Runtime rt(config);
    std::thread a([&] {
      EmulateBlockedThread(rt, rt.RegisterCurrentThread(), 100, "pA", 200, "pWantB");
    });
    a.join();
    std::thread b([&] {
      EmulateBlockedThread(rt, rt.RegisterCurrentThread(), 200, "pB", 100, "pWantA");
    });
    b.join();
    rt.monitor().RunOnce();
  }
  // A fresh runtime loads immunity from disk (§5.4).
  Runtime rt2(config);
  EXPECT_EQ(rt2.history().size(), 1u);
  std::remove(path.c_str());
}

TEST(MonitorTest, NoDeadlockNoSignature) {
  // "Dimmunix never adds a false deadlock to the history" (§5.7).
  Runtime rt(TestConfig());
  std::thread a([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("cleanA"));
    ASSERT_EQ(rt.engine().Request(tid, 100), RequestDecision::kGo);
    rt.engine().Acquired(tid, 100);
    rt.engine().Release(tid, 100);
  });
  a.join();
  rt.monitor().RunOnce();
  EXPECT_EQ(rt.history().size(), 0u);
  EXPECT_EQ(rt.monitor().stats().deadlocks_detected.load(), 0u);
}

TEST(MonitorTest, StarvationWeakImmunityBreaksVictim) {
  Runtime rt(TestConfig());
  // Synthesize a mutual-yield entanglement directly in the event stream.
  const StackId sa = rt.stacks().Intern({FrameFromName("starveA")});
  const StackId sb = rt.stacks().Intern({FrameFromName("starveB")});
  auto push = [&](Event event) { rt.events().Push(event); };
  Event hold1;
  hold1.type = EventType::kAcquired;
  hold1.thread = 0;
  hold1.lock = 100;
  hold1.stack = sa;
  push(hold1);
  Event hold2 = hold1;
  hold2.thread = 1;
  hold2.lock = 200;
  hold2.stack = sb;
  push(hold2);
  Event y1;
  y1.type = EventType::kYield;
  y1.thread = 0;
  y1.lock = 200;
  y1.stack = sa;
  y1.causes = {YieldCause{1, 200, sb}};
  push(y1);
  Event y2;
  y2.type = EventType::kYield;
  y2.thread = 1;
  y2.lock = 100;
  y2.stack = sb;
  y2.causes = {YieldCause{0, 100, sa}};
  push(y2);

  int starvation_hooks = 0;
  rt.monitor().SetStarvationHook(
      [&](const StarvationCycle&, int) { ++starvation_hooks; });
  rt.monitor().RunOnce();
  EXPECT_EQ(rt.monitor().stats().starvations_detected.load(), 1u);
  EXPECT_EQ(rt.monitor().stats().starvations_broken.load(), 1u);
  EXPECT_EQ(starvation_hooks, 1);
  // Starvation signatures are archived like deadlocks (§5.2).
  ASSERT_EQ(rt.history().size(), 1u);
  EXPECT_EQ(rt.history().Get(0).kind, SignatureKind::kStarvation);
}

// The event shape the engine emits for a thread: kAcquired for a hold,
// kAllow for a GO it now blocks on, kRequest then kYield for a yield.
Event MakeTestEvent(EventType type, ThreadId thread, LockId lock, StackId stack,
                    std::vector<YieldCause> causes = {}) {
  Event event;
  event.type = type;
  event.thread = thread;
  event.lock = lock;
  event.stack = stack;
  event.causes = std::move(causes);
  return event;
}

TEST(MonitorTest, YieldCycleIsStarvationNotDeadlock) {
  Runtime rt(TestConfig());
  const StackId sa = rt.stacks().Intern({FrameFromName("yieldCycleA")});
  const StackId sb = rt.stacks().Intern({FrameFromName("yieldCycleB")});
  rt.events().Push(MakeTestEvent(EventType::kAcquired, 0, 100, sa));
  rt.events().Push(MakeTestEvent(EventType::kAcquired, 1, 200, sb));
  rt.events().Push(MakeTestEvent(EventType::kRequest, 0, 200, sa));
  rt.events().Push(MakeTestEvent(EventType::kYield, 0, 200, sa, {YieldCause{1, 200, sb}}));
  rt.events().Push(MakeTestEvent(EventType::kRequest, 1, 100, sb));
  rt.events().Push(MakeTestEvent(EventType::kYield, 1, 100, sb, {YieldCause{0, 100, sa}}));

  rt.monitor().RunOnce();
  EXPECT_EQ(rt.monitor().stats().deadlocks_detected.load(), 0u);
  EXPECT_EQ(rt.monitor().stats().starvations_detected.load(), 1u);
  ASSERT_EQ(rt.history().size(), 1u);
  EXPECT_EQ(rt.history().Get(0).kind, SignatureKind::kStarvation);
}

TEST(MonitorTest, YielderBehindBlockedThreadIsStarvationUntilItsYieldIsBroken) {
  Runtime rt(TestConfig());
  const StackId sa = rt.stacks().Intern({FrameFromName("mixedA")});
  const StackId sb = rt.stacks().Intern({FrameFromName("mixedB")});
  rt.events().Push(MakeTestEvent(EventType::kAcquired, 0, 100, sa));
  rt.events().Push(MakeTestEvent(EventType::kAcquired, 1, 200, sb));
  rt.events().Push(MakeTestEvent(EventType::kAllow, 0, 200, sa));  // T0 blocks on B
  rt.events().Push(MakeTestEvent(EventType::kRequest, 1, 100, sb));
  rt.events().Push(MakeTestEvent(EventType::kYield, 1, 100, sb, {YieldCause{0, 100, sa}}));

  rt.monitor().RunOnce();
  EXPECT_EQ(rt.monitor().stats().deadlocks_detected.load(), 0u);
  EXPECT_EQ(rt.monitor().stats().starvations_detected.load(), 1u);

  // The broken yield is retried as a GO: the avoided deadlock, now real,
  // is detected on the next pass and its signature holds the hold stacks.
  rt.events().Push(MakeTestEvent(EventType::kWake, 1, 100, sb));
  rt.events().Push(MakeTestEvent(EventType::kAllow, 1, 100, sb));
  rt.monitor().RunOnce();
  EXPECT_EQ(rt.monitor().stats().deadlocks_detected.load(), 1u);
  EXPECT_EQ(rt.monitor().stats().starvations_detected.load(), 1u);
  ASSERT_EQ(rt.history().size(), 2u);
  EXPECT_EQ(rt.history().Get(1).kind, SignatureKind::kDeadlock);
}

TEST(MonitorTest, StarvationStrongImmunityRequestsRestart) {
  Config config = TestConfig();
  config.immunity = ImmunityMode::kStrong;
  Runtime rt(config);
  const StackId sa = rt.stacks().Intern({FrameFromName("strongA")});
  const StackId sb = rt.stacks().Intern({FrameFromName("strongB")});
  Event y1;
  y1.type = EventType::kYield;
  y1.thread = 0;
  y1.lock = 200;
  y1.stack = sa;
  y1.causes = {YieldCause{1, 200, sb}};
  rt.events().Push(y1);
  Event y2;
  y2.type = EventType::kYield;
  y2.thread = 1;
  y2.lock = 100;
  y2.stack = sb;
  y2.causes = {YieldCause{0, 100, sa}};
  rt.events().Push(y2);

  bool restart_requested = false;
  rt.monitor().SetRestartHook([&] { restart_requested = true; });
  rt.monitor().RunOnce();
  EXPECT_EQ(rt.monitor().stats().restarts_requested.load(), 1u);
  EXPECT_TRUE(restart_requested);
}

TEST(MonitorTest, BackgroundThreadDetectsWithoutManualDrive) {
  Config config = TestConfig();
  config.start_monitor = true;
  config.monitor_period = std::chrono::milliseconds(5);  // τ
  Runtime rt(config);
  std::thread a([&] {
    EmulateBlockedThread(rt, rt.RegisterCurrentThread(), 100, "bgA", 200, "bgWantB");
  });
  a.join();
  std::thread b([&] {
    EmulateBlockedThread(rt, rt.RegisterCurrentThread(), 200, "bgB", 100, "bgWantA");
  });
  b.join();
  // The detection delay is bounded by the wakeup frequency (§3).
  const MonoTime deadline = Now() + std::chrono::seconds(2);
  while (rt.monitor().stats().deadlocks_detected.load() == 0 && Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rt.monitor().stats().deadlocks_detected.load(), 1u);
}

TEST(MonitorTest, CalibrationLadderAdvancesViaAvoidedEvents) {
  Config config = TestConfig();
  config.calibration_enabled = true;
  config.calibration_na = 2;
  config.max_match_depth = 3;
  config.fp_probe_window = std::chrono::milliseconds(0);  // immediate verdicts
  Runtime rt(config);
  // Archive a signature through the monitor so calibration state is set up.
  std::thread a([&] {
    EmulateBlockedThread(rt, rt.RegisterCurrentThread(), 100, "calA", 200, "calWantB");
  });
  a.join();
  std::thread b([&] {
    EmulateBlockedThread(rt, rt.RegisterCurrentThread(), 200, "calB", 100, "calWantA");
  });
  b.join();
  rt.monitor().RunOnce();
  ASSERT_EQ(rt.history().size(), 1u);
  EXPECT_EQ(rt.history().Get(0).match_depth, 1);  // ladder starts at depth 1

  // Feed synthetic avoided events: NA=2 per rung, deepest=1 (no credit).
  for (int i = 0; i < 2; ++i) {
    Event avoided;
    avoided.type = EventType::kAvoided;
    avoided.signature_index = 0;
    avoided.match_depth = 1;
    avoided.deepest_match_depth = 1;
    avoided.causes = {YieldCause{0, 100, 0}, YieldCause{1, 200, 0}};
    rt.events().Push(avoided);
  }
  rt.monitor().RunOnce();
  EXPECT_EQ(rt.history().Get(0).match_depth, 2);  // rung advanced
  EXPECT_EQ(rt.monitor().stats().fp_probes_opened.load(), 2u);
}

}  // namespace
}  // namespace dimmunix
