// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The incremental cover matcher (the tail fix): steady-state requests must
// decide from per-stripe snapshots (match_fast_path) without entering the
// stop-the-stripes epoch; the epoch survives only as the rare slow path
// (cache rebuilds after history churn, fallback validation). Decisions must
// be identical with the matcher on and off — the fast path is an
// optimization, never a semantic fork.

#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include "src/core/avoidance.h"
#include "src/core/runtime.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

Config TestConfig(bool incremental) {
  Config config;
  config.start_monitor = false;
  config.default_match_depth = 1;
  config.incremental_matcher = incremental;
  return config;
}

constexpr const char* kFrameA = "incr_match::side_a";
constexpr const char* kFrameB = "incr_match::side_b";
constexpr const char* kFrameC = "incr_match::elsewhere";
constexpr const char* kOuterX = "incr_match::outer_x";
constexpr const char* kOuterY = "incr_match::outer_y";

// A call path, innermost frame first (the order interned stacks use).
struct Path {
  const char* inner;
  const char* outer = nullptr;
};

StackId InternPath(Runtime& rt, const Path& path) {
  std::vector<Frame> frames{FrameFromName(path.inner)};
  if (path.outer != nullptr) {
    frames.push_back(FrameFromName(path.outer));
  }
  return rt.stacks().Intern(frames);
}

// Runs `body` with the calling thread's annotated stack equal to `path`.
template <typename Body>
auto OnPath(const Path& path, Body&& body) {
  std::optional<ScopedFrame> outer;
  if (path.outer != nullptr) {
    outer.emplace(FrameFromName(path.outer));
  }
  ScopedFrame inner(FrameFromName(path.inner));
  return body();
}

int SeedSignatureOf(Runtime& rt, const Path& first, const Path& second) {
  bool added = false;
  const int index = rt.history().Add(SignatureKind::kDeadlock,
                                     {InternPath(rt, first), InternPath(rt, second)},
                                     /*match_depth=*/1, &added);
  rt.engine().NotifyHistoryChanged();
  return index;
}

void SeedSignature(Runtime& rt) { SeedSignatureOf(rt, {kFrameA}, {kFrameB}); }

// Holder parks on a hold of `lock_a` through `holder_path`; the probe then
// asks for `lock_b` through `probe_path` and reports the engine's decision.
RequestDecision Probe(Runtime& rt, const Path& holder_path, LockId lock_a,
                      const Path& probe_path, LockId lock_b) {
  std::latch held(1);
  std::latch done(1);
  std::thread holder([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    OnPath(holder_path, [&] {
      EXPECT_EQ(rt.engine().Request(tid, lock_a), RequestDecision::kGo);
      rt.engine().Acquired(tid, lock_a);
    });
    held.count_down();
    done.wait();
    rt.engine().Release(tid, lock_a);
  });
  held.wait();
  const ThreadId tid = rt.RegisterCurrentThread();
  const RequestDecision decision =
      OnPath(probe_path, [&] { return rt.engine().RequestNonblocking(tid, lock_b); });
  if (decision == RequestDecision::kGo) {
    rt.engine().CancelRequest(tid, lock_b);
  }
  done.count_down();
  holder.join();
  return decision;
}

// Holder on the signature's A side, probe on its B side.
RequestDecision ProbeSecondEdge(Runtime& rt, LockId lock_a, LockId lock_b) {
  return Probe(rt, {kFrameA}, lock_a, {kFrameB}, lock_b);
}

// One nonblocking request through `path`, rolled back if granted, and the
// cover searches it ran (incremental or epoch).
struct Solo {
  RequestDecision decision;
  std::uint64_t searches;
};
Solo SoloRequest(Runtime& rt, const Path& path, LockId lock) {
  const ThreadId tid = rt.RegisterCurrentThread();
  const EngineStatsSnapshot before = rt.engine().stats().Snapshot();
  const RequestDecision decision =
      OnPath(path, [&] { return rt.engine().RequestNonblocking(tid, lock); });
  const EngineStatsSnapshot after = rt.engine().stats().Snapshot();
  if (decision == RequestDecision::kGo) {
    rt.engine().CancelRequest(tid, lock);
  }
  const std::uint64_t searches = (after.match_fast_path - before.match_fast_path) +
                                 (after.match_slow_path - before.match_slow_path);
  return Solo{decision, searches};
}

TEST(IncrementalMatchTest, SteadyStateStaysOffTheEpoch) {
  Runtime rt(TestConfig(/*incremental=*/true));
  SeedSignature(rt);

  // A standing A-side hold keeps the signature's A position live, so the
  // §5.6 trivial reject cannot short-circuit: every probe below runs a real
  // per-stripe scan. The probes ask for the SAME lock the holder owns, so no
  // cover can form (one lock cannot fill two exclusive positions) — the
  // scans are genuine no-match decisions, exactly the steady-state shape
  // that used to stop the stripes.
  std::latch held(1);
  std::latch done(1);
  std::thread holder([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName(kFrameA));
    EXPECT_EQ(rt.engine().Request(tid, 0x10), RequestDecision::kGo);
    rt.engine().Acquired(tid, 0x10);
    held.count_down();
    done.wait();
    rt.engine().Release(tid, 0x10);
  });
  held.wait();

  const ThreadId tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName(kFrameB));

  // One warm-up request absorbs the post-seed cache rebuild.
  EXPECT_EQ(rt.engine().RequestNonblocking(tid, 0x10), RequestDecision::kGo);
  rt.engine().CancelRequest(tid, 0x10);
  const EngineStatsSnapshot before = rt.engine().stats().Snapshot();

  constexpr std::uint64_t kOps = 200;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    EXPECT_EQ(rt.engine().RequestNonblocking(tid, 0x10), RequestDecision::kGo);
    rt.engine().CancelRequest(tid, 0x10);
  }
  const EngineStatsSnapshot after = rt.engine().stats().Snapshot();
  done.count_down();
  holder.join();

  // Every steady-state decision came off per-stripe snapshots; the
  // stop-the-stripes epoch was never entered. This is the tail fix.
  EXPECT_GE(after.match_fast_path - before.match_fast_path, kOps);
  EXPECT_EQ(after.epoch_entries, before.epoch_entries);
  EXPECT_EQ(after.match_slow_path, before.match_slow_path);
}

TEST(IncrementalMatchTest, DecisionsIdenticalWithMatcherOnAndOff) {
  Runtime fast_rt(TestConfig(/*incremental=*/true));
  Runtime slow_rt(TestConfig(/*incremental=*/false));
  SeedSignature(fast_rt);
  SeedSignature(slow_rt);

  // The same probe sequence, both engines: a covered instantiation must be
  // refused, and releasing the cover must make the identical pattern pass.
  for (Runtime* rt : {&fast_rt, &slow_rt}) {
    EXPECT_EQ(ProbeSecondEdge(*rt, 0x100, 0x101), RequestDecision::kBusy);
    EXPECT_EQ(ProbeSecondEdge(*rt, 0x110, 0x111), RequestDecision::kBusy);
    // No holder: the B-side edge alone matches nothing.
    const ThreadId tid = rt->RegisterCurrentThread();
    ScopedFrame frame(FrameFromName(kFrameB));
    EXPECT_EQ(rt->engine().RequestNonblocking(tid, 0x120), RequestDecision::kGo);
    rt->engine().CancelRequest(tid, 0x120);
  }

  // Same answers, different machinery: the fast engine decided without the
  // epoch, the legacy engine routed every plausible match through it.
  const EngineStatsSnapshot fast = fast_rt.engine().stats().Snapshot();
  const EngineStatsSnapshot slow = slow_rt.engine().stats().Snapshot();
  EXPECT_GT(fast.match_fast_path, 0u);
  EXPECT_GT(slow.match_slow_path, 0u);
  EXPECT_GT(slow.epoch_entries, 0u);
}

TEST(IncrementalMatchTest, HistoryChurnRebuildsAndRecovers) {
  Runtime rt(TestConfig(/*incremental=*/true));
  SeedSignature(rt);

  // Decisions stay oracle-correct across repeated cache invalidations, and
  // the fast path resumes after each rebuild instead of pinning requests on
  // the slow path.
  for (int round = 0; round < 5; ++round) {
    rt.engine().NotifyHistoryChanged();  // version bump: caches are stale
    EXPECT_EQ(ProbeSecondEdge(rt, 0x200 + 2 * round, 0x201 + 2 * round),
              RequestDecision::kBusy)
        << "round " << round;
  }
  const EngineStatsSnapshot stats = rt.engine().stats().Snapshot();
  EXPECT_GT(stats.match_fast_path, 0u);
  // Rebuilds are bounded by the churn we injected — the epoch is rare, not
  // per-request (13 requests ran above: 5 probes x 2 edges + seeding).
  EXPECT_LE(stats.epoch_entries, 16u);
}

// A same-suffix signature ({s, s}: transfer(a, b) vs transfer(b, a)) needs
// two threads at s. One thread there must not make it look fully live —
// that used to send every request on a full-history cover search.
TEST(IncrementalMatchTest, SameSuffixSignatureNeedsTwoThreads) {
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "matcher on" : "matcher off");
    Runtime rt(TestConfig(incremental));
    SeedSignatureOf(rt, {kFrameA}, {kFrameA});

    const Solo alone = SoloRequest(rt, {kFrameA}, 0x300);
    EXPECT_EQ(alone.decision, RequestDecision::kGo);
    EXPECT_EQ(alone.searches, 0u) << "one thread at s: the fast reject must hold";

    const std::uint64_t yields = rt.engine().stats().Snapshot().yields;
    EXPECT_EQ(Probe(rt, {kFrameA}, 0x301, {kFrameA}, 0x302), RequestDecision::kBusy)
        << "a second thread at s on another lock instantiates the signature";
    EXPECT_EQ(rt.engine().stats().Snapshot().yields, yields + 1);
  }
}

// Positions that match each other at one depth may not at a deeper one:
// need[] is per generation and must follow a depth change.
TEST(IncrementalMatchTest, DepthChangeRecomputesNeed) {
  const Path x{kFrameA, kOuterX};
  const Path y{kFrameA, kOuterY};
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "matcher on" : "matcher off");
    Runtime rt(TestConfig(incremental));
    const int sig = SeedSignatureOf(rt, x, y);

    // Depth 1: x and y share their inner frame, so each position needs two
    // threads, and two threads on the x path alone instantiate it.
    EXPECT_EQ(SoloRequest(rt, x, 0x500).searches, 0u);
    EXPECT_EQ(Probe(rt, x, 0x501, x, 0x502), RequestDecision::kBusy);

    // Depth 2 splits the suffix: the y position needs its own thread.
    ASSERT_TRUE(rt.SetSignatureMatchDepth(sig, 2));
    EXPECT_EQ(Probe(rt, x, 0x511, x, 0x512), RequestDecision::kGo);
    EXPECT_EQ(Probe(rt, x, 0x513, y, 0x514), RequestDecision::kBusy)
        << "need must drop to 1 per position at depth 2";

    ASSERT_TRUE(rt.SetSignatureMatchDepth(sig, 1));
    EXPECT_EQ(SoloRequest(rt, y, 0x520).searches, 0u);
    EXPECT_EQ(Probe(rt, y, 0x521, y, 0x522), RequestDecision::kBusy);
  }
}

// A signature made fully live by two other threads is no business of a
// requester whose stack it cannot hold: that request must not search.
TEST(IncrementalMatchTest, LiveSignatureElsewhereAddsNoCoverSearch) {
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "matcher on" : "matcher off");
    Runtime rt(TestConfig(incremental));
    SeedSignature(rt);

    // The holder owns 0x600 through A; the waiter asks for the same lock
    // through B. One exclusive lock cannot fill both positions, so the
    // waiter is granted, and its allow edge keeps the B position live.
    std::latch held(1);
    std::latch waiting(1);
    std::latch done(1);
    std::thread holder([&] {
      const ThreadId tid = rt.RegisterCurrentThread();
      OnPath({kFrameA}, [&] {
        EXPECT_EQ(rt.engine().Request(tid, 0x600), RequestDecision::kGo);
        rt.engine().Acquired(tid, 0x600);
      });
      held.count_down();
      done.wait();
      rt.engine().Release(tid, 0x600);
    });
    std::thread waiter([&] {
      held.wait();
      const ThreadId tid = rt.RegisterCurrentThread();
      OnPath({kFrameB}, [&] {
        EXPECT_EQ(rt.engine().RequestNonblocking(tid, 0x600), RequestDecision::kGo);
      });
      waiting.count_down();
      done.wait();
      rt.engine().CancelRequest(tid, 0x600);
    });
    waiting.wait();

    const Solo outside = SoloRequest(rt, {kFrameC}, 0x601);
    EXPECT_EQ(outside.decision, RequestDecision::kGo);
    if (incremental) {
      EXPECT_EQ(outside.searches, 0u) << "requester outside the signature searched it";
    }
    // A requester the signature can hold still finds the instance.
    EXPECT_EQ(SoloRequest(rt, {kFrameB}, 0x602).decision, RequestDecision::kBusy);

    done.count_down();
    holder.join();
    waiter.join();
  }
}

// An upgrading thread's held shared tuple can serve as the instance's
// requester edge, so its candidates are not scoped to its new stack: the
// decision must equal the matcher-off (epoch) one.
TEST(IncrementalMatchTest, UpgradeKeepsMatcherOffDecision) {
  const auto upgrade_decision = [](bool incremental) {
    Runtime rt(TestConfig(incremental));
    constexpr LockId kRw = 0x700;
    constexpr LockId kOther = 0x701;
    std::latch held(2);
    std::latch seeded(1);
    std::latch decided(1);
    std::latch done(1);
    RequestDecision decision = RequestDecision::kGo;
    std::thread upgrader([&] {
      const ThreadId tid = rt.RegisterCurrentThread();
      OnPath({kFrameA}, [&] {
        EXPECT_EQ(rt.engine().Request(tid, kRw, AcquireMode::kShared), RequestDecision::kGo);
        rt.engine().Acquired(tid, kRw, AcquireMode::kShared);
      });
      held.count_down();
      seeded.wait();
      decision = OnPath({kFrameC}, [&] {
        return rt.engine().RequestNonblocking(tid, kRw, AcquireMode::kExclusive);
      });
      if (decision == RequestDecision::kGo) {
        rt.engine().CancelRequest(tid, kRw, AcquireMode::kExclusive);
      }
      decided.count_down();
      done.wait();
      rt.engine().Release(tid, kRw);
    });
    std::thread other([&] {
      const ThreadId tid = rt.RegisterCurrentThread();
      OnPath({kFrameB}, [&] {
        EXPECT_EQ(rt.engine().Request(tid, kOther), RequestDecision::kGo);
        rt.engine().Acquired(tid, kOther);
      });
      held.count_down();
      done.wait();
      rt.engine().Release(tid, kOther);
    });
    held.wait();
    // Seeded after both holds stand, so neither hold was refused.
    SeedSignature(rt);
    seeded.count_down();
    decided.wait();
    done.count_down();
    upgrader.join();
    other.join();
    return decision;
  };
  const RequestDecision epoch = upgrade_decision(/*incremental=*/false);
  EXPECT_EQ(epoch, RequestDecision::kBusy);
  EXPECT_EQ(upgrade_decision(/*incremental=*/true), epoch);
}

}  // namespace
}  // namespace dimmunix
