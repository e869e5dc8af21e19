// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Incremental-matcher properties under stripe-count sweeps and control-plane
// churn, parameterized over DIMMUNIX_STRIPES ∈ {1, 4, auto}:
//
//  1. Sequential oracle: after concurrent acquire/release traffic racing
//     disable/re-enable and set-depth churn, the engine's decision for the
//     canonical two-sided probe equals the sequential prediction in every
//     reachable control state (enabled@1 -> refuse, enabled@2 with a
//     non-matching outer frame -> allow, disabled -> allow) — and therefore
//     is identical across stripe counts.
//
//  2. Add-before-scan litmus: two threads racing the *second* edges of an
//     instantiation are never both granted, at any stripe count. The
//     incremental matcher publishes the requester's allow tuple before
//     scanning, so concurrent requesters cannot miss each other; this is
//     the invariant that keeps the fast path semantics equal to the
//     stop-the-stripes search it replaced.
//
//  3. The same litmus for a same-suffix signature ({s, s}, the
//     transfer(a, b) vs transfer(b, a) shape): both racers enter one stack,
//     so each position needs two live tuples before the fast reject lets a
//     request through to the cover search.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <array>
#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/core/avoidance.h"
#include "src/core/runtime.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

struct StripeSweep {
  const char* stripes_env;  // DIMMUNIX_STRIPES value ("0" = auto)
};

class MatcherProperty : public ::testing::TestWithParam<StripeSweep> {
 protected:
  // The runtime reads the stripe count the same way production does: from
  // DIMMUNIX_STRIPES via Config::FromEnvironment.
  Config SweptConfig() {
    ::setenv("DIMMUNIX_STRIPES", GetParam().stripes_env, 1);
    Config base;
    base.start_monitor = false;
    base.default_match_depth = 1;
    Config config = Config::FromEnvironment(base);
    ::unsetenv("DIMMUNIX_STRIPES");
    return config;
  }
};

constexpr const char* kOuterSig = "matcher_prop::outer_sig";
constexpr const char* kOuterWork = "matcher_prop::outer_work";
constexpr const char* kInnerA = "matcher_prop::path_a";
constexpr const char* kInnerB = "matcher_prop::path_b";

// Seeds the two-stack signature with two-frame stacks. Interned stacks are
// innermost-first (CaptureStack reverses the outermost-first annotation
// stack), so depth 1 compares only the inner path frames while depth 2
// additionally requires the signature's own outer frame — which the
// workload does NOT run under. SetMatchDepth(index, 2) therefore turns
// refusals into grants.
int SeedDepthSensitiveSignature(Runtime& rt) {
  const StackId sa =
      rt.stacks().Intern({FrameFromName(kInnerA), FrameFromName(kOuterSig)});
  const StackId sb =
      rt.stacks().Intern({FrameFromName(kInnerB), FrameFromName(kOuterSig)});
  bool added = false;
  const int index = rt.history().Add(SignatureKind::kDeadlock, {sa, sb}, 1, &added);
  rt.engine().NotifyHistoryChanged();
  return index;
}

// The canonical probe, run sequentially: one thread parks on a hold of
// `lock_a` through path A; the probing thread then asks for `lock_b`
// through path B. Returns the engine's decision for that second edge.
RequestDecision ProbeSecondEdge(Runtime& rt, LockId lock_a, LockId lock_b) {
  std::latch held(1);
  std::latch done(1);
  std::thread holder([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame outer(FrameFromName(kOuterWork));
    ScopedFrame inner(FrameFromName(kInnerA));
    EXPECT_EQ(rt.engine().Request(tid, lock_a), RequestDecision::kGo);
    rt.engine().Acquired(tid, lock_a);
    held.count_down();
    done.wait();
    rt.engine().Release(tid, lock_a);
  });
  held.wait();
  RequestDecision decision;
  {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame outer(FrameFromName(kOuterWork));
    ScopedFrame inner(FrameFromName(kInnerB));
    decision = rt.engine().RequestNonblocking(tid, lock_b);
    if (decision == RequestDecision::kGo) {
      rt.engine().CancelRequest(tid, lock_b);
    }
  }
  done.count_down();
  holder.join();
  return decision;
}

TEST_P(MatcherProperty, ChurnedDecisionsMatchSequentialOracle) {
  Runtime rt(SweptConfig());
  const int sig = SeedDepthSensitiveSignature(rt);

  // Concurrent phase: two-sided AB-BA traffic races control-plane churn.
  // Decisions taken mid-churn may land on either side of a toggle; the
  // property is that the engine never wedges, never corrupts its Allowed
  // sets (conservation below), and settles to oracle-exact decisions.
  constexpr int kWorkers = 4;
  constexpr int kIterations = 250;
  std::atomic<bool> churn_on{true};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      const ThreadId tid = rt.RegisterCurrentThread();
      const bool side_a = (w % 2) == 0;
      const LockId first = side_a ? 0x1001 : 0x1002;
      const LockId second = side_a ? 0x1002 : 0x1001;
      ScopedFrame outer(FrameFromName(kOuterWork));
      ScopedFrame inner(FrameFromName(side_a ? kInnerA : kInnerB));
      for (int i = 0; i < kIterations; ++i) {
        if (rt.engine().RequestNonblocking(tid, first) != RequestDecision::kGo) {
          continue;  // refused the first edge under a foreign cover; retry
        }
        rt.engine().Acquired(tid, first);
        const RequestDecision d = rt.engine().RequestNonblocking(tid, second);
        if (d == RequestDecision::kGo) {
          rt.engine().Acquired(tid, second);
          rt.engine().Release(tid, second);
        }
        rt.engine().Release(tid, first);
      }
    });
  }
  std::thread churn([&] {
    int round = 0;
    while (churn_on.load(std::memory_order_relaxed)) {
      rt.SetSignatureDisabled(sig, (round & 1) != 0);
      rt.SetSignatureMatchDepth(sig, (round & 2) != 0 ? 2 : 1);
      if (rt.DisableLastAvoidedSignature() >= 0) {
        rt.SetSignatureDisabled(sig, false);  // §5.7 disable-last, undone
      }
      ++round;
    }
    // Leave the signature in a known state for the oracle phase.
    rt.SetSignatureDisabled(sig, false);
    rt.SetSignatureMatchDepth(sig, 1);
  });
  for (auto& worker : workers) {
    worker.join();
  }
  churn_on.store(false, std::memory_order_relaxed);
  churn.join();

  // Conservation: the churned traffic drained completely.
  const EngineStatsSnapshot stats = rt.engine().stats().Snapshot();
  EXPECT_EQ(stats.acquisitions, stats.releases);

  // Sequential oracle, all three control states. Fresh locks per probe so
  // no state bleeds between checks; identical expectations across every
  // stripe count in the sweep.
  EXPECT_EQ(ProbeSecondEdge(rt, 0x2001, 0x2002), RequestDecision::kBusy)
      << "enabled at depth 1: the instantiation must be refused";

  rt.SetSignatureDisabled(sig, true);
  EXPECT_EQ(ProbeSecondEdge(rt, 0x2101, 0x2102), RequestDecision::kGo)
      << "disabled: the same pattern must be allowed";
  rt.SetSignatureDisabled(sig, false);

  rt.SetSignatureMatchDepth(sig, 2);
  EXPECT_EQ(ProbeSecondEdge(rt, 0x2201, 0x2202), RequestDecision::kGo)
      << "depth 2: the workload's outer frame differs from the signature's";
  rt.SetSignatureMatchDepth(sig, 1);

  EXPECT_EQ(ProbeSecondEdge(rt, 0x2301, 0x2302), RequestDecision::kBusy)
      << "back to depth 1: refusal must return";

  // The refusing probes above ran real per-stripe scans (the holder keeps
  // one signature position live), so the incremental fast path must have
  // carried them. (The churned phase itself may see only §5.6 trivial
  // rejects on a small host — those deliberately skip the counter.)
  EXPECT_GT(rt.engine().stats().Snapshot().match_fast_path, 0u)
      << "incremental matcher must carry the matching probes";
}

// Each round, two threads take one lock apiece through `hold_inner[side]`,
// then race nonblocking requests for each other's lock through
// `race_inner[side]`. The racing pair instantiates the seeded signature, so
// at most one of the two may be granted.
void ExpectRacingSecondEdgesNeverBothPass(Runtime& rt, LockId base,
                                          const std::array<const char*, 2>& hold_inner,
                                          const std::array<const char*, 2>& race_inner) {
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    const std::array<LockId, 2> locks = {base + 2 * round, base + 2 * round + 1};
    std::latch both_held(2);
    std::latch both_decided(2);
    std::atomic<int> grants{0};
    auto side = [&](int s) {
      const ThreadId tid = rt.RegisterCurrentThread();
      const LockId first = locks[s];
      const LockId second = locks[1 - s];
      ScopedFrame outer(FrameFromName(kOuterWork));
      {
        ScopedFrame inner(FrameFromName(hold_inner[s]));
        ASSERT_EQ(rt.engine().Request(tid, first), RequestDecision::kGo);
        rt.engine().Acquired(tid, first);
      }
      both_held.arrive_and_wait();
      ScopedFrame inner(FrameFromName(race_inner[s]));
      const RequestDecision d = rt.engine().RequestNonblocking(tid, second);
      if (d == RequestDecision::kGo) {
        grants.fetch_add(1, std::memory_order_relaxed);
      }
      // A granted thread would now block on the raw mutex (the peer holds
      // it), its wait edge standing — hold that edge until both sides have
      // decided, or the litmus degenerates into two sequential trylocks.
      both_decided.arrive_and_wait();
      if (d == RequestDecision::kGo) {
        rt.engine().CancelRequest(tid, second);
      }
      rt.engine().Release(tid, first);
    };
    std::thread t1([&] { side(0); });
    std::thread t2([&] { side(1); });
    t1.join();
    t2.join();
    EXPECT_LE(grants.load(), 1)
        << "round " << round
        << ": both racing second edges granted — the add-before-scan litmus broke";
  }
}

TEST_P(MatcherProperty, RacingSecondEdgesNeverBothPass) {
  Runtime rt(SweptConfig());
  SeedDepthSensitiveSignature(rt);
  ExpectRacingSecondEdgesNeverBothPass(rt, 0x3000, {kInnerA, kInnerB}, {kInnerA, kInnerB});
}

TEST_P(MatcherProperty, SameSuffixRacingSecondEdgesNeverBothPass) {
  Runtime rt(SweptConfig());
  const StackId s = rt.stacks().Intern({FrameFromName(kInnerA), FrameFromName(kOuterSig)});
  bool added = false;
  rt.history().Add(SignatureKind::kDeadlock, {s, s}, 1, &added);
  rt.engine().NotifyHistoryChanged();
  // The holds are taken outside the signature's stack, so neither is
  // refused; then both threads race into the one stack on swapped locks.
  ExpectRacingSecondEdgesNeverBothPass(rt, 0x4000, {kInnerB, kInnerB}, {kInnerA, kInnerA});
}

INSTANTIATE_TEST_SUITE_P(Stripes, MatcherProperty,
                         ::testing::Values(StripeSweep{"1"}, StripeSweep{"4"},
                                           StripeSweep{"0"}),
                         [](const ::testing::TestParamInfo<StripeSweep>& info) {
                           return std::string("stripes_") +
                                  (std::string(info.param.stripes_env) == "0"
                                       ? "auto"
                                       : info.param.stripes_env);
                         });

}  // namespace
}  // namespace dimmunix
