// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Incremental-matcher properties under stripe-count sweeps and control-plane
// churn, parameterized over Config::engine_stripes ∈ {1, 4, auto}:
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
//
//  4. Blocking mutual match: two threads at the one stack of a same-suffix
//     signature repeatedly take fresh locks through the blocking request.
//     Racing requesters that match each other's allow edges converge by
//     the ThreadId tie-break: never both granted, no yield rides out its
//     timeout (no lost wake), and no decision enters the epoch.
//
//  5. Sequential oracle over request sequences: each request runs on its
//     own thread and lock, granted ones stay held, and every decision must
//     equal an independent cover search over the frames. Two histories
//     stress the per-class live counters: signatures at depths 1 and 2
//     whose stacks share the depth-1 suffix (one stack in two classes), and
//     a three-position signature with two same-suffix positions.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <random>
#include <semaphore>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/avoidance.h"
#include "src/core/runtime.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

struct StripeSweep {
  int stripes;  // Config::engine_stripes (0 = auto)
};

class MatcherProperty : public ::testing::TestWithParam<StripeSweep> {
 protected:
  Config SweptConfig() {
    Config config;
    config.start_monitor = false;
    config.default_match_depth = 1;
    config.engine_stripes = GetParam().stripes;
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

TEST_P(MatcherProperty, BlockingMutualMatchConvergesWithoutEpoch) {
  Runtime rt(SweptConfig());
  const StackId s = rt.stacks().Intern({FrameFromName(kInnerA), FrameFromName(kOuterSig)});
  bool added = false;
  rt.history().Add(SignatureKind::kDeadlock, {s, s}, 1, &added);
  rt.engine().NotifyHistoryChanged();
  const EngineStatsSnapshot before = rt.engine().stats().Snapshot();

  // Both threads of a round start every request on a spinning barrier (a
  // sleeping or yielding one's wake-up skew outlasts a request), so each
  // pair of requests races: both tentative tuples can stand before either
  // scan, and then both requesters match each other.
  constexpr int kRounds = 40;
  constexpr int kOpsPerRound = 25;
  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> arrived{0};
    auto side = [&](int k) {
      const ThreadId tid = rt.RegisterCurrentThread();
      ScopedFrame outer(FrameFromName(kOuterWork));
      ScopedFrame inner(FrameFromName(kInnerA));
      for (int op = 0; op < kOpsPerRound; ++op) {
        arrived.fetch_add(1);
        const auto spin_until = std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
        while (arrived.load() < 2 * (op + 1)) {
          if (std::chrono::steady_clock::now() > spin_until) {
            std::this_thread::yield();  // a starved host still makes progress
          }
        }
        const LockId lock = 0x6000 + 2 * (round * kOpsPerRound + op) + k;
        ASSERT_EQ(rt.engine().Request(tid, lock), RequestDecision::kGo);
        rt.engine().Acquired(tid, lock);
        if (inside.fetch_add(1) != 0) {
          overlaps.fetch_add(1);
        }
        std::this_thread::yield();  // hold briefly
        inside.fetch_sub(1);
        rt.engine().Release(tid, lock);
      }
    };
    std::thread t1([&] { side(0); });
    std::thread t2([&] { side(1); });
    t1.join();
    t2.join();
  }
  const EngineStatsSnapshot after = rt.engine().stats().Snapshot();

  // Two threads at s on distinct locks instantiate {s, s}: one always
  // yields while the other holds.
  EXPECT_EQ(overlaps.load(), 0) << "both threads at s were granted at once";
  EXPECT_EQ(after.yield_timeouts, before.yield_timeouts)
      << "a yield rode out its timeout: a wake was lost";
  EXPECT_EQ(after.epoch_entries, before.epoch_entries) << "a decision entered the epoch";
  EXPECT_EQ(after.acquisitions - before.acquisitions,
            static_cast<std::uint64_t>(2 * kRounds * kOpsPerRound));
}

// A two-frame call path, innermost frame first (the order interned stacks
// use).
struct Path {
  const char* inner;
  const char* outer;
};

struct OracleSignature {
  std::vector<Path> stacks;
  int depth;  // 1 or 2
};

// The oracle's own suffix match, on frame names rather than interned ids.
bool MatchesAt(const Path& a, const Path& b, int depth) {
  return std::string_view(a.inner) == b.inner &&
         (depth < 2 || std::string_view(a.outer) == b.outer);
}

// Cover search: every position gets its own tuple, and the request (the
// last of `tuples`) is among them. Each tuple is a distinct thread on a
// distinct lock, so nothing else constrains the cover.
bool Covers(const OracleSignature& sig, const std::vector<Path>& tuples, std::size_t pos,
            std::vector<bool>& used) {
  if (pos == sig.stacks.size()) {
    return used.back();
  }
  for (std::size_t t = 0; t < tuples.size(); ++t) {
    if (!used[t] && MatchesAt(tuples[t], sig.stacks[pos], sig.depth)) {
      used[t] = true;
      if (Covers(sig, tuples, pos + 1, used)) {
        return true;
      }
      used[t] = false;
    }
  }
  return false;
}

// The sequential prediction for `request` while `held` stand.
RequestDecision OracleDecision(const std::vector<OracleSignature>& history,
                               std::vector<Path> held, const Path& request) {
  held.push_back(request);
  for (const OracleSignature& sig : history) {
    std::vector<bool> used(held.size(), false);
    if (Covers(sig, held, 0, used)) {
      return RequestDecision::kBusy;
    }
  }
  return RequestDecision::kGo;
}

void SeedHistory(Runtime& rt, const std::vector<OracleSignature>& history) {
  for (const OracleSignature& sig : history) {
    std::vector<StackId> stacks;
    for (const Path& path : sig.stacks) {
      stacks.push_back(rt.stacks().Intern({FrameFromName(path.inner), FrameFromName(path.outer)}));
    }
    bool added = false;
    rt.history().Add(SignatureKind::kDeadlock, stacks, sig.depth, &added);
    ASSERT_TRUE(added);
  }
  rt.engine().NotifyHistoryChanged();
}

// Issues `requests` in order, each by its own thread on its own lock; a
// granted request is acquired and held until every request has decided.
// Each decision is checked against the oracle for the holds standing then.
void ExpectSequenceMatchesOracle(Runtime& rt, const std::vector<OracleSignature>& history,
                                 const std::vector<Path>& requests, LockId base) {
  std::vector<Path> held;
  std::vector<RequestDecision> got(requests.size(), RequestDecision::kGo);
  std::binary_semaphore decided(0);
  std::latch release(1);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestDecision expected = OracleDecision(history, held, requests[i]);
    threads.emplace_back([&, i] {
      const ThreadId tid = rt.RegisterCurrentThread();
      const LockId lock = base + i;
      {
        ScopedFrame outer(FrameFromName(requests[i].outer));
        ScopedFrame inner(FrameFromName(requests[i].inner));
        got[i] = rt.engine().RequestNonblocking(tid, lock);
      }
      const bool granted = got[i] == RequestDecision::kGo;
      if (granted) {
        rt.engine().Acquired(tid, lock);
      }
      decided.release();
      release.wait();
      if (granted) {
        rt.engine().Release(tid, lock);
      }
    });
    decided.acquire();
    std::string trace;
    for (std::size_t j = 0; j <= i; ++j) {
      trace += std::string(" ") + requests[j].inner + "/" + requests[j].outer;
    }
    EXPECT_EQ(got[i], expected) << "request " << i << " of" << trace;
    if (got[i] == RequestDecision::kGo) {
      held.push_back(requests[i]);
    }
  }
  release.count_down();
  for (auto& thread : threads) {
    thread.join();
  }
}

constexpr const char* kInnerC = "matcher_prop::path_c";

// Every two-request sequence, then random three-request ones, over paths
// built from three inner and two outer frames.
void ExpectAllSequencesMatchOracle(Runtime& rt, const std::vector<OracleSignature>& history,
                                   LockId base) {
  std::vector<Path> paths;
  for (const char* inner : {kInnerA, kInnerB, kInnerC}) {
    for (const char* outer : {kOuterSig, kOuterWork}) {
      paths.push_back(Path{inner, outer});
    }
  }
  LockId lock = base;
  for (const Path& first : paths) {
    for (const Path& second : paths) {
      ExpectSequenceMatchesOracle(rt, history, {first, second}, lock);
      lock += 4;
    }
  }
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, paths.size() - 1);
  const auto pick_path = [&] { return paths[pick(rng)]; };
  for (int round = 0; round < 60; ++round) {
    ExpectSequenceMatchesOracle(rt, history, {pick_path(), pick_path(), pick_path()}, lock);
    lock += 4;
  }
}

// {A/sig, B/sig} at depth 1 and {A/work, C/work} at depth 2: the stacks
// share their depth-1 suffix A, so an A/work stack belongs to a class at
// each depth at once, and only the depth-2 signature tells A/sig from
// A/work.
TEST_P(MatcherProperty, SuffixSharedAcrossDepthsMatchesSequentialOracle) {
  Runtime rt(SweptConfig());
  const std::vector<OracleSignature> history = {
      {{{kInnerA, kOuterSig}, {kInnerB, kOuterSig}}, 1},
      {{{kInnerA, kOuterWork}, {kInnerC, kOuterWork}}, 2},
  };
  SeedHistory(rt, history);
  ExpectAllSequencesMatchOracle(rt, history, 0x5000);
}

// {A, A, B} at depth 1: the A class needs two threads before the signature
// can be instantiated, and B one.
TEST_P(MatcherProperty, ThreePositionSameSuffixMatchesSequentialOracle) {
  Runtime rt(SweptConfig());
  const std::vector<OracleSignature> history = {
      {{{kInnerA, kOuterSig}, {kInnerA, kOuterSig}, {kInnerB, kOuterSig}}, 1},
  };
  SeedHistory(rt, history);
  ExpectAllSequencesMatchOracle(rt, history, 0x6000);
}

INSTANTIATE_TEST_SUITE_P(Stripes, MatcherProperty,
                         ::testing::Values(StripeSweep{1}, StripeSweep{4}, StripeSweep{0}),
                         [](const ::testing::TestParamInfo<StripeSweep>& info) {
                           return "stripes_" + (info.param.stripes == 0
                                                    ? std::string("auto")
                                                    : std::to_string(info.param.stripes));
                         });

}  // namespace
}  // namespace dimmunix
