// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Small-scope exhaustive check of deferred edge publication. One thread
// works two global locks through every engine-legal sequence of publisher
// calls up to kMaxOps long, and every subset of the positions after an op
// gets a FlushPending(). After each flush, a second arena's SnapshotForeign()
// must equal what a reference state machine says the thread's edges are.
// The reference below knows nothing of rows, batching or coalescing — it is
// the publisher contract (src/core/global_port.h) applied one call at a
// time — so any flush schedule that publishes a state the calls never
// produced (a leaked wait row, a stale mode or count) fails here. After
// each case the thread unwinds to idle and the arena must be empty again.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/config.h"
#include "src/core/avoidance.h"
#include "src/event/event_queue.h"
#include "src/ipc/arena.h"
#include "src/ipc/bridge.h"
#include "src/signature/history.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace ipc {
namespace {

constexpr int kMaxOps = 6;
constexpr int kLocks = 2;
constexpr ThreadId kThread = 1;
constexpr LockId kLockIds[kLocks] = {kGlobalLockBit | 0x10, kGlobalLockBit | 0x20};

// --- Reference state machine -------------------------------------------------
enum class Op { kWaitX, kWaitS, kClearWait, kHold, kReentrantHold, kClearHold };
constexpr Op kOps[] = {Op::kWaitX, Op::kWaitS,         Op::kClearWait,
                       Op::kHold,  Op::kReentrantHold, Op::kClearHold};
constexpr const char* kOpNames[] = {"WaitX", "WaitS", "ClearWait", "Hold", "ReHold", "ClearHold"};

struct RefEdge {
  bool present = false;
  AcquireMode mode = AcquireMode::kExclusive;
  StackId stack = kInvalidStackId;
  std::uint32_t count = 0;
};
struct RefLock {
  RefEdge wait;
  RefEdge hold;
};

// The engine's rules: a thread blocked in a request does nothing else, so at
// most one wait stands; a request on a held lock is a reentrant one in the
// held mode or the shared->exclusive upgrade.
bool Legal(Op op, const RefLock& lock, bool any_wait) {
  switch (op) {
    case Op::kWaitX:
      return !any_wait;
    case Op::kWaitS:
      return !any_wait && (!lock.hold.present || lock.hold.mode == AcquireMode::kShared);
    case Op::kClearWait:
    case Op::kHold:
      return lock.wait.present;
    case Op::kReentrantHold:
    case Op::kClearHold:
      return !any_wait && lock.hold.present;
  }
  return false;
}

// Applies `op` to the reference and returns the publisher call's arguments:
// a commit keeps the stack of the lock's first acquisition and takes the
// mode of the request it commits; a bare reentrant commit repeats the hold.
struct Call {
  StackId stack = kInvalidStackId;
  AcquireMode mode = AcquireMode::kExclusive;
};
Call Step(Op op, RefLock* lock, StackId fresh_stack) {
  Call call;
  switch (op) {
    case Op::kWaitX:
    case Op::kWaitS:
      call = {fresh_stack, op == Op::kWaitS ? AcquireMode::kShared : AcquireMode::kExclusive};
      lock->wait = RefEdge{true, call.mode, call.stack, 0};
      break;
    case Op::kClearWait:
      lock->wait = RefEdge{};
      break;
    case Op::kHold:
      call = {lock->hold.present ? lock->hold.stack : lock->wait.stack, lock->wait.mode};
      lock->hold = RefEdge{true, call.mode, call.stack, lock->hold.count + 1};
      lock->wait = RefEdge{};
      break;
    case Op::kReentrantHold:
      call = {lock->hold.stack, lock->hold.mode};
      ++lock->hold.count;
      break;
    case Op::kClearHold:
      if (--lock->hold.count == 0) {
        lock->hold = RefEdge{};
      }
      break;
  }
  return call;
}

// --- Harness -----------------------------------------------------------------
using EdgeTuple = std::tuple<ThreadId, LockId, bool, AcquireMode, std::uint32_t,
                             std::vector<Frame>>;

class PublicationModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("pubmodel_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove(path_);
    Config config;
    config.start_monitor = false;
    stacks_ = std::make_unique<StackTable>(config.max_match_depth);
    history_ = std::make_unique<History>(stacks_.get());
    queue_ = std::make_unique<EventQueue>();
    engine_ = std::make_unique<AvoidanceEngine>(config, stacks_.get(), history_.get(),
                                                queue_.get());
    IpcBridge::Options options;
    options.arena_path = path_;
    options.start_thread = false;
    bridge_ = std::make_unique<IpcBridge>(options, engine_.get(), stacks_.get());
    std::string error;
    ASSERT_TRUE(bridge_->Start(&error)) << error;
    peer_ = IpcArena::OpenOrCreate(path_, &error);
    ASSERT_NE(peer_, nullptr) << error;
  }
  void TearDown() override {
    peer_.reset();
    if (bridge_ != nullptr) {
      bridge_->Stop();
    }
    std::filesystem::remove(path_);
  }

  StackId StackFor(int lock, int position) {
    return stacks_->Intern({static_cast<Frame>(0x100 + lock), static_cast<Frame>(0x10 + position)});
  }

  std::vector<EdgeTuple> Expected(const RefLock (&locks)[kLocks]) const {
    std::vector<EdgeTuple> out;
    for (int l = 0; l < kLocks; ++l) {
      for (const RefEdge* e : {&locks[l].wait, &locks[l].hold}) {
        if (e->present) {
          out.emplace_back(kThread, kLockIds[l], e == &locks[l].hold, e->mode, e->count,
                           stacks_->Get(e->stack).frames);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<EdgeTuple> Published() const {
    std::vector<EdgeTuple> out;
    for (const ForeignEdge& e : peer_->SnapshotForeign()) {
      out.emplace_back(e.thread, e.lock, e.hold, e.mode, e.count, e.frames);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Runs one (sequence, flush set) case from idle and unwinds it; false and a
  // description in `*why` on the first divergence.
  bool RunCase(const std::vector<std::pair<Op, int>>& seq, unsigned flush_mask,
               std::string* why) {
    RefLock locks[kLocks];
    std::ostringstream trace;
    bool ok = true;
    for (std::size_t i = 0; i < seq.size() && ok; ++i) {
      const auto [op, l] = seq[i];
      const Call call = Step(op, &locks[l], StackFor(l, static_cast<int>(i)));
      trace << kOpNames[static_cast<int>(op)] << "(" << l << ") ";
      switch (op) {
        case Op::kWaitX:
        case Op::kWaitS:
          bridge_->PublishWait(kThread, kLockIds[l], call.stack, call.mode);
          break;
        case Op::kClearWait:
          bridge_->ClearWait(kThread, kLockIds[l]);
          break;
        case Op::kHold:
        case Op::kReentrantHold:
          bridge_->PublishHold(kThread, kLockIds[l], call.stack, call.mode);
          break;
        case Op::kClearHold:
          bridge_->ClearHold(kThread, kLockIds[l]);
          break;
      }
      if ((flush_mask >> i) & 1u) {
        trace << "| ";
        bridge_->FlushPending();
        ok = Published() == Expected(locks);
      }
    }
    // Unwind to idle: every row must be freed again.
    for (int l = 0; l < kLocks; ++l) {
      if (locks[l].wait.present) {
        bridge_->ClearWait(kThread, kLockIds[l]);
      }
      for (; locks[l].hold.count > 0; --locks[l].hold.count) {
        bridge_->ClearHold(kThread, kLockIds[l]);
      }
    }
    bridge_->FlushPending();
    if (!ok) {
      *why = trace.str() + "<- published state diverges from the reference";
    } else if (!Published().empty()) {
      ok = false;
      *why = trace.str() + "then unwound <- rows leaked";
    }
    return ok;
  }

  std::string path_;
  std::unique_ptr<StackTable> stacks_;
  std::unique_ptr<History> history_;
  std::unique_ptr<EventQueue> queue_;
  std::unique_ptr<AvoidanceEngine> engine_;
  std::unique_ptr<IpcBridge> bridge_;
  std::unique_ptr<IpcArena> peer_;
};

TEST_F(PublicationModelTest, EveryLegalSequenceAndFlushScheduleMatchesTheReference) {
  // Every legal sequence of exactly kMaxOps ops (each shorter legal sequence
  // is a prefix of one, and checks run after every flush along the way).
  std::vector<std::vector<std::pair<Op, int>>> sequences;
  std::vector<std::pair<Op, int>> seq;
  RefLock locks[kLocks];
  const auto extend = [&](const auto& self) -> void {
    if (seq.size() == kMaxOps) {
      sequences.push_back(seq);
      return;
    }
    const bool any_wait = locks[0].wait.present || locks[1].wait.present;
    for (int l = 0; l < kLocks; ++l) {
      for (const Op op : kOps) {
        if (!Legal(op, locks[l], any_wait)) {
          continue;
        }
        const RefLock saved = locks[l];
        Step(op, &locks[l], kInvalidStackId);
        seq.emplace_back(op, l);
        self(self);
        seq.pop_back();
        locks[l] = saved;
      }
    }
  };
  extend(extend);
  ASSERT_GT(sequences.size(), 1000u);

  std::size_t cases = 0;
  std::size_t failures = 0;
  for (const auto& s : sequences) {
    for (unsigned mask = 0; mask < (1u << kMaxOps); ++mask) {
      std::string why;
      ++cases;
      if (!RunCase(s, mask, &why) && ++failures <= 5) {
        ADD_FAILURE() << why;
      }
    }
  }
  EXPECT_EQ(failures, 0u) << "of " << cases << " cases";
  RecordProperty("cases", static_cast<int>(cases));
}

}  // namespace
}  // namespace ipc
}  // namespace dimmunix
