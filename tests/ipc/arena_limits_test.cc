// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The arena's two fixed limits, each with a defined outcome: a process
// never blocks and never loses local immunity when the arena is full.
//
//  * More live global edges than kEdgesPerParticipant rows: the overflow is
//    counted in dropped_publishes and the arena_exhaustion health rule
//    fires, while every lock operation still completes.
//  * A participant past kParticipants: the arena refuses it with a clear
//    error, and its Runtime comes up without a bridge (local-only immunity)
//    whose lock operations still commit.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/ipc/arena.h"
#include "src/ipc/bridge.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

class ArenaLimitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("arena_limits_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  Config RuntimeConfig() const {
    Config config;
    config.ipc_path = path_;
    config.start_monitor = false;
    config.health_enabled = false;  // the test runs the evaluator itself
    return config;
  }

  static obs::AlertState ArenaAlert(Runtime& runtime) {
    for (const obs::AlertSnapshot& alert : runtime.health().Snapshot()) {
      if (alert.rule == "arena_exhaustion") {
        return alert.state;
      }
    }
    return obs::AlertState::kInactive;
  }

  std::string path_;
};

TEST_F(ArenaLimitsTest, MoreLiveGlobalLocksThanRowsDropAndRaiseArenaExhaustion) {
  Runtime runtime(RuntimeConfig());
  ipc::IpcBridge* bridge = runtime.ipc_bridge();
  ASSERT_NE(bridge, nullptr);
  AvoidanceEngine& engine = runtime.engine();
  const ThreadId thread = engine.registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("limits::hoarder"));

  const int held = ipc::IpcArena::kEdgesPerParticipant + 4;
  std::vector<LockId> locks;
  for (int i = 0; i < held; ++i) {
    locks.push_back(kGlobalLockBit | static_cast<LockId>(0x5000 + i));
    ASSERT_EQ(engine.Request(thread, locks.back()), RequestDecision::kGo);
    engine.Acquired(thread, locks.back());
  }
  bridge->FlushPending();
  EXPECT_GT(bridge->SnapshotStatus().dropped_publishes, 0u);

  runtime.RunHealthCheckNow();
  runtime.RunHealthCheckNow();  // fire_ticks: breached twice -> active
  EXPECT_EQ(ArenaAlert(runtime), obs::AlertState::kActive);

  // Every operation completed; releasing everything frees every row.
  for (const LockId lock : locks) {
    engine.Release(thread, lock);
  }
  bridge->FlushPending();
  EXPECT_EQ(engine.stats().Snapshot().acquisitions, static_cast<std::uint64_t>(held));
  for (const ipc::ParticipantInfo& p : bridge->SnapshotStatus().participants) {
    if (p.self) {
      EXPECT_EQ(p.edges, 0u);
    }
  }
}

TEST_F(ArenaLimitsTest, SixtyFifthParticipantRunsLocalOnly) {
  std::vector<std::unique_ptr<ipc::IpcArena>> occupants;
  std::string error;
  for (int i = 0; i < ipc::IpcArena::kParticipants; ++i) {
    occupants.push_back(ipc::IpcArena::OpenOrCreate(path_, &error));
    ASSERT_NE(occupants.back(), nullptr) << error;
  }
  EXPECT_EQ(ipc::IpcArena::OpenOrCreate(path_, &error), nullptr);
  EXPECT_NE(error.find("all 64 participant slots"), std::string::npos) << error;

  Runtime runtime(RuntimeConfig());
  EXPECT_EQ(runtime.ipc_bridge(), nullptr);
  AvoidanceEngine& engine = runtime.engine();
  const ThreadId thread = engine.registry().RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("limits::latecomer"));
  const LockId local = 0x1234;
  ASSERT_EQ(engine.Request(thread, local), RequestDecision::kGo);
  engine.Acquired(thread, local);
  engine.Release(thread, local);
  EXPECT_EQ(engine.stats().Snapshot().acquisitions, 1u);
  EXPECT_EQ(engine.stats().Snapshot().releases, 1u);
}

}  // namespace
}  // namespace dimmunix
