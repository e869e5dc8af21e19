// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The shared-memory arena: row write/snapshot round trips, seqlock-guarded
// records, slot claiming, clean release, and the PID+start-time liveness
// sweep that makes a SIGKILL'd participant unable to wedge the fleet. Which
// rows show which (thread, lock) edges is the bridge's business; its cases
// (reentrant counts, upgrade rows, overflow) live in bridge_test.cc.

#include "src/ipc/arena.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace dimmunix {
namespace ipc {
namespace {

class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("arena_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }

  std::string path_;
};

TEST_F(ArenaTest, PublishSnapshotRoundTrip) {
  std::string error;
  auto a = IpcArena::OpenOrCreate(path_, &error);
  ASSERT_NE(a, nullptr) << error;
  auto b = IpcArena::OpenOrCreate(path_, &error);
  ASSERT_NE(b, nullptr) << error;
  EXPECT_NE(a->participant_index(), b->participant_index());

  const LockId lock = kGlobalLockBit | 0x42;
  const std::vector<Frame> frames{0x1111, 0x2222, 0x3333};
  const LockRange range{0x77, 8, 24};
  const int row = a->AllocRow();
  ASSERT_GE(row, 0);
  a->WriteRow(row, 7, lock, /*hold=*/false, AcquireMode::kShared, 0, frames, range);

  auto edges = b->SnapshotForeign();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].participant, a->participant_index());
  EXPECT_EQ(edges[0].thread, 7);
  EXPECT_EQ(edges[0].lock, lock);
  EXPECT_FALSE(edges[0].hold);
  EXPECT_EQ(edges[0].mode, AcquireMode::kShared);
  EXPECT_EQ(edges[0].frames, frames);
  EXPECT_EQ(edges[0].range.group, range.group);
  EXPECT_EQ(edges[0].range.start, range.start);
  EXPECT_EQ(edges[0].range.len, range.len);

  // Rewriting the row replaces the edge in place.
  a->WriteRow(row, 7, lock, /*hold=*/true, AcquireMode::kExclusive, 2, frames, {});
  edges = b->SnapshotForeign();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].hold);
  EXPECT_EQ(edges[0].mode, AcquireMode::kExclusive);
  EXPECT_EQ(edges[0].count, 2u);
  EXPECT_FALSE(edges[0].range.valid());

  // A's own snapshot excludes its own edges.
  EXPECT_TRUE(a->SnapshotForeign().empty());

  a->FreeRow(row);
  EXPECT_TRUE(b->SnapshotForeign().empty());
  EXPECT_EQ(a->AllocRow(), row) << "a freed row is reused";
}

TEST_F(ArenaTest, CleanShutdownReleasesSlotAndEdges) {
  std::string error;
  {
    auto a = IpcArena::OpenOrCreate(path_, &error);
    ASSERT_NE(a, nullptr) << error;
    a->WriteRow(a->AllocRow(), 1, kGlobalLockBit | 0x5, /*hold=*/true,
                AcquireMode::kExclusive, 1, {0x1}, {});
  }
  auto b = IpcArena::OpenOrCreate(path_, &error);
  ASSERT_NE(b, nullptr) << error;
  EXPECT_EQ(b->participant_index(), 0) << "released slot must be reusable";
  EXPECT_TRUE(b->SnapshotForeign().empty()) << "released edges must be gone";
}

TEST_F(ArenaTest, RejectsForeignFilesWithoutTouchingThem) {
  const std::string junk_content = "this is not an arena, but it is not empty either";
  {
    std::ofstream junk(path_, std::ios::binary);
    junk << junk_content;
  }
  std::string error;
  auto a = IpcArena::OpenOrCreate(path_, &error);
  EXPECT_EQ(a, nullptr);
  EXPECT_NE(error.find("not a Dimmunix IPC arena"), std::string::npos) << error;
  // The innocent file must be byte-identical — never truncated or resized.
  EXPECT_EQ(ReadFile(path_), junk_content);

  // A version-1 arena (same geometry, older protocol) is refused too, and
  // left exactly as it was: openers speak only the current protocol.
  std::filesystem::remove(path_);
  ASSERT_NE(IpcArena::OpenOrCreate(path_, &error), nullptr) << error;  // released at once
  std::string v1 = ReadFile(path_);
  const std::uint16_t old_version = 1;
  std::memcpy(v1.data() + 4, &old_version, sizeof(old_version));  // header.version
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << v1;
  }
  error.clear();
  EXPECT_EQ(IpcArena::OpenOrCreate(path_, &error), nullptr);
  EXPECT_NE(error.find("version/geometry mismatch"), std::string::npos) << error;
  EXPECT_EQ(ReadFile(path_), v1);
}

TEST_F(ArenaTest, SweepReclaimsSigkilledParticipant) {
  std::string error;
  auto survivor = IpcArena::OpenOrCreate(path_, &error);
  ASSERT_NE(survivor, nullptr) << error;

  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  if (child == 0) {
    // Child: claim a slot, publish a hold, report readiness, hang forever —
    // then die by SIGKILL with the edge still standing.
    std::string child_error;
    auto arena = IpcArena::OpenOrCreate(path_, &child_error);
    if (arena == nullptr) {
      ::_exit(1);
    }
    arena->WriteRow(arena->AllocRow(), 1, kGlobalLockBit | 0xdead, /*hold=*/true,
                    AcquireMode::kExclusive, 1, {0xbeef}, {});
    char byte = 'r';
    (void)!::write(ready[1], &byte, 1);
    for (;;) {
      ::pause();
    }
  }
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  ::close(ready[1]);

  ASSERT_EQ(survivor->SnapshotForeign().size(), 1u) << "child's hold must be visible";
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);

  // The corpse's pid is gone: one sweep reclaims the slot and its edges.
  EXPECT_EQ(survivor->SweepDeadParticipants(), 1);
  EXPECT_TRUE(survivor->SnapshotForeign().empty());
  EXPECT_EQ(survivor->SweepDeadParticipants(), 0) << "sweep is idempotent";
}

TEST_F(ArenaTest, ParticipantsReportLiveness) {
  std::string error;
  auto a = IpcArena::OpenOrCreate(path_, &error);
  ASSERT_NE(a, nullptr) << error;
  a->Heartbeat();
  a->WriteRow(a->AllocRow(), 1, kGlobalLockBit | 0x1, /*hold=*/false,
              AcquireMode::kExclusive, 0, {0x1}, {});
  auto parts = a->Participants();
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_TRUE(parts[0].self);
  EXPECT_TRUE(parts[0].alive);
  EXPECT_EQ(parts[0].pid, static_cast<std::uint32_t>(::getpid()));
  EXPECT_EQ(parts[0].edges, 1u);
  EXPECT_GE(parts[0].heartbeat_age_ms, 0);
}

TEST(ArenaLivenessTest, ProcessStartTimeDetectsDeath) {
  EXPECT_NE(ProcessStartTime(static_cast<std::uint32_t>(::getpid())), 0u);
  const pid_t child = ::fork();
  if (child == 0) {
    ::_exit(0);
  }
  ::waitpid(child, nullptr, 0);
  EXPECT_EQ(ProcessStartTime(static_cast<std::uint32_t>(child)), 0u);
}

}  // namespace
}  // namespace ipc
}  // namespace dimmunix
