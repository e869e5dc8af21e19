// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/signature/history.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "src/persist/file.h"

namespace dimmunix {
namespace {

class HistoryTest : public ::testing::Test {
 protected:
  HistoryTest() : table_(10), history_(&table_) {}

  StackId Stack(std::initializer_list<const char*> names) {
    std::vector<Frame> frames;
    for (const char* name : names) {
      frames.push_back(FrameFromName(name));
    }
    return table_.Intern(frames);
  }

  std::string TempPath() {
    return (std::filesystem::temp_directory_path() /
            ("dimmunix_hist_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++)))
        .string();
  }

  StackTable table_;
  History history_;
  int counter_ = 0;
};

TEST_F(HistoryTest, AddAndGet) {
  bool added = false;
  const int index = history_.Add(SignatureKind::kDeadlock,
                                 {Stack({"a", "b"}), Stack({"c", "d"})}, 4, &added);
  EXPECT_TRUE(added);
  EXPECT_EQ(history_.size(), 1u);
  const Signature sig = history_.Get(index);
  EXPECT_EQ(sig.kind, SignatureKind::kDeadlock);
  EXPECT_EQ(sig.match_depth, 4);
  EXPECT_EQ(sig.stacks.size(), 2u);
}

TEST_F(HistoryTest, DuplicatesAreDisallowed) {
  // §5.3: "duplicate signatures are disallowed", so the history cannot grow
  // indefinitely.
  bool added = false;
  const StackId a = Stack({"a"});
  const StackId b = Stack({"b"});
  const int first = history_.Add(SignatureKind::kDeadlock, {a, b}, 4, &added);
  EXPECT_TRUE(added);
  // Same multiset, different order.
  const int second = history_.Add(SignatureKind::kDeadlock, {b, a}, 4, &added);
  EXPECT_FALSE(added);
  EXPECT_EQ(first, second);
  EXPECT_EQ(history_.size(), 1u);
}

TEST_F(HistoryTest, MultisetSignatureAllowsRepeatedStacks) {
  // Different threads deadlocked with the *same* call stack: the signature
  // must be a multiset (§5.3).
  bool added = false;
  const StackId s = Stack({"same", "stack"});
  history_.Add(SignatureKind::kDeadlock, {s, s}, 4, &added);
  EXPECT_TRUE(added);
  history_.Add(SignatureKind::kDeadlock, {s}, 4, &added);
  EXPECT_TRUE(added);  // {s} differs from {s, s}
  EXPECT_EQ(history_.size(), 2u);
}

TEST_F(HistoryTest, VersionBumpsOnMutation) {
  bool added = false;
  const std::uint64_t v0 = history_.version();
  const int index =
      history_.Add(SignatureKind::kDeadlock, {Stack({"a"}), Stack({"b"})}, 4, &added);
  EXPECT_GT(history_.version(), v0);
  const std::uint64_t v1 = history_.version();
  history_.SetDisabled(index, true);
  EXPECT_GT(history_.version(), v1);
  const std::uint64_t v2 = history_.version();
  history_.SetMatchDepth(index, 7);
  EXPECT_GT(history_.version(), v2);
  const std::uint64_t v3 = history_.version();
  history_.RecordAvoidance(index);  // counters do not affect matching: no bump
  EXPECT_EQ(history_.version(), v3);
}

TEST_F(HistoryTest, SaveLoadRoundtrip) {
  bool added = false;
  const int index = history_.Add(SignatureKind::kStarvation,
                                 {Stack({"f1", "f2", "f3"}), Stack({"g1"})}, 6, &added);
  history_.SetDisabled(index, true);
  history_.RecordAvoidance(index);
  history_.RecordAvoidance(index);
  history_.RecordAbort(index);
  const std::string path = TempPath();
  ASSERT_TRUE(history_.Save(path));

  StackTable table2(10);
  History loaded(&table2);
  ASSERT_TRUE(loaded.Load(path));
  ASSERT_EQ(loaded.size(), 1u);
  const Signature sig = loaded.Get(0);
  EXPECT_EQ(sig.kind, SignatureKind::kStarvation);
  EXPECT_EQ(sig.match_depth, 6);
  EXPECT_TRUE(sig.disabled);
  EXPECT_EQ(sig.avoidance_count, 2u);
  EXPECT_EQ(sig.abort_count, 1u);
  // The stacks round-trip frame-for-frame.
  const StackEntry& entry = table2.Get(sig.stacks[0]);
  EXPECT_FALSE(entry.frames.empty());
  std::remove(path.c_str());
}

TEST_F(HistoryTest, LoadMergesWithoutDuplicating) {
  bool added = false;
  history_.Add(SignatureKind::kDeadlock, {Stack({"m1"}), Stack({"m2"})}, 4, &added);
  const std::string path = TempPath();
  ASSERT_TRUE(history_.Save(path));
  // Loading our own file back must not duplicate.
  ASSERT_TRUE(history_.Load(path));
  EXPECT_EQ(history_.size(), 1u);
  std::remove(path.c_str());
}

TEST_F(HistoryTest, MissingFileIsNotAnError) {
  EXPECT_TRUE(history_.Load("/nonexistent/dimmunix.hist"));
  EXPECT_EQ(history_.size(), 0u);
}

TEST_F(HistoryTest, DamagedRecordIsSkipped) {
  bool added = false;
  history_.Add(SignatureKind::kDeadlock, {Stack({"dmg1"}), Stack({"dmg2"})}, 3, &added);
  history_.Add(SignatureKind::kDeadlock, {Stack({"dmg3"}), Stack({"dmg4"})}, 3, &added);
  const std::string path = TempPath();
  ASSERT_TRUE(history_.Save(path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 2] ^= 0x08;  // inside the last record's payload
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  StackTable table2(10);
  History loaded(&table2);
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.Get(0).match_depth, 3);
  persist::RemoveHistoryFiles(path);
}

TEST_F(HistoryTest, SaveWritesFormatV2) {
  bool added = false;
  history_.Add(SignatureKind::kDeadlock, {Stack({"v2a"}), Stack({"v2b"})}, 4, &added);
  const std::string path = TempPath();
  ASSERT_TRUE(history_.Save(path));
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "DIMX");
  persist::RemoveHistoryFiles(path);
}

TEST_F(HistoryTest, MergeImagePolicyGovernsKnobs) {
  bool added = false;
  const int index =
      history_.Add(SignatureKind::kDeadlock, {Stack({"pol1"}), Stack({"pol2"})}, 4, &added);
  // Build an image of the same signature with different knobs/counters.
  persist::HistoryImage image = history_.ExportImage();
  image.records[0].disabled = true;
  image.records[0].match_depth = 2;
  image.records[0].avoidance_count = 50;

  // Compaction policy: my knobs win, counters still ratchet up.
  EXPECT_EQ(history_.MergeImage(image, persist::MergePolicy::kPreferExisting), 0);
  EXPECT_FALSE(history_.Get(index).disabled);
  EXPECT_EQ(history_.Get(index).match_depth, 4);
  EXPECT_EQ(history_.Get(index).avoidance_count, 50u);

  // Reload policy (§8): the file wins the knobs.
  const std::uint64_t version_before = history_.version();
  EXPECT_EQ(history_.MergeImage(image, persist::MergePolicy::kPreferIncoming), 0);
  EXPECT_TRUE(history_.Get(index).disabled);
  EXPECT_EQ(history_.Get(index).match_depth, 2);
  EXPECT_GT(history_.version(), version_before);
}

TEST_F(HistoryTest, ForEachVisitsAll) {
  bool added = false;
  history_.Add(SignatureKind::kDeadlock, {Stack({"x1"}), Stack({"x2"})}, 4, &added);
  history_.Add(SignatureKind::kDeadlock, {Stack({"y1"}), Stack({"y2"})}, 4, &added);
  int visited = 0;
  history_.ForEach([&](int, const Signature&) { ++visited; });
  EXPECT_EQ(visited, 2);
}

}  // namespace
}  // namespace dimmunix
