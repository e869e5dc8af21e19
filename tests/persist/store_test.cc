// Copyright (c) dimmunix-cpp authors. MIT license.
//
// HistoryStore tests: the async write path and how it coalesces bursts,
// the synchronous lock-merge-save (SaveNow), export/merge, live resync
// between two stores sharing one history file, and the files a store must
// never replace.

#include "src/persist/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/core/runtime.h"
#include "src/signature/history.h"
#include "src/stack/annotation.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace persist {
namespace {

using namespace std::chrono_literals;

// Polls until `pred` holds or ~2s elapse.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : table_(10), history_(&table_) {}

  std::string TempPath() {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("dimx_store_" + std::to_string(::getpid()) + "_" + std::to_string(counter_++)))
            .string();
    RemoveHistoryFiles(path);
    cleanup_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : cleanup_) {
      RemoveHistoryFiles(path);
    }
  }

  int AddSignature(History* history, const char* fa, const char* fb) {
    bool added = false;
    return history->Add(
        SignatureKind::kDeadlock,
        {table_.Intern({FrameFromName(fa)}), table_.Intern({FrameFromName(fb)})}, 2, &added);
  }

  StackTable table_;
  History history_;
  int counter_ = 0;
  std::vector<std::string> cleanup_;
};

TEST_F(StoreTest, StartCreatesTheFileImmediately) {
  const std::string path = TempPath();
  StoreOptions options;
  options.path = path;
  HistoryStore store(options, &history_);
  EXPECT_FALSE(std::filesystem::exists(path));
  store.Start();
  EXPECT_TRUE(std::filesystem::exists(path));
  store.Stop();
}

TEST_F(StoreTest, NotifyReachesTheSnapshotAsynchronously) {
  const std::string path = TempPath();
  StoreOptions options;
  options.path = path;
  HistoryStore store(options, &history_);
  store.Start();

  AddSignature(&history_, "async::a", "async::b");
  store.NotifySignatureChanged();  // O(1), no I/O on this thread

  // The writer thread compacts it into the snapshot: a fresh load sees it
  // and the file validates clean, with no sidecar.
  ASSERT_TRUE(Eventually([&] {
    StackTable table2(10);
    History loaded(&table2);
    return loaded.Load(path) && loaded.size() == 1;
  }));
  EXPECT_EQ(ValidateHistoryFile(path).status, LoadStatus::kOk);
  EXPECT_FALSE(std::filesystem::exists(path + ".journal"));
  EXPECT_GE(store.stats().compactions, 2u);  // startup + the signature
  store.Stop();
}

TEST_F(StoreTest, BurstOfChangesCoalescesIntoFewWrites) {
  const std::string path = TempPath();
  StoreOptions options;
  options.path = path;
  HistoryStore store(options, &history_);
  store.Start();
  const std::uint64_t startup = store.stats().compactions;

  // Hold the file lock so the writer's first compaction blocks while the
  // burst arrives: whatever it has not taken yet must go out in one write.
  constexpr int kBurst = 20;
  {
    FileLock held(LockPathFor(path));
    ASSERT_TRUE(held.Acquire());
    for (int i = 0; i < kBurst; ++i) {
      const std::string fa = "burst::a" + std::to_string(i);
      const std::string fb = "burst::b" + std::to_string(i);
      AddSignature(&history_, fa.c_str(), fb.c_str());
      store.NotifySignatureChanged();
    }
  }
  ASSERT_TRUE(Eventually([&] { return store.stats().queued == 0; }));
  ASSERT_TRUE(Eventually([&] {
    StackTable table2(10);
    History loaded(&table2);
    return loaded.Load(path) && loaded.size() == kBurst;
  }));
  EXPECT_LE(store.stats().compactions - startup, 2u);
  store.Stop();
}

TEST_F(StoreTest, StopFlushesEverything) {
  const std::string path = TempPath();
  StoreOptions options;
  options.path = path;
  {
    HistoryStore store(options, &history_);
    store.Start();
    AddSignature(&history_, "stop::a", "stop::b");
    store.NotifySignatureChanged();
    store.Stop();
  }
  StackTable table2(10);
  History loaded(&table2);
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_EQ(loaded.size(), 1u);
}

TEST_F(StoreTest, SaveNowMergesForeignSignaturesIntoLiveHistory) {
  const std::string path = TempPath();
  // Another "process" wrote its own signature to the shared file.
  {
    StackTable other_table(10);
    History other(&other_table);
    bool added = false;
    other.Add(SignatureKind::kDeadlock,
              {other_table.Intern({FrameFromName("foreign::a")}),
               other_table.Intern({FrameFromName("foreign::b")})},
              2, &added);
    ASSERT_TRUE(other.Save(path));
  }

  StoreOptions options;
  options.path = path;
  options.merge_on_start = false;  // isolate the SaveNow behavior
  HistoryStore store(options, &history_);
  int merged_callbacks = 0;
  store.SetOnHistoryMerged([&] { ++merged_callbacks; });
  store.Start();

  AddSignature(&history_, "local::a", "local::b");
  const std::uint64_t version_before = history_.version();
  ASSERT_TRUE(store.SaveNow());

  // Both signatures now live in memory AND on disk; the engine was told.
  EXPECT_EQ(history_.size(), 2u);
  EXPECT_GT(history_.version(), version_before);
  EXPECT_EQ(merged_callbacks, 1);
  EXPECT_EQ(store.stats().foreign_merged, 1u);

  StackTable table2(10);
  History loaded(&table2);
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_EQ(loaded.size(), 2u);
  store.Stop();
}

TEST_F(StoreTest, ResyncConsumesOtherProcesssWritesLive) {
  const std::string path = TempPath();

  StoreOptions options_a;
  options_a.path = path;
  HistoryStore store_a(options_a, &history_);
  store_a.Start();

  StackTable table_b(10);
  History history_b(&table_b);
  StoreOptions options_b;
  options_b.path = path;
  options_b.resync_period = 20ms;
  HistoryStore store_b(options_b, &history_b);
  store_b.Start();

  // A detects a deadlock and persists; B must learn it without any call.
  AddSignature(&history_, "resync::a", "resync::b");
  store_a.NotifySignatureChanged();
  ASSERT_TRUE(store_a.SaveNow());
  EXPECT_TRUE(Eventually([&] { return history_b.size() == 1; }))
      << "store B never resynced the shared file";

  store_b.Stop();
  store_a.Stop();
}

TEST_F(StoreTest, KnobEpochPreventsCompactionFromRevertingForeignDisable) {
  // Process B disables a signature and persists; process A (stale copy in
  // memory) then runs a compaction with kPreferExisting.
  // The higher knob_epoch in the file must win — A adopts the disable
  // instead of clobbering it.
  const std::string path = TempPath();
  const int index = AddSignature(&history_, "epoch::a", "epoch::b");

  StoreOptions options;
  options.path = path;
  HistoryStore store_a(options, &history_);
  store_a.Start();
  ASSERT_TRUE(store_a.SaveNow());

  {
    // "Process B": loads the shared file, disables, saves.
    StackTable table_b(10);
    History history_b(&table_b);
    ASSERT_TRUE(history_b.Load(path));
    ASSERT_EQ(history_b.size(), 1u);
    history_b.SetDisabled(0, true);  // bumps knob_epoch
    ASSERT_TRUE(history_b.Save(path));
  }

  ASSERT_FALSE(history_.Get(index).disabled);
  ASSERT_TRUE(store_a.SaveNow());  // kPreferExisting — epoch must override it
  EXPECT_TRUE(history_.Get(index).disabled)
      << "compaction reverted another process's disable";

  StackTable table_c(10);
  History loaded(&table_c);
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_TRUE(loaded.Get(0).disabled);
  store_a.Stop();
}

TEST_F(StoreTest, ExportAndMergeRoundTrip) {
  const std::string path = TempPath();
  const std::string exported = TempPath();
  StoreOptions options;
  options.path = path;
  HistoryStore store(options, &history_);
  store.Start();
  AddSignature(&history_, "exp::a", "exp::b");
  ASSERT_TRUE(store.ExportTo(exported));

  // Merge the export into a different history via its own store.
  StackTable table2(10);
  History history2(&table2);
  const std::string path2 = TempPath();
  StoreOptions options2;
  options2.path = path2;
  HistoryStore store2(options2, &history2);
  store2.Start();
  EXPECT_EQ(store2.MergeFrom(exported), 1);
  EXPECT_EQ(history2.size(), 1u);
  EXPECT_EQ(store2.MergeFrom(exported), 0);  // idempotent
  EXPECT_EQ(store2.MergeFrom("/nonexistent/x.hist"), -1);

  store2.Stop();
  store.Stop();
}

// A history path that holds something the store cannot decode — a script
// it points at by mistake, or a snapshot from a newer writer (version 3)
// sharing the file — must come out of a whole Runtime lifetime byte for
// byte, with the refusals counted as I/O errors.
TEST_F(StoreTest, RuntimeNeverReplacesAFileItCannotDecode) {
  std::string newer = "DIMX";
  for (const std::uint32_t v : {3u, 0u, 0u}) {
    for (int i = 0; i < 4; ++i) {
      newer.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  const std::uint32_t crc = Crc32(newer.data(), newer.size());
  for (int i = 0; i < 4; ++i) {
    newer.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  for (const std::string& content : {std::string("#!/bin/sh\nexec true\n"), newer}) {
    const std::string path = TempPath();
    {
      std::ofstream out(path, std::ios::binary);
      out << content;
    }
    {
      Config config;
      config.start_monitor = false;
      config.history_path = path;
      Runtime rt(config);
      ASSERT_NE(rt.history_store(), nullptr);
      EXPECT_GE(rt.history_store()->stats().io_errors, 1u) << "startup merge was not refused";

      // One new signature, written through the operator path.
      bool added = false;
      rt.history().Add(SignatureKind::kDeadlock,
                       {rt.stacks().Intern({FrameFromName("refuse::a")}),
                        rt.stacks().Intern({FrameFromName("refuse::b")})},
                       2, &added);
      ASSERT_TRUE(added);
      const std::uint64_t errors_before = rt.history_store()->stats().io_errors;
      EXPECT_FALSE(rt.SaveHistoryNow());
      EXPECT_GT(rt.history_store()->stats().io_errors, errors_before);
    }
    std::ifstream in(path, std::ios::binary);
    const std::string after((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(after, content) << "the store replaced a file it could not decode";
  }
}

}  // namespace
}  // namespace persist
}  // namespace dimmunix
