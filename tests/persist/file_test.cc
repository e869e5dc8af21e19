// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Tests for the history file layer: atomic snapshot saves, the one
// lock-load-merge-write path and the files it refuses to replace,
// validation, and the byte-identical save -> load -> save property over
// randomized images.

#include "src/persist/file.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>

namespace dimmunix {
namespace persist {
namespace {

class FileTest : public ::testing::Test {
 protected:
  std::string TempPath() {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("dimx_persist_" + std::to_string(::getpid()) + "_" + std::to_string(counter_++)))
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

  int counter_ = 0;
  std::vector<std::string> cleanup_;
};

// Tiny deterministic PRNG (xorshift) — test must not depend on seed quirks.
struct Rng {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

HistoryImage RandomImage(Rng* rng, std::size_t records) {
  HistoryImage image;
  for (std::size_t r = 0; r < records; ++r) {
    SignatureRecord rec;
    rec.kind = rng->Next() % 2;
    rec.disabled = rng->Next() % 4 == 0;
    rec.match_depth = 1 + static_cast<std::int32_t>(rng->Next() % 10);
    rec.avoidance_count = rng->Next() % 1000;
    rec.abort_count = rng->Next() % 100;
    rec.fp_count = rng->Next() % 100;
    const std::size_t stacks = 1 + rng->Next() % 4;
    for (std::size_t s = 0; s < stacks; ++s) {
      std::vector<Frame> frames;
      const std::size_t depth = 1 + rng->Next() % 6;
      for (std::size_t f = 0; f < depth; ++f) {
        frames.push_back(rng->Next() | 1);  // never kInvalidFrame
      }
      rec.stacks.push_back(std::move(frames));
    }
    rec.Canonicalize();
    image.records.push_back(std::move(rec));
  }
  return image;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST_F(FileTest, SaveLoadSaveIsByteIdentical) {
  // The round-trip property over 20 randomized images.
  Rng rng;
  for (int round = 0; round < 20; ++round) {
    const std::string path = TempPath();
    const HistoryImage image = RandomImage(&rng, 1 + rng.Next() % 8);
    ASSERT_TRUE(SaveHistoryFile(path, image));
    const std::string first = ReadBytes(path);

    HistoryImage loaded;
    const LoadResult result = LoadHistoryFile(path, &loaded);
    ASSERT_EQ(result.status, LoadStatus::kOk);
    ASSERT_EQ(result.records_dropped, 0u);

    ASSERT_TRUE(SaveHistoryFile(path, loaded));
    EXPECT_EQ(ReadBytes(path), first) << "round " << round;
  }
}

TEST_F(FileTest, MissingFileIsNotFound) {
  HistoryImage image;
  const LoadResult result = LoadHistoryFile("/nonexistent/dir/x.hist", &image);
  EXPECT_EQ(result.status, LoadStatus::kNotFound);
  EXPECT_TRUE(image.records.empty());
}

TEST_F(FileTest, ZeroByteFileIsAnEmptyHistory) {
  const std::string path = TempPath();
  { std::ofstream out(path, std::ios::binary); }
  HistoryImage loaded;
  const LoadResult result = LoadHistoryFile(path, &loaded);
  EXPECT_EQ(result.status, LoadStatus::kOk);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(ValidateHistoryFile(path).status, LoadStatus::kOk);

  // The first write gives it a v2 header.
  Rng rng;
  ASSERT_TRUE(MergeIntoFile(path, RandomImage(&rng, 2)));
  EXPECT_EQ(ReadBytes(path).substr(0, 4), kSnapshotMagic);
  HistoryImage merged;
  EXPECT_EQ(LoadHistoryFile(path, &merged).records_loaded, 2u);
}

TEST_F(FileTest, LeftoverJournalSidecarIsNotRead) {
  const std::string path = TempPath();
  Rng rng;
  ASSERT_TRUE(SaveHistoryFile(path, RandomImage(&rng, 1)));
  const std::string sidecar = path + ".journal";
  {
    std::ofstream out(sidecar, std::ios::binary);
    out << "DIMJ" << std::string(64, '\x5a');
  }
  HistoryImage loaded;
  const LoadResult result = LoadHistoryFile(path, &loaded);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(loaded.records.size(), 1u);
  std::filesystem::remove(sidecar);
}

TEST_F(FileTest, WritersNeverReplaceAFileTheyCannotDecode) {
  // A script the history path points at by mistake, and a snapshot from a
  // newer writer (version 3) sharing the file: both load kCorrupt and must
  // survive a merge byte for byte.
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
  Rng rng;
  const HistoryImage image = RandomImage(&rng, 2);
  for (const std::string& content : {std::string("#!/bin/sh\nexec true\n"), newer}) {
    const std::string path = TempPath();
    {
      std::ofstream out(path, std::ios::binary);
      out << content;
    }
    HistoryImage loaded;
    EXPECT_EQ(LoadHistoryFile(path, &loaded).status, LoadStatus::kCorrupt);
    std::string error;
    EXPECT_FALSE(MergeIntoFile(path, image, nullptr, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(ReadBytes(path), content);
  }
}

TEST_F(FileTest, UpdateThatChangesNothingDoesNotRewrite) {
  const std::string path = TempPath();
  Rng rng;
  ASSERT_TRUE(MergeIntoFile(path, RandomImage(&rng, 3)));
  const auto before = std::filesystem::last_write_time(path);
  bool wrote = true;
  ASSERT_TRUE(UpdateHistoryFile(path, [](HistoryImage*) {}, &wrote));
  EXPECT_FALSE(wrote);
  EXPECT_EQ(std::filesystem::last_write_time(path), before);
}

TEST_F(FileTest, MergeIntoFileIsLossless) {
  const std::string path = TempPath();
  Rng rng;
  const HistoryImage a = RandomImage(&rng, 3);
  const HistoryImage b = RandomImage(&rng, 3);
  MergeStats stats;
  ASSERT_TRUE(MergeIntoFile(path, a, &stats));
  EXPECT_EQ(stats.added, 3u);
  ASSERT_TRUE(MergeIntoFile(path, b, &stats));
  EXPECT_EQ(stats.added, 3u);

  HistoryImage loaded;
  ASSERT_EQ(LoadHistoryFile(path, &loaded).status, LoadStatus::kOk);
  EXPECT_EQ(loaded.records.size(), 6u);
  for (const SignatureRecord& rec : a.records) {
    EXPECT_GE(loaded.Find(rec), 0);
  }
  for (const SignatureRecord& rec : b.records) {
    EXPECT_GE(loaded.Find(rec), 0);
  }
}

TEST_F(FileTest, ValidateRejectsBitFlippedFile) {
  const std::string path = TempPath();
  Rng rng;
  ASSERT_TRUE(SaveHistoryFile(path, RandomImage(&rng, 4)));
  EXPECT_EQ(ValidateHistoryFile(path).status, LoadStatus::kOk);

  std::string bytes = ReadBytes(path);
  bytes[bytes.size() - 5] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_EQ(ValidateHistoryFile(path).status, LoadStatus::kCorrupt);
}

TEST_F(FileTest, ValidateRejectsTruncatedFile) {
  const std::string path = TempPath();
  Rng rng;
  ASSERT_TRUE(SaveHistoryFile(path, RandomImage(&rng, 4)));
  std::string bytes = ReadBytes(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 9);
  }
  EXPECT_EQ(ValidateHistoryFile(path).status, LoadStatus::kCorrupt);
}

TEST_F(FileTest, FileLocksExcludeEachOtherWithinOneProcess) {
  // Two Runtimes sharing one history path in a single process must truly
  // serialize their load-merge-save sequences; OFD locks (unlike classic
  // fcntl record locks) conflict between fds of the same process.
  const std::string path = TempPath();
  FileLock first(LockPathFor(path));
  ASSERT_TRUE(first.Acquire());

  std::atomic<bool> second_acquired{false};
  std::thread contender([&] {
    FileLock second(LockPathFor(path));
    ASSERT_TRUE(second.Acquire());
    second_acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_acquired.load()) << "second FileLock acquired while the first was held";
  first.Release();
  contender.join();
  EXPECT_TRUE(second_acquired.load());
}

}  // namespace
}  // namespace persist
}  // namespace dimmunix
