// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Crash-safety and multi-process tests — the acceptance criteria of the
// durable-immunity work:
//
//  * SIGKILL at an arbitrary point during load-merge-write leaves a file
//    that validates clean and holds every acknowledged signature.
//  * N processes doing concurrent load-merge-save on one history file lose
//    no signatures (the fcntl lock protocol).
//
// Children are forked before this binary spawns any threads and run only
// persist-layer file I/O, so fork() is safe here.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/persist/file.h"
#include "src/signature/history.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace persist {
namespace {

std::string TempPath(const char* tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::string("dimx_crash_") + tag + "_" + std::to_string(::getpid())))
          .string();
  RemoveHistoryFiles(path);
  return path;
}

SignatureRecord UniqueRecord(std::uint64_t child, std::uint64_t i) {
  SignatureRecord rec;
  rec.kind = 0;
  rec.match_depth = 2;
  rec.avoidance_count = i;
  rec.stacks.push_back({child * 1000000 + i * 2 + 1});
  rec.stacks.push_back({child * 1000000 + i * 2 + 2});
  rec.Canonicalize();
  return rec;
}

// The <path>.tmp.<pid>.<seq> files next to `path`.
std::vector<std::string> TmpFiles(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".tmp.";
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(p.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      out.push_back(entry.path().string());
    }
  }
  return out;
}

void Touch(const std::string& path) { std::ofstream(path) << "partial snapshot"; }

TEST(CrashTest, SigkillMidMergeLeavesEveryAcknowledgedSignature) {
  const std::string path = TempPath("kill");
  // Seed one durable signature so there is always something to protect.
  {
    HistoryImage seed;
    seed.records.push_back(UniqueRecord(99, 0));
    ASSERT_TRUE(SaveHistoryFile(path, seed));
  }

  int acks[2];
  ASSERT_EQ(::pipe(acks), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Merge distinct records one at a time until killed, acknowledging each
    // index once MergeIntoFile returned (renamed and durable). The SIGKILL
    // can land anywhere in a load, write, fsync or rename.
    ::close(acks[0]);
    for (std::uint64_t i = 1;; ++i) {
      HistoryImage mine;
      mine.records.push_back(UniqueRecord(1, i));
      if (!MergeIntoFile(path, mine)) {
        _exit(10);
      }
      if (::write(acks[1], &i, sizeof(i)) != static_cast<ssize_t>(sizeof(i))) {
        _exit(11);
      }
    }
  }
  ::close(acks[1]);
  ::usleep(150 * 1000);  // let it get some merges in
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "the merging child failed on its own";

  std::vector<std::uint64_t> acked;
  std::uint64_t index = 0;
  while (::read(acks[0], &index, sizeof(index)) == static_cast<ssize_t>(sizeof(index))) {
    acked.push_back(index);
  }
  ::close(acks[0]);
  EXPECT_FALSE(acked.empty()) << "no merge finished before the kill";

  // The strict check passes: the kill left the old snapshot or the new
  // one, and any leftover .tmp file is not part of the load.
  const LoadResult validated = ValidateHistoryFile(path);
  EXPECT_EQ(validated.status, LoadStatus::kOk) << validated.message;
  EXPECT_EQ(validated.records_dropped, 0u);

  HistoryImage image;
  ASSERT_EQ(LoadHistoryFile(path, &image).status, LoadStatus::kOk);
  EXPECT_GE(image.Find(UniqueRecord(99, 0)), 0) << "the seed signature was lost";
  for (const std::uint64_t i : acked) {
    EXPECT_GE(image.Find(UniqueRecord(1, i)), 0) << "acknowledged record " << i << " lost";
  }

  // And by the full History stack (what a restarting runtime does).
  StackTable table(10);
  History history(&table);
  EXPECT_TRUE(history.Load(path));
  EXPECT_EQ(history.size(), image.records.size());

  // Whatever tmp file the kill left (plus one planted under the dead pid,
  // so the check never depends on where the kill landed) is gone after the
  // next write: nothing piles up next to a shared history.
  Touch(path + ".tmp." + std::to_string(child) + ".999999");
  HistoryImage more;
  more.records.push_back(UniqueRecord(2, 1));
  ASSERT_TRUE(MergeIntoFile(path, more));
  EXPECT_TRUE(TmpFiles(path).empty()) << TmpFiles(path).front();
  RemoveHistoryFiles(path);
}

TEST(CrashTest, TmpFilesOfLiveWritersSurviveTheSweep) {
  const std::string path = TempPath("live_tmp");
  // Our own pid may have a save in flight on another thread, and pid 1 is
  // alive: neither tmp file may be touched.
  const std::string own = path + ".tmp." + std::to_string(::getpid()) + ".999999";
  const std::string live = path + ".tmp.1.0";
  Touch(own);
  Touch(live);
  HistoryImage image;
  image.records.push_back(UniqueRecord(3, 1));
  ASSERT_TRUE(MergeIntoFile(path, image));
  EXPECT_TRUE(std::filesystem::exists(own));
  EXPECT_TRUE(std::filesystem::exists(live));
  std::filesystem::remove(own);
  std::filesystem::remove(live);
  RemoveHistoryFiles(path);
}

TEST(CrashTest, TwoProcessConcurrentMergeLosesNoSignatures) {
  const std::string path = TempPath("merge2");
  constexpr int kPerChild = 25;

  pid_t children[2] = {-1, -1};
  for (std::uint64_t c = 0; c < 2; ++c) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Each child checkpoints kPerChild distinct signatures one at a time —
      // the worst-case interleaving for a lost-update bug.
      for (std::uint64_t i = 0; i < kPerChild; ++i) {
        HistoryImage mine;
        mine.records.push_back(UniqueRecord(c + 1, i));
        if (!MergeIntoFile(path, mine)) {
          _exit(10);
        }
      }
      _exit(0);
    }
    children[c] = pid;
  }
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  HistoryImage image;
  const LoadResult result = LoadHistoryFile(path, &image);
  ASSERT_EQ(result.status, LoadStatus::kOk);
  EXPECT_EQ(result.records_dropped, 0u);
  ASSERT_EQ(image.records.size(), 2u * kPerChild) << "signatures were lost in the merge";
  for (std::uint64_t c = 1; c <= 2; ++c) {
    for (std::uint64_t i = 0; i < kPerChild; ++i) {
      EXPECT_GE(image.Find(UniqueRecord(c, i)), 0) << "child " << c << " record " << i;
    }
  }
  RemoveHistoryFiles(path);
}

}  // namespace
}  // namespace persist
}  // namespace dimmunix
