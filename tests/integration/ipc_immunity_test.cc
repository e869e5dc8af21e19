// Copyright (c) dimmunix-cpp authors. MIT license.
//
// End-to-end cross-process immunity with real Runtimes in real processes:
//
//   run 1: two forked processes form an AB-BA cycle over two global locks;
//          each monitor folds the peer's arena edges into its RAG, detects
//          the cross-process deadlock, and persists the proc-qualified
//          signature into the shared history file.
//   run 2: fresh incarnations load that history; the staggered process
//          refuses to take its first lock into the known pattern (yield),
//          the other completes, its release flows through the arena, and
//          both finish.
//
// The "deadlock" is modeled without real blocking: each side holds its
// first lock and keeps an allow edge on the second standing while it
// sleeps, which is exactly the RAG state a blocked acquisition produces —
// so the test cannot hang, only fail.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "src/core/runtime.h"
#include "src/persist/file.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

constexpr LockId kLock1 = kGlobalLockBit | 0xA1;
constexpr LockId kLock2 = kGlobalLockBit | 0xB2;

struct Paths {
  std::string history;
  std::string arena;
};

Paths TestPaths() {
  const std::string stem = (std::filesystem::temp_directory_path() /
                            ("ipc_immunity_" + std::to_string(::getpid())))
                               .string();
  return Paths{stem + ".hist", stem + ".arena"};
}

Config ChildConfig(const Paths& paths) {
  Config config;
  config.history_path = paths.history;
  config.ipc_path = paths.arena;
  config.ipc_bridge_period = std::chrono::milliseconds(20);
  config.monitor_period = std::chrono::milliseconds(20);
  config.yield_timeout = std::chrono::milliseconds(3000);
  return config;
}

// One side of the AB-BA pattern. Returns the child's exit code:
//   0 = completed;  +1 = at least one avoidance yield happened;
//   10+ = error.
int RunSide(const Paths& paths, bool side_a, bool expect_detection) {
  Runtime rt(ChildConfig(paths));
  if (rt.ipc_bridge() == nullptr) {
    return 10;
  }
  const LockId first = side_a ? kLock1 : kLock2;
  const LockId second = side_a ? kLock2 : kLock1;
  static const Frame frame_a = FrameFromName("ipc_immunity::side_a");
  static const Frame frame_b = FrameFromName("ipc_immunity::side_b");
  ScopedFrame scope(side_a ? frame_a : frame_b);

  if (!side_a) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));  // stagger
  }
  // First lock: in run 2 the staggered side yields here until the peer's
  // release is mirrored out of the arena (bounded by yield_timeout).
  AcquireOp op_first = rt.BeginAcquire(first, AcquireMode::kExclusive);
  if (!op_first.Granted()) {
    return 11;
  }
  op_first.Commit();

  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // Second lock: hold the allow edge standing for a while — the RAG state
  // of a blocked acquisition — then retract instead of really blocking.
  AcquireOp op_second = rt.BeginAcquire(second, AcquireMode::kExclusive);
  if (op_second.Granted()) {
    if (expect_detection) {
      // Keep the cross-process cycle standing long enough for both
      // monitors (τ = 20 ms) to see it.
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
      op_second.Cancel();
    } else {
      op_second.Commit();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      rt.EndRelease(second);
    }
  }
  rt.EndRelease(first);

  const bool yielded = rt.engine().stats().yields.load() > 0;
  if (expect_detection) {
    // Give the monitor one more period to drain + archive, then require
    // the detection to have happened in at least one process — this one
    // reports its own view.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return rt.monitor().stats().deadlocks_detected.load() > 0 ? 0 : 12;
  }
  return yielded ? 1 : 0;
}

int ForkSide(const Paths& paths, bool side_a, bool expect_detection) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::_exit(RunSide(paths, side_a, expect_detection));
  }
  return pid;
}

int WaitFor(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 100 + WTERMSIG(status);
}

TEST(IpcImmunityTest, TwoProcessCycleIsDetectedThenAvoided) {
  const Paths paths = TestPaths();
  persist::RemoveHistoryFiles(paths.history);
  std::filesystem::remove(paths.arena);

  // Run 1: the cycle forms; both processes must detect it (each one sees
  // the full cycle through mirrored edges) and the signature must reach
  // the shared history.
  {
    const pid_t a = ForkSide(paths, /*side_a=*/true, /*expect_detection=*/true);
    const pid_t b = ForkSide(paths, /*side_a=*/false, /*expect_detection=*/true);
    EXPECT_EQ(WaitFor(a), 0) << "side A must detect the cross-process deadlock";
    EXPECT_EQ(WaitFor(b), 0) << "side B must detect the cross-process deadlock";
  }
  ASSERT_TRUE(std::filesystem::exists(paths.history));

  // Run 2: fresh incarnations are immune — the staggered side yields once,
  // both complete. Exit codes: A completes without yielding (0), B yields
  // at its first lock (1).
  {
    const pid_t a = ForkSide(paths, /*side_a=*/true, /*expect_detection=*/false);
    const pid_t b = ForkSide(paths, /*side_a=*/false, /*expect_detection=*/false);
    const int code_a = WaitFor(a);
    const int code_b = WaitFor(b);
    EXPECT_LE(code_a, 1) << "side A must complete";
    EXPECT_LE(code_b, 1) << "side B must complete";
    EXPECT_EQ(code_a + code_b, 1) << "exactly one side should have yielded";
  }

  persist::RemoveHistoryFiles(paths.history);
  std::filesystem::remove(paths.arena);
}

TEST(IpcImmunityTest, SigkilledHolderIsReapedAndPeerProceeds) {
  const Paths paths = TestPaths();
  persist::RemoveHistoryFiles(paths.history);
  std::filesystem::remove(paths.arena);

  // A child claims the arena and holds a global lock, then is SIGKILL'd.
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  if (child == 0) {
    Runtime rt(ChildConfig(paths));
    ScopedFrame scope(FrameFromName("ipc_immunity::doomed"));
    AcquireOp op = rt.BeginAcquire(kLock1, AcquireMode::kExclusive);
    op.Commit();
    char byte = 'r';
    (void)!::write(ready[1], &byte, 1);
    for (;;) {
      ::pause();  // hold the lock until SIGKILL
    }
  }
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  ::close(ready[1]);

  Runtime rt(ChildConfig(paths));
  ASSERT_NE(rt.ipc_bridge(), nullptr);
  // The dead-to-be holder is currently visible...
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.engine().LockOwner(kLock1) == kInvalidThreadId &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(rt.engine().LockOwner(kLock1), kForeignThreadBase);

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);

  // ...until a liveness sweep reclaims its slot: the phantom hold must
  // disappear without any cooperation from the corpse.
  const auto reap_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.engine().LockOwner(kLock1) != kInvalidThreadId &&
         std::chrono::steady_clock::now() < reap_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(rt.engine().LockOwner(kLock1), kInvalidThreadId)
      << "a SIGKILL'd participant must never wedge the arena";

  persist::RemoveHistoryFiles(paths.history);
  std::filesystem::remove(paths.arena);
}

}  // namespace
}  // namespace dimmunix
