// Copyright (c) dimmunix-cpp authors. MIT license.
//
// End-to-end test of the LD_PRELOAD pthread interposition shim (§6): an
// unmodified pthreads binary (examples/preload_victim) deadlocks on its
// first run; the shim's monitor persists the signature; the second run of
// the very same binary completes. No recompilation, no source access.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/benchlib/trial.h"
#include "src/persist/file.h"

namespace dimmunix {
namespace {

#ifndef PRELOAD_SO_PATH
#define PRELOAD_SO_PATH ""
#endif
#ifndef VICTIM_PATH
#define VICTIM_PATH ""
#endif
#ifndef RWLOCK_VICTIM_PATH
#define RWLOCK_VICTIM_PATH ""
#endif
#ifndef CONDVAR_VICTIM_PATH
#define CONDVAR_VICTIM_PATH ""
#endif
#ifndef ROBUST_VICTIM_PATH
#define ROBUST_VICTIM_PATH ""
#endif

TrialResult RunVictimBinary(const char* victim, const std::string& history) {
  return RunTrial(
      [&] {
        setenv("LD_PRELOAD", PRELOAD_SO_PATH, 1);
        setenv("DIMMUNIX_HISTORY", history.c_str(), 1);
        setenv("DIMMUNIX_TAU_MS", "20", 1);
        execl(victim, victim, static_cast<char*>(nullptr));
        return 127;  // exec failed
      },
      std::chrono::seconds(3));
}

TrialResult RunVictim(const std::string& history) {
  return RunVictimBinary(VICTIM_PATH, history);
}

TEST(PreloadTest, UnmodifiedBinaryAcquiresImmunity) {
  ASSERT_TRUE(std::filesystem::exists(PRELOAD_SO_PATH));
  ASSERT_TRUE(std::filesystem::exists(VICTIM_PATH));
  const std::string history =
      (std::filesystem::temp_directory_path() /
       ("preload_" + std::to_string(::getpid()) + ".hist"))
          .string();
  persist::RemoveHistoryFiles(history);

  // Run 1: the victim deadlocks; the shim's monitor captures the signature
  // before the harness kills the process.
  TrialResult first = RunVictim(history);
  EXPECT_TRUE(first.deadlocked) << "victim should deadlock on first run";
  EXPECT_TRUE(std::filesystem::exists(history)) << "signature must be persisted";

  // Run 2: same binary, same command — now immune.
  TrialResult second = RunVictim(history);
  EXPECT_TRUE(second.completed) << "immunized victim must complete";
  EXPECT_EQ(second.exit_code, 0);
  persist::RemoveHistoryFiles(history);
}

TEST(PreloadTest, UnmodifiedRwlockBinaryAcquiresImmunity) {
  // Same protocol as above, but the victim deadlocks through
  // pthread_rwlock_{wrlock,rdlock}: writer-vs-writer through a reader. The
  // shim's rwlock wrappers run the acquisition port in the right mode, so
  // the shared/exclusive cycle is detected, persisted, and avoided.
  ASSERT_TRUE(std::filesystem::exists(PRELOAD_SO_PATH));
  ASSERT_TRUE(std::filesystem::exists(RWLOCK_VICTIM_PATH));
  const std::string history =
      (std::filesystem::temp_directory_path() /
       ("preload_rwlock_" + std::to_string(::getpid()) + ".hist"))
          .string();
  persist::RemoveHistoryFiles(history);

  TrialResult first = RunVictimBinary(RWLOCK_VICTIM_PATH, history);
  EXPECT_TRUE(first.deadlocked) << "rwlock victim should deadlock on first run";
  EXPECT_TRUE(std::filesystem::exists(history)) << "signature must be persisted";

  TrialResult second = RunVictimBinary(RWLOCK_VICTIM_PATH, history);
  EXPECT_TRUE(second.completed) << "immunized rwlock victim must complete";
  EXPECT_EQ(second.exit_code, 0);
  persist::RemoveHistoryFiles(history);
}

// Raw one-shot control client (mirrors dimctl's protocol).
std::string ControlQuery(const std::string& socket_path, const std::string& line) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return "<path too long>";
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return "<socket failed>";
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "<connect failed>";
  }
  const std::string request = line + "\n";
  (void)!::write(fd, request.data(), request.size());
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(PreloadTest, CondWaitReleasesTheMutexInTheEngine) {
  // Regression for the pthread_cond_wait interposition: while the victim's
  // waiter thread is parked inside cond_wait, the mutex it entered with is
  // factually released — the engine (via `rag` over the control socket)
  // must NOT credit any thread with it. Without the wrapper the
  // phantom hold stays for the whole wait.
  ASSERT_TRUE(std::filesystem::exists(PRELOAD_SO_PATH));
  ASSERT_TRUE(std::filesystem::exists(CONDVAR_VICTIM_PATH));
  const std::string stem = (std::filesystem::temp_directory_path() /
                            ("condvar_" + std::to_string(::getpid())))
                               .string();
  const std::string socket_path = stem + ".sock";
  const std::string out_path = stem + ".out";
  std::filesystem::remove(socket_path);
  std::filesystem::remove(out_path);

  const pid_t child = ::fork();
  if (child == 0) {
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(out, STDOUT_FILENO);
    setenv("LD_PRELOAD", PRELOAD_SO_PATH, 1);
    setenv("DIMMUNIX_CONTROL", socket_path.c_str(), 1);
    setenv("DIMMUNIX_TAU_MS", "20", 1);
    execl(CONDVAR_VICTIM_PATH, CONDVAR_VICTIM_PATH, static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // The victim prints its mutex's LockId, then keeps the waiter parked in
  // pthread_cond_wait for ~700 ms.
  std::string lock_id;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lock_id.empty() && std::chrono::steady_clock::now() < deadline) {
    std::ifstream out(out_path);
    std::string line;
    while (std::getline(out, line)) {
      if (line.rfind("mutex_lock_id=", 0) == 0) {
        lock_id = line.substr(std::strlen("mutex_lock_id="));
      }
    }
    if (lock_id.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_FALSE(lock_id.empty()) << "victim never reported its mutex id";
  // Give the waiter time to lock the mutex and park inside cond_wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  std::string rag;
  for (int attempt = 0; attempt < 50; ++attempt) {
    rag = ControlQuery(socket_path, "rag");
    if (rag.rfind("ok\n", 0) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(rag.rfind("ok\n", 0), 0u) << rag;
  EXPECT_EQ(rag.find("held_locks=" + lock_id), std::string::npos)
      << "waiter parked in cond_wait must not be credited with the mutex:\n"
      << rag;
  EXPECT_EQ(rag.find(lock_id + ":X"), std::string::npos)
      << "no thread may hold the mutex during the wait:\n"
      << rag;

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::ifstream out(out_path);
  std::stringstream content;
  content << out.rdbuf();
  EXPECT_NE(content.str().find("completed without deadlock"), std::string::npos)
      << "the signal/reacquire path must still work under interposition";
  std::filesystem::remove(socket_path);
  std::filesystem::remove(out_path);
}

TEST(PreloadTest, RobustMutexOwnerDeathRecoversUnderTheShim) {
  // Regression for EOWNERDEAD handling: the victim's holder dies (a thread
  // exits holding a robust mutex; a forked child SIGKILLs itself holding a
  // robust+pshared one). The next lock returns EOWNERDEAD — a *successful*
  // acquisition. The wrapper must commit it, reap the corpse's engine-side
  // hold, and hand EOWNERDEAD through unchanged so the app can run
  // pthread_mutex_consistent. A leaked hold would make the victim's relock
  // hang until the 3 s harness timeout reports a deadlock.
  ASSERT_TRUE(std::filesystem::exists(PRELOAD_SO_PATH));
  ASSERT_TRUE(std::filesystem::exists(ROBUST_VICTIM_PATH));
  const std::string history =
      (std::filesystem::temp_directory_path() /
       ("preload_robust_" + std::to_string(::getpid()) + ".hist"))
          .string();
  persist::RemoveHistoryFiles(history);

  TrialResult result = RunVictimBinary(ROBUST_VICTIM_PATH, history);
  EXPECT_TRUE(result.completed) << "robust victim must complete under the shim";
  EXPECT_EQ(result.exit_code, 0);
  persist::RemoveHistoryFiles(history);

  // Control: the same binary without the shim behaves identically, i.e. the
  // victim itself is a valid robust-mutex program, not a shim artifact.
  TrialResult bare = RunTrial(
      [&] {
        unsetenv("LD_PRELOAD");
        execl(ROBUST_VICTIM_PATH, ROBUST_VICTIM_PATH, static_cast<char*>(nullptr));
        return 127;
      },
      std::chrono::seconds(3));
  EXPECT_TRUE(bare.completed);
  EXPECT_EQ(bare.exit_code, 0);
}

TEST(PreloadTest, ShimIsHarmlessOnDeadlockFreePrograms) {
  // /bin/true under the shim: loads, runs, exits 0.
  TrialResult result = RunTrial(
      [&] {
        setenv("LD_PRELOAD", PRELOAD_SO_PATH, 1);
        execl("/bin/true", "/bin/true", static_cast<char*>(nullptr));
        return 127;
      },
      std::chrono::seconds(3));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.exit_code, 0);
}

}  // namespace
}  // namespace dimmunix
