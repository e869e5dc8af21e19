// Copyright (c) dimmunix-cpp authors. MIT license.
//
// robust_victim — robust-mutex death recovery with NO Dimmunix linkage,
// exercised under the LD_PRELOAD shim. Two phases:
//
//   phase 1 (in-process): a thread exits while holding a
//   PTHREAD_MUTEX_ROBUST mutex. The main thread's next lock returns
//   EOWNERDEAD; it repairs the state with pthread_mutex_consistent and
//   carries on. Under the shim, the corpse's engine-side hold must be
//   reaped at that moment or the lock stays "held" forever in the
//   avoidance engine.
//
//   phase 2 (cross-process): a forked child SIGKILLs itself while holding
//   a PTHREAD_MUTEX_ROBUST + PTHREAD_PROCESS_SHARED mutex in a MAP_SHARED
//   segment. The parent's lock returns EOWNERDEAD and recovers the same
//   way (the dead process's mirrored holds are the IPC arena sweep's job,
//   not the wrapper's).
//
// Prints "robust recovery ok" and exits 0 only if both phases observe
// EOWNERDEAD, repair, relock, and release cleanly.

#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace {

int InitRobustMutex(pthread_mutex_t* mutex, bool pshared) {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setrobust(&attr, PTHREAD_MUTEX_ROBUST);
  if (pshared) {
    pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  }
  const int rc = pthread_mutex_init(mutex, &attr);
  pthread_mutexattr_destroy(&attr);
  return rc;
}

pthread_mutex_t g_local;

void* DieHolding(void*) {
  pthread_mutex_lock(&g_local);
  return nullptr;  // thread exits still holding g_local
}

// Returns 0 on clean EOWNERDEAD -> consistent -> unlock -> relock -> unlock.
int RecoverCycle(pthread_mutex_t* mutex, const char* phase) {
  int rc = pthread_mutex_lock(mutex);
  if (rc != EOWNERDEAD) {
    std::fprintf(stderr, "%s: expected EOWNERDEAD, got %d\n", phase, rc);
    return 1;
  }
  if ((rc = pthread_mutex_consistent(mutex)) != 0) {
    std::fprintf(stderr, "%s: pthread_mutex_consistent: %d\n", phase, rc);
    return 1;
  }
  pthread_mutex_unlock(mutex);
  // The mutex must be fully usable again — and under the shim, the engine
  // must agree it is free (a leaked corpse hold would leave it owned).
  if ((rc = pthread_mutex_lock(mutex)) != 0) {
    std::fprintf(stderr, "%s: relock after recovery: %d\n", phase, rc);
    return 1;
  }
  pthread_mutex_unlock(mutex);
  return 0;
}

int PhaseLocalThread() {
  if (InitRobustMutex(&g_local, /*pshared=*/false) != 0) {
    return 1;
  }
  pthread_t thread;
  pthread_create(&thread, nullptr, DieHolding, nullptr);
  pthread_join(thread, nullptr);
  return RecoverCycle(&g_local, "phase1");
}

int PhaseKilledProcess() {
  void* mem = mmap(nullptr, sizeof(pthread_mutex_t), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    return 1;
  }
  pthread_mutex_t* mutex = static_cast<pthread_mutex_t*>(mem);
  if (InitRobustMutex(mutex, /*pshared=*/true) != 0) {
    return 1;
  }
  const pid_t child = fork();
  if (child < 0) {
    return 1;
  }
  if (child == 0) {
    pthread_mutex_lock(mutex);
    raise(SIGKILL);  // die mid-critical-section, no unlock, no cleanup
    _exit(9);        // unreachable
  }
  int status = 0;
  waitpid(child, &status, 0);
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
    std::fprintf(stderr, "phase2: child did not die by SIGKILL\n");
    return 1;
  }
  return RecoverCycle(mutex, "phase2");
}

}  // namespace

int main() {
  if (PhaseLocalThread() != 0) {
    return 1;
  }
  if (PhaseKilledProcess() != 0) {
    return 2;
  }
  std::printf("robust recovery ok\n");
  return 0;
}
