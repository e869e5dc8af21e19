// Copyright (c) dimmunix-cpp authors. MIT license.
//
// condvar_victim — regression vehicle for the shim's pthread_cond_wait
// interposition. A waiter thread blocks in pthread_cond_wait (which
// releases the mutex inside the call); the main thread signals it after a
// fixed window. The integration test runs this under LD_PRELOAD with a
// control socket and asserts — via `rag` — that NO thread is credited with
// the mutex while the waiter is parked: without the cond_wait wrapper the
// engine keeps the phantom hold for the whole wait.
//
// The mutex address is printed as the engine's LockId so the test can
// target its hold edges precisely.

#include <pthread.h>
#include <unistd.h>

#include <cstdio>

namespace {

pthread_mutex_t g_m = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t g_cv = PTHREAD_COND_INITIALIZER;
bool g_signaled = false;

void* Waiter(void*) {
  pthread_mutex_lock(&g_m);
  while (!g_signaled) {
    pthread_cond_wait(&g_cv, &g_m);  // releases g_m while parked
  }
  pthread_mutex_unlock(&g_m);
  return nullptr;
}

}  // namespace

int main() {
  std::printf("mutex_lock_id=%llu\n", static_cast<unsigned long long>(
                                          reinterpret_cast<unsigned long>(&g_m)));
  std::fflush(stdout);
  pthread_t waiter;
  pthread_create(&waiter, nullptr, Waiter, nullptr);
  // Window for the test to snapshot the RAG while the waiter is parked
  // inside pthread_cond_wait.
  usleep(700 * 1000);
  pthread_mutex_lock(&g_m);
  g_signaled = true;
  pthread_cond_signal(&g_cv);
  pthread_mutex_unlock(&g_m);
  pthread_join(waiter, nullptr);
  std::printf("completed without deadlock\n");
  return 0;
}
