// Copyright (c) dimmunix-cpp authors. MIT license.
//
// LD_PRELOAD pthread interposition — the "modified thread library" form of
// Dimmunix (§6) for unmodified Linux binaries:
//
//   LD_PRELOAD=libdimmunix_preload.so DIMMUNIX_HISTORY=app.hist ./app
//
// pthread_mutex_{lock,trylock,timedlock,unlock} and
// pthread_rwlock_{rdlock,tryrdlock,timedrdlock,wrlock,trywrlock,timedwrlock,
// unlock} are wrapped with the avoidance protocol through the acquisition
// port (src/core/acquire.h): every wrapper is a thin adapter that runs
// Runtime::BeginAcquire / TryBeginAcquire in the right AcquireMode
// (exclusive for mutexes and write locks, shared for read locks), calls the
// real pthread function, and settles the AcquireOp with Commit or Cancel.
// rwlock_unlock releases by lock identity alone — the thread's hold record
// in the engine knows which side it holds. Call stacks come from backtrace()
// with module-relative offsets, so signatures survive ASLR and re-runs.
// The engine's own internal synchronization (std::mutex, condvars) also
// reaches these symbols, so a thread-local reentrancy guard routes internal
// calls straight to the real implementation.
//
// Unlike the library form (src/sync), a blocked pthread acquisition cannot
// be cancelled — like the paper's NPTL implementation, recovery from an
// actual deadlock is restart-based; the value added is detection +
// signature persistence + avoidance on the next run.
//
// Setting DIMMUNIX_CONTROL=/path.sock additionally opens the control socket
// (src/control): Runtime::Global() is built from Config::FromEnvironment(),
// so a preloaded, unmodified binary can be driven live with `dimctl`
// (status / history / disable-last / reload / ...), which is the only way to
// reach those operations in this deployment mode.
//
// Cross-process immunity (DIMMUNIX_IPC set): acquisitions are classified at
// lock time. A PTHREAD_PROCESS_SHARED mutex/rwlock (glibc __kind/__shared
// inspection, plus the attr registry filled by interposed *_init) gets a
// stable cross-process LockId derived from its shared-memory backing
// (src/ipc/global_id.h) instead of its — per-process — address. flock(2)
// and fcntl(F_SETLK/F_SETLKW) byte-range locks are additionally interposed
// as exclusive/shared acquisitions of dev:inode:offset-identified global
// locks. fcntl OFD commands pass through untouched (the persistence layer
// itself locks history files with them).
//
// pthread_cond_wait/pthread_cond_timedwait are wrapped so the implicit
// mutex release and re-acquisition inside the wait keep the engine's owner
// map in step: EndRelease before the real call, and a nonblocking
// TryBeginAcquire + Commit after it (Commit records the hold in every
// decision state — the thread factually owns the mutex when the wait
// returns, and re-running the blocking protocol there could park a thread
// that already holds the lock).

#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <stdarg.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <unordered_set>

#include <cerrno>

#include "src/common/spin_lock.h"
#include "src/core/global_port.h"
#include "src/core/runtime.h"
#include "src/ipc/global_id.h"

namespace {

using MutexFn = int (*)(pthread_mutex_t*);
using MutexTimedFn = int (*)(pthread_mutex_t*, const struct timespec*);
using RwlockFn = int (*)(pthread_rwlock_t*);
using RwlockTimedFn = int (*)(pthread_rwlock_t*, const struct timespec*);
using MutexInitFn = int (*)(pthread_mutex_t*, const pthread_mutexattr_t*);
using RwlockInitFn = int (*)(pthread_rwlock_t*, const pthread_rwlockattr_t*);
using CondWaitFn = int (*)(pthread_cond_t*, pthread_mutex_t*);
using CondTimedWaitFn = int (*)(pthread_cond_t*, pthread_mutex_t*, const struct timespec*);
using FlockFn = int (*)(int, int);
using FcntlFn = int (*)(int, int, void*);
using MunmapFn = int (*)(void*, size_t);
using CloseFn = int (*)(int);
using Dup2Fn = int (*)(int, int);
using Dup3Fn = int (*)(int, int, int);

MutexFn real_lock = nullptr;
MutexFn real_trylock = nullptr;
MutexFn real_unlock = nullptr;
MutexTimedFn real_timedlock = nullptr;

RwlockFn real_rdlock = nullptr;
RwlockFn real_tryrdlock = nullptr;
RwlockFn real_wrlock = nullptr;
RwlockFn real_trywrlock = nullptr;
RwlockFn real_rwunlock = nullptr;
RwlockTimedFn real_timedrdlock = nullptr;
RwlockTimedFn real_timedwrlock = nullptr;

MutexInitFn real_mutex_init = nullptr;
RwlockInitFn real_rwlock_init = nullptr;
CondWaitFn real_cond_wait = nullptr;
CondTimedWaitFn real_cond_timedwait = nullptr;
FlockFn real_flock = nullptr;
FcntlFn real_fcntl = nullptr;
MunmapFn real_munmap = nullptr;
CloseFn real_close = nullptr;
Dup2Fn real_dup2 = nullptr;
Dup3Fn real_dup3 = nullptr;

std::atomic<bool> initialized{false};
// Set while this thread is inside a wrapper (or inside runtime
// construction): nested pthread_mutex_*/pthread_rwlock_* calls go straight
// through.
thread_local bool tls_in_hook = false;

void ResolveReal() {
  real_lock = reinterpret_cast<MutexFn>(dlsym(RTLD_NEXT, "pthread_mutex_lock"));
  real_trylock = reinterpret_cast<MutexFn>(dlsym(RTLD_NEXT, "pthread_mutex_trylock"));
  real_unlock = reinterpret_cast<MutexFn>(dlsym(RTLD_NEXT, "pthread_mutex_unlock"));
  real_timedlock = reinterpret_cast<MutexTimedFn>(dlsym(RTLD_NEXT, "pthread_mutex_timedlock"));
  real_rdlock = reinterpret_cast<RwlockFn>(dlsym(RTLD_NEXT, "pthread_rwlock_rdlock"));
  real_tryrdlock = reinterpret_cast<RwlockFn>(dlsym(RTLD_NEXT, "pthread_rwlock_tryrdlock"));
  real_wrlock = reinterpret_cast<RwlockFn>(dlsym(RTLD_NEXT, "pthread_rwlock_wrlock"));
  real_trywrlock = reinterpret_cast<RwlockFn>(dlsym(RTLD_NEXT, "pthread_rwlock_trywrlock"));
  real_rwunlock = reinterpret_cast<RwlockFn>(dlsym(RTLD_NEXT, "pthread_rwlock_unlock"));
  real_timedrdlock =
      reinterpret_cast<RwlockTimedFn>(dlsym(RTLD_NEXT, "pthread_rwlock_timedrdlock"));
  real_timedwrlock =
      reinterpret_cast<RwlockTimedFn>(dlsym(RTLD_NEXT, "pthread_rwlock_timedwrlock"));
  real_mutex_init = reinterpret_cast<MutexInitFn>(dlsym(RTLD_NEXT, "pthread_mutex_init"));
  real_rwlock_init = reinterpret_cast<RwlockInitFn>(dlsym(RTLD_NEXT, "pthread_rwlock_init"));
  real_cond_wait = reinterpret_cast<CondWaitFn>(dlsym(RTLD_NEXT, "pthread_cond_wait"));
  real_cond_timedwait =
      reinterpret_cast<CondTimedWaitFn>(dlsym(RTLD_NEXT, "pthread_cond_timedwait"));
  real_flock = reinterpret_cast<FlockFn>(dlsym(RTLD_NEXT, "flock"));
  real_fcntl = reinterpret_cast<FcntlFn>(dlsym(RTLD_NEXT, "fcntl64"));
  if (real_fcntl == nullptr) {
    real_fcntl = reinterpret_cast<FcntlFn>(dlsym(RTLD_NEXT, "fcntl"));
  }
  real_munmap = reinterpret_cast<MunmapFn>(dlsym(RTLD_NEXT, "munmap"));
  real_close = reinterpret_cast<CloseFn>(dlsym(RTLD_NEXT, "close"));
  real_dup2 = reinterpret_cast<Dup2Fn>(dlsym(RTLD_NEXT, "dup2"));
  real_dup3 = reinterpret_cast<Dup3Fn>(dlsym(RTLD_NEXT, "dup3"));
}

__attribute__((constructor)) void PreloadInit() {
  ResolveReal();
  initialized.store(true, std::memory_order_release);
}

// fork() from a threaded host copies the runtime's spin locks as the other
// threads left them. A forked child's first lock operation always interns a
// new stack, so a stack-table lock held by a monitor, health or store thread
// at the fork would make that child spin forever.
void ForkPrepare() { dimmunix::Runtime::Global().stacks().LockForFork(); }
void ForkRelease() { dimmunix::Runtime::Global().stacks().UnlockAfterFork(); }

dimmunix::Runtime* TryRuntime() {
  if (!initialized.load(std::memory_order_acquire) || tls_in_hook) {
    return nullptr;
  }
  tls_in_hook = true;
  dimmunix::Runtime* runtime = &dimmunix::Runtime::Global();
  // Registered once the runtime exists, so the handlers never construct it.
  static const bool fork_handlers = pthread_atfork(ForkPrepare, ForkRelease, ForkRelease) == 0;
  (void)fork_handlers;
  tls_in_hook = false;
  return runtime;
}

// --- Global-lock classification ---------------------------------------------
//
// Registry of lock objects whose interposed *_init saw a
// PTHREAD_PROCESS_SHARED attribute. Works on any libc, but only in the
// process that ran the init; the glibc field checks below classify shm
// objects initialized elsewhere too.

dimmunix::SpinLock& PsharedRegistryLock() {
  static dimmunix::SpinLock lock;
  return lock;
}

std::unordered_set<const void*>& PsharedRegistry() {
  static auto* set = new std::unordered_set<const void*>();
  return *set;
}

void PsharedRegister(const void* object) {
  std::lock_guard<dimmunix::SpinLock> guard(PsharedRegistryLock());
  PsharedRegistry().insert(object);
}

[[maybe_unused]] bool PsharedContains(const void* object) {
  std::lock_guard<dimmunix::SpinLock> guard(PsharedRegistryLock());
  return PsharedRegistry().count(object) > 0;
}

bool IsProcessSharedMutex(const pthread_mutex_t* mutex) {
#if defined(__GLIBC__)
  // glibc encodes pshared as PTHREAD_MUTEX_PSHARED_BIT (128) in __kind —
  // visible in every process mapping the shm segment, not just the
  // initializer, so the field is authoritative and the classification is
  // one load + bit test. The registry is NOT consulted here: probing a
  // global spinlock on every private-mutex operation would put a
  // serialization point back on the interposed hot path.
  return (mutex->__data.__kind & 128) != 0;
#else
  return PsharedContains(mutex);
#endif
}

bool IsProcessSharedRwlock(const pthread_rwlock_t* rwlock) {
#if defined(__GLIBC__)
  return rwlock->__data.__shared != 0;
#else
  return PsharedContains(rwlock);
#endif
}

// The engine-facing identity: global locks use their shared-memory backing
// (same id in every process), local locks their address.
dimmunix::LockId MutexLockId(pthread_mutex_t* mutex) {
  if (IsProcessSharedMutex(mutex)) {
    return dimmunix::ipc::GlobalIdForSharedAddress(mutex);
  }
  return reinterpret_cast<dimmunix::LockId>(mutex);
}

dimmunix::LockId RwlockLockId(pthread_rwlock_t* rwlock) {
  if (IsProcessSharedRwlock(rwlock)) {
    return dimmunix::ipc::GlobalIdForSharedAddress(rwlock);
  }
  return reinterpret_cast<dimmunix::LockId>(rwlock);
}

// Shared adapter bodies: every wrapper is the same protocol run, modulo the
// real function to call and the acquisition mode.

// A robust mutex returning EOWNERDEAD *is* an acquisition: the previous
// owner died holding it and the kernel handed it to us with the state
// flagged inconsistent. Without this, the corpse's hold tuple would sit in
// the engine's Allowed sets forever and every later waiter on this lock
// would appear to close a cycle through a dead thread. The corpse is released
// here only when it is a local registry thread — a dead *process*'s holds
// on a pshared mutex are mirrored as foreign synthetic threads and
// reclaimed by the IPC arena's liveness sweep, and reaping them twice
// would race with it.
void ReleaseCorpseHold(dimmunix::Runtime* runtime, dimmunix::LockId id) {
  const dimmunix::ThreadId owner = runtime->engine().LockOwner(id);
  if (owner == dimmunix::kInvalidThreadId || dimmunix::IsForeignThreadId(owner)) {
    return;
  }
  runtime->engine().Release(owner, id);
}

// The post-block step of every wrapper, given the real call's result. A
// pthread acquisition cannot be cancelled, so the real lock can succeed
// even after a kBroken grant rollback — Commit records the hold in every
// decision state, and Cancel is a no-op unless a kGo edge is standing.
// EOWNERDEAD and 0 both mean "caller now owns the lock" (the caller is
// expected to repair the state and call pthread_mutex_consistent; either
// way the hold is real and must be recorded).
int Settle(dimmunix::Runtime* runtime, dimmunix::AcquireOp& op, dimmunix::LockId id, int rc) {
  tls_in_hook = true;
  if (rc == 0 || rc == EOWNERDEAD) {
    if (rc == EOWNERDEAD) {
      ReleaseCorpseHold(runtime, id);
    }
    op.Commit();
  } else {
    op.Cancel();  // busy or timed out: the §6 cancel event
  }
  tls_in_hook = false;
  return rc;
}

template <typename Primitive>
int BlockingAcquire(dimmunix::Runtime* runtime, Primitive* primitive, dimmunix::LockId id,
                    int (*real)(Primitive*), dimmunix::AcquireMode mode) {
  tls_in_hook = true;
  dimmunix::AcquireOp op = runtime->BeginAcquire(id, mode);
  tls_in_hook = false;
  return Settle(runtime, op, id, real(primitive));
}

template <typename Primitive>
int NonblockingAcquire(dimmunix::Runtime* runtime, Primitive* primitive, dimmunix::LockId id,
                       int (*real)(Primitive*), dimmunix::AcquireMode mode) {
  tls_in_hook = true;
  dimmunix::AcquireOp op = runtime->TryBeginAcquire(id, mode);
  if (!op.Granted()) {
    tls_in_hook = false;
    return EBUSY;  // dangerous pattern: report contention instead
  }
  tls_in_hook = false;
  return Settle(runtime, op, id, real(primitive));
}

// pthread timed locks take a CLOCK_REALTIME absolute time; the engine's
// yield deadline is monotonic. Convert by remaining duration so an
// avoidance yield cannot outlive the caller's deadline.
dimmunix::MonoTime MonoDeadlineFrom(const struct timespec* abstime) {
  struct timespec now_rt {};
  clock_gettime(CLOCK_REALTIME, &now_rt);
  const auto remaining = std::chrono::seconds(abstime->tv_sec - now_rt.tv_sec) +
                         std::chrono::nanoseconds(abstime->tv_nsec - now_rt.tv_nsec);
  return dimmunix::Now() + std::chrono::duration_cast<dimmunix::Duration>(
                               std::max(remaining, decltype(remaining)::zero()));
}

template <typename Primitive>
int TimedAcquire(dimmunix::Runtime* runtime, Primitive* primitive, dimmunix::LockId id,
                 int (*real)(Primitive*, const struct timespec*), const struct timespec* abstime,
                 dimmunix::AcquireMode mode) {
  tls_in_hook = true;
  dimmunix::AcquireOp op = runtime->BeginAcquire(id, mode, MonoDeadlineFrom(abstime));
  tls_in_hook = false;
  return Settle(runtime, op, id, real(primitive, abstime));
}

template <typename Primitive>
int InstrumentedRelease(dimmunix::Runtime* runtime, Primitive* primitive, dimmunix::LockId id,
                        int (*real)(Primitive*)) {
  tls_in_hook = true;
  runtime->EndRelease(id);
  tls_in_hook = false;
  return real(primitive);
}

}  // namespace

// --- pthread_mutex_* ---------------------------------------------------------

extern "C" int pthread_mutex_lock(pthread_mutex_t* mutex) {
  if (real_lock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_lock(mutex);
  }
  return BlockingAcquire(runtime, mutex, MutexLockId(mutex), real_lock,
                         dimmunix::AcquireMode::kExclusive);
}

extern "C" int pthread_mutex_trylock(pthread_mutex_t* mutex) {
  if (real_trylock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_trylock(mutex);
  }
  return NonblockingAcquire(runtime, mutex, MutexLockId(mutex), real_trylock,
                            dimmunix::AcquireMode::kExclusive);
}

extern "C" int pthread_mutex_timedlock(pthread_mutex_t* mutex, const struct timespec* abstime) {
  if (real_timedlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_timedlock(mutex, abstime);
  }
  return TimedAcquire(runtime, mutex, MutexLockId(mutex), real_timedlock, abstime,
                      dimmunix::AcquireMode::kExclusive);
}

extern "C" int pthread_mutex_unlock(pthread_mutex_t* mutex) {
  if (real_unlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_unlock(mutex);
  }
  return InstrumentedRelease(runtime, mutex, MutexLockId(mutex), real_unlock);
}

// --- pthread_rwlock_* --------------------------------------------------------

extern "C" int pthread_rwlock_rdlock(pthread_rwlock_t* rwlock) {
  if (real_rdlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_rdlock(rwlock);
  }
  return BlockingAcquire(runtime, rwlock, RwlockLockId(rwlock), real_rdlock,
                         dimmunix::AcquireMode::kShared);
}

extern "C" int pthread_rwlock_tryrdlock(pthread_rwlock_t* rwlock) {
  if (real_tryrdlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_tryrdlock(rwlock);
  }
  return NonblockingAcquire(runtime, rwlock, RwlockLockId(rwlock), real_tryrdlock,
                            dimmunix::AcquireMode::kShared);
}

extern "C" int pthread_rwlock_timedrdlock(pthread_rwlock_t* rwlock,
                                          const struct timespec* abstime) {
  if (real_timedrdlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_timedrdlock(rwlock, abstime);
  }
  return TimedAcquire(runtime, rwlock, RwlockLockId(rwlock), real_timedrdlock, abstime,
                      dimmunix::AcquireMode::kShared);
}

extern "C" int pthread_rwlock_wrlock(pthread_rwlock_t* rwlock) {
  if (real_wrlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_wrlock(rwlock);
  }
  return BlockingAcquire(runtime, rwlock, RwlockLockId(rwlock), real_wrlock,
                         dimmunix::AcquireMode::kExclusive);
}

extern "C" int pthread_rwlock_trywrlock(pthread_rwlock_t* rwlock) {
  if (real_trywrlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_trywrlock(rwlock);
  }
  return NonblockingAcquire(runtime, rwlock, RwlockLockId(rwlock), real_trywrlock,
                            dimmunix::AcquireMode::kExclusive);
}

extern "C" int pthread_rwlock_timedwrlock(pthread_rwlock_t* rwlock,
                                          const struct timespec* abstime) {
  if (real_timedwrlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_timedwrlock(rwlock, abstime);
  }
  return TimedAcquire(runtime, rwlock, RwlockLockId(rwlock), real_timedwrlock, abstime,
                      dimmunix::AcquireMode::kExclusive);
}

extern "C" int pthread_rwlock_unlock(pthread_rwlock_t* rwlock) {
  if (real_rwunlock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_rwunlock(rwlock);
  }
  return InstrumentedRelease(runtime, rwlock, RwlockLockId(rwlock), real_rwunlock);
}

// --- pthread_*_init (PTHREAD_PROCESS_SHARED classification) ------------------

extern "C" int pthread_mutex_init(pthread_mutex_t* mutex, const pthread_mutexattr_t* attr) {
  if (real_mutex_init == nullptr) {
    ResolveReal();
  }
  if (attr != nullptr) {
    int pshared = PTHREAD_PROCESS_PRIVATE;
    if (pthread_mutexattr_getpshared(attr, &pshared) == 0 &&
        pshared == PTHREAD_PROCESS_SHARED) {
      PsharedRegister(mutex);
    }
  }
  return real_mutex_init(mutex, attr);
}

extern "C" int pthread_rwlock_init(pthread_rwlock_t* rwlock, const pthread_rwlockattr_t* attr) {
  if (real_rwlock_init == nullptr) {
    ResolveReal();
  }
  if (attr != nullptr) {
    int pshared = PTHREAD_PROCESS_PRIVATE;
    if (pthread_rwlockattr_getpshared(attr, &pshared) == 0 &&
        pshared == PTHREAD_PROCESS_SHARED) {
      PsharedRegister(rwlock);
    }
  }
  return real_rwlock_init(rwlock, attr);
}

// --- pthread_cond_wait / pthread_cond_timedwait ------------------------------
//
// The wait atomically releases the mutex and re-acquires it before
// returning. Without interposition the engine keeps crediting the waiter
// with the mutex for the whole wait — a phantom hold edge that
// corrupts cycle detection and signature instantiation. The adapter models
// the release up front and records the re-acquisition afterwards;
// Commit() is legal in every decision state precisely for uncancellable
// adapters like this one (the thread really holds the mutex by then).

extern "C" int pthread_cond_wait(pthread_cond_t* cond, pthread_mutex_t* mutex) {
  if (real_cond_wait == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_cond_wait(cond, mutex);
  }
  const dimmunix::LockId id = MutexLockId(mutex);
  tls_in_hook = true;
  runtime->EndRelease(id);
  tls_in_hook = false;
  const int rc = real_cond_wait(cond, mutex);
  tls_in_hook = true;
  dimmunix::AcquireOp op = runtime->TryBeginAcquire(id, dimmunix::AcquireMode::kExclusive);
  op.Commit();
  tls_in_hook = false;
  return rc;
}

extern "C" int pthread_cond_timedwait(pthread_cond_t* cond, pthread_mutex_t* mutex,
                                      const struct timespec* abstime) {
  if (real_cond_timedwait == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_cond_timedwait(cond, mutex, abstime);
  }
  const dimmunix::LockId id = MutexLockId(mutex);
  tls_in_hook = true;
  runtime->EndRelease(id);
  tls_in_hook = false;
  const int rc = real_cond_timedwait(cond, mutex, abstime);
  tls_in_hook = true;
  // The mutex is re-acquired on success AND on ETIMEDOUT; record the hold
  // unconditionally (harmless no-op rebalance on EINVAL-style failures).
  dimmunix::AcquireOp op = runtime->TryBeginAcquire(id, dimmunix::AcquireMode::kExclusive);
  op.Commit();
  tls_in_hook = false;
  return rc;
}

// --- flock(2) ----------------------------------------------------------------
//
// Whole-file advisory locks: LOCK_EX/LOCK_SH acquire (exclusive/shared) a
// global lock identified by the file's dev:inode; LOCK_UN releases it. A
// conversion (SH -> EX on the same fd) runs the full protocol as an
// upgrade, like an rwlock upgrade.

extern "C" int flock(int fd, int operation) {
  if (real_flock == nullptr) {
    ResolveReal();
  }
  dimmunix::Runtime* runtime = TryRuntime();
  if (runtime == nullptr) {
    return real_flock(fd, operation);
  }
  const int op_kind = operation & (LOCK_SH | LOCK_EX | LOCK_UN);
  const dimmunix::LockId id =
      dimmunix::ipc::GlobalIdForFileLock(fd, dimmunix::ipc::GlobalLockKind::kFlock, 0);
  if (id == dimmunix::kInvalidLockId) {
    return real_flock(fd, operation);  // bad fd: let the real call set errno
  }
  if (op_kind == LOCK_UN) {
    tls_in_hook = true;
    runtime->EndRelease(id);
    tls_in_hook = false;
    return real_flock(fd, operation);
  }
  if (op_kind != LOCK_SH && op_kind != LOCK_EX) {
    return real_flock(fd, operation);
  }
  const dimmunix::AcquireMode mode = op_kind == LOCK_SH ? dimmunix::AcquireMode::kShared
                                                        : dimmunix::AcquireMode::kExclusive;
  // The kernel keeps ONE flock per open file description: re-locking
  // converts (replacing the old lock) rather than stacking. Retire any
  // hold the engine credits us with before the new acquisition, so a
  // single LOCK_UN never leaves a phantom reentrant hold — and restore it
  // if the conversion fails, because a failed conversion keeps the old
  // kernel lock and the engine must not go blind to it.
  tls_in_hook = true;
  const dimmunix::ThreadId self = runtime->RegisterCurrentThread();
  const std::optional<dimmunix::AcquireMode> held_mode = runtime->engine().HeldMode(self, id);
  const bool converting = held_mode.has_value();
  if (converting) {
    runtime->EndRelease(id);
  }
  tls_in_hook = false;
  const auto restore_hold = [&] {
    if (!converting) {
      return;
    }
    tls_in_hook = true;
    dimmunix::AcquireOp keep = runtime->TryBeginAcquire(id, *held_mode);
    keep.Commit();  // legal in any decision state: we factually still hold it
    tls_in_hook = false;
  };
  const bool nonblocking = (operation & LOCK_NB) != 0;
  tls_in_hook = true;
  dimmunix::AcquireOp op =
      nonblocking ? runtime->TryBeginAcquire(id, mode) : runtime->BeginAcquire(id, mode);
  tls_in_hook = false;
  if (nonblocking && !op.Granted()) {
    restore_hold();
    errno = EWOULDBLOCK;  // dangerous pattern: report contention instead
    return -1;
  }
  const int rc = Settle(runtime, op, id, real_flock(fd, operation));
  if (rc != 0) {
    restore_hold();
  }
  return rc;
}

// --- fcntl(F_SETLK / F_SETLKW) -----------------------------------------------
//
// POSIX record locks: the global identity is dev:inode plus the range
// start. Only the classic per-process commands are instrumented; OFD
// commands (F_OFD_*) pass through — the persistence layer uses them on
// history files, and their orthogonal ownership semantics would double-
// count holds. Other fcntl commands forward their argument untouched.

int FcntlLock(dimmunix::Runtime* runtime, int fd, int cmd, struct flock* fl) {
  const bool blocking = cmd == F_SETLKW;
  const dimmunix::LockId id = dimmunix::ipc::GlobalIdForFileLock(
      fd, dimmunix::ipc::GlobalLockKind::kFcntlRange,
      static_cast<std::uint64_t>(fl->l_start), static_cast<std::uint64_t>(fl->l_len));
  if (id == dimmunix::kInvalidLockId) {
    return real_fcntl(fd, cmd, fl);
  }
  if (fl->l_type == F_UNLCK) {
    tls_in_hook = true;
    runtime->EndRelease(id);
    tls_in_hook = false;
    return real_fcntl(fd, cmd, fl);
  }
  if (fl->l_type != F_RDLCK && fl->l_type != F_WRLCK) {
    return real_fcntl(fd, cmd, fl);
  }
  const dimmunix::AcquireMode mode =
      fl->l_type == F_RDLCK ? dimmunix::AcquireMode::kShared : dimmunix::AcquireMode::kExclusive;
  // POSIX record locks convert in place like flock: re-locking a held
  // range replaces the lock. Retire any standing hold before the new
  // acquisition, and restore it on failure — a failed conversion keeps the
  // original kernel lock.
  tls_in_hook = true;
  const dimmunix::ThreadId self = runtime->RegisterCurrentThread();
  const std::optional<dimmunix::AcquireMode> held_mode = runtime->engine().HeldMode(self, id);
  const bool converting = held_mode.has_value();
  if (converting) {
    runtime->EndRelease(id);
  }
  dimmunix::AcquireOp op =
      blocking ? runtime->BeginAcquire(id, mode) : runtime->TryBeginAcquire(id, mode);
  const auto restore_hold = [&] {
    if (!converting) {
      return;
    }
    tls_in_hook = true;
    dimmunix::AcquireOp keep = runtime->TryBeginAcquire(id, *held_mode);
    keep.Commit();  // we factually still hold the original lock
    tls_in_hook = false;
  };
  if (!blocking && !op.Granted()) {
    tls_in_hook = false;
    restore_hold();
    errno = EAGAIN;  // dangerous pattern: report contention instead
    return -1;
  }
  tls_in_hook = false;
  const int rc = Settle(runtime, op, id, real_fcntl(fd, cmd, fl));
  if (rc != 0) {
    restore_hold();
  }
  return rc;
}

// --- Global-ID cache invalidation ---------------------------------------------
//
// The per-thread global-ID caches (src/ipc/global_id.h) stay correct only
// if mapping churn and fd reuse bump their stamps. These wrappers are the
// bump sites: munmap retires cached address resolutions (the unmapped
// region's pages may be remapped to a different backing object); close,
// dup2/dup3 (which implicitly close-and-reuse their target number in one
// call), and F_DUPFD results (a fresh number that may have last been
// closed through an unwrapped path) retire cached (fd, range) resolutions.
// All run AFTER the real call and cost one atomic bump — nothing here can
// fail or block.

extern "C" int munmap(void* addr, size_t length) {
  if (real_munmap == nullptr) {
    ResolveReal();
  }
  const int rc = real_munmap(addr, length);
  if (rc == 0 && initialized.load(std::memory_order_acquire)) {
    dimmunix::ipc::InvalidateMapsCache();
  }
  return rc;
}

extern "C" int close(int fd) {
  if (real_close == nullptr) {
    ResolveReal();
  }
  const int rc = real_close(fd);
  if (initialized.load(std::memory_order_acquire)) {
    dimmunix::ipc::InvalidateFdCache(fd);  // even on failure: the fd is gone
  }
  return rc;
}

extern "C" int dup2(int oldfd, int newfd) {
  if (real_dup2 == nullptr) {
    ResolveReal();
  }
  const int rc = real_dup2(oldfd, newfd);
  if (rc >= 0 && initialized.load(std::memory_order_acquire)) {
    // newfd now refers to oldfd's file; any cached identity for the old
    // object behind this number is stale (dup2(fd, fd) bumps harmlessly).
    dimmunix::ipc::InvalidateFdCache(newfd);
  }
  return rc;
}

extern "C" int dup3(int oldfd, int newfd, int flags) {
  if (real_dup3 == nullptr) {
    ResolveReal();
  }
  const int rc = real_dup3(oldfd, newfd, flags);
  if (rc >= 0 && initialized.load(std::memory_order_acquire)) {
    dimmunix::ipc::InvalidateFdCache(newfd);
  }
  return rc;
}

namespace {

// F_DUPFD / F_DUPFD_CLOEXEC hand back a fresh descriptor number. If that
// number's last close went through an unwrapped path (raw syscall, closed
// before the shim loaded), a cached identity could still be standing for
// it — bump its generation so the next resolution re-fstats.
void InvalidateIfDupResult(int cmd, int rc) {
  if (rc >= 0 && (cmd == F_DUPFD || cmd == F_DUPFD_CLOEXEC) &&
      initialized.load(std::memory_order_acquire)) {
    dimmunix::ipc::InvalidateFdCache(rc);
  }
}

}  // namespace

extern "C" int fcntl(int fd, int cmd, ...) {
  if (real_fcntl == nullptr) {
    ResolveReal();
  }
  va_list ap;
  va_start(ap, cmd);
  void* arg = va_arg(ap, void*);
  va_end(ap);
  if (cmd == F_SETLK || cmd == F_SETLKW) {
    dimmunix::Runtime* runtime = TryRuntime();
    if (runtime != nullptr && arg != nullptr) {
      return FcntlLock(runtime, fd, cmd, static_cast<struct flock*>(arg));
    }
  }
  const int rc = real_fcntl(fd, cmd, arg);
  InvalidateIfDupResult(cmd, rc);
  return rc;
}

extern "C" int fcntl64(int fd, int cmd, ...) {
  if (real_fcntl == nullptr) {
    ResolveReal();
  }
  va_list ap;
  va_start(ap, cmd);
  void* arg = va_arg(ap, void*);
  va_end(ap);
  if (cmd == F_SETLK || cmd == F_SETLKW) {
    dimmunix::Runtime* runtime = TryRuntime();
    if (runtime != nullptr && arg != nullptr) {
      return FcntlLock(runtime, fd, cmd, static_cast<struct flock*>(arg));
    }
  }
  const int rc = real_fcntl(fd, cmd, arg);
  InvalidateIfDupResult(cmd, rc);
  return rc;
}
