// Copyright (c) dimmunix-cpp authors. MIT license.
//
// acqbench — the acquire-path benchmark.
//
// One closed-loop run of the §7.2.2 synchronization loop (8 locks, δin = 1
// µs and δout = 5 µs busy loops, random call towers of depth 10 with
// branching 3 over 3 lock sites) against one Runtime with library defaults,
// except that the benchmark runs Monitor::RunOnce() itself every τ = 100 ms
// (start_monitor = false) so the monitor pass can be timed. Every acquire
// makes the calls sync::Mutex::Lock/Unlock make, in the same order, so each
// layer boundary can be timed from outside:
//
//   [ipc::GlobalIdForSharedAddress]                          (shm_global)
//   Runtime::BeginAcquire -> RawMutex::LockCancellable -> AcquireOp::Commit
//   ... δin ...
//   [ipc::GlobalIdForSharedAddress] -> Runtime::EndRelease -> unlock
//
// Workloads (see acqbench/README.md for the layer -> metric map):
//   avoid_hist512  3 workers, annotated frames, 512-signature history
//   native_stacks  2 workers, a real noinline function tower (no
//                  annotations), 64-signature history
//   shm_global     3 workers, annotated frames, 64-signature history,
//                  PTHREAD_PROCESS_SHARED mutexes in a MAP_SHARED file and
//                  an IPC arena
//
// Usage:
//   acqbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//            [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics of one untraced timed phase.
// --trace 1 splits S between an untraced phase, a traced phase (1-in-8
// acquisitions timed at every call boundary) and an engine-disabled floor
// phase, and prints the per-layer metrics. Fixtures (history file, lock
// file, arena) are generated from the seed into --tmp. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is non-zero when any correctness or workload-identity check fails.

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/benchlib/synth_history.h"
#include "src/benchlib/workload.h"
#include "src/core/runtime.h"
#include "src/ipc/global_id.h"
#include "src/stack/annotation.h"
#include "src/stack/capture.h"
#include "src/sync/raw_mutex.h"

namespace dimmunix {
namespace {

// --- The §7.2.2 loop shape ----------------------------------------------------

constexpr int kLocks = 8;
constexpr int kDepth = 10;     // lock site + 9 tower levels
constexpr int kBranching = 3;  // callees per tower level, and lock sites
constexpr std::int64_t kDeltaInUs = 1;
constexpr std::int64_t kDeltaOutUs = 5;
constexpr auto kTau = std::chrono::milliseconds(100);
constexpr int kPaths = 59049;  // kBranching^kDepth distinct call stacks
constexpr auto kWarmup = std::chrono::milliseconds(1000);
constexpr auto kSweepCap = std::chrono::seconds(60);
constexpr auto kHangBound = std::chrono::seconds(5);
constexpr int kSetupReps = 15;     // setup_s is the median of this many set-ups
constexpr int kLoadReps = 5;       // persist.load_ms likewise
constexpr std::uint64_t kUntracedSampleMask = 7;  // latency on 1 in 8 acquires
constexpr std::uint64_t kTracedSampleMask = 7;    // spans on 1 in 8 acquires

enum class Kind { kAvoid, kNative, kShm };

struct Workload {
  const char* name;
  Kind kind;
  int workers;
  int signatures;
};

constexpr Workload kWorkloads[] = {
    {"avoid_hist512", Kind::kAvoid, 3, 512},
    {"native_stacks", Kind::kNative, 2, 64},
    {"shm_global", Kind::kShm, 3, 64},
};

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Now().time_since_epoch()).count());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "acqbench: %s\n", message.c_str());
  std::exit(2);
}

// --- Locks ----------------------------------------------------------------------

// The lock array. Local workloads use the RawMutex every sync::Mutex wraps
// (LockId = its address, as sync::Mutex does); shm_global uses
// PTHREAD_PROCESS_SHARED mutexes in a MAP_SHARED file mapping, identified
// the way the preload shim identifies them. Each lock carries a plain
// counter bumped inside the critical section: the mutual-exclusion
// checksum.
class LockSet {
 public:
  LockSet(bool shared, const std::string& path) : shared_(shared) {
    if (!shared_) {
      local_ = std::make_unique<Local[]>(kLocks);
      return;
    }
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd < 0 || ::ftruncate(fd, sizeof(Shared) * kLocks) != 0) {
      Die("cannot create lock file " + path);
    }
    void* map = ::mmap(nullptr, sizeof(Shared) * kLocks, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      Die("cannot map lock file " + path);
    }
    shm_ = static_cast<Shared*>(map);
    pthread_mutexattr_t attr;
    pthread_mutexattr_init(&attr);
    pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
    for (int i = 0; i < kLocks; ++i) {
      pthread_mutex_init(&shm_[i].mutex, &attr);
      shm_[i].counter = 0;
    }
    pthread_mutexattr_destroy(&attr);
  }
  ~LockSet() {
    if (shm_ != nullptr) {
      for (int i = 0; i < kLocks; ++i) {
        pthread_mutex_destroy(&shm_[i].mutex);
      }
      ::munmap(shm_, sizeof(Shared) * kLocks);
    }
  }
  LockSet(const LockSet&) = delete;
  LockSet& operator=(const LockSet&) = delete;

  bool shared() const { return shared_; }
  RawMutex& raw(int i) { return local_[i].mutex; }
  pthread_mutex_t* pmutex(int i) { return &shm_[i].mutex; }
  // Only touched by the holder of lock i.
  std::uint64_t& counter(int i) { return shared_ ? shm_[i].counter : local_[i].counter; }

 private:
  struct alignas(64) Local {
    RawMutex mutex;
    std::uint64_t counter = 0;
  };
  struct alignas(64) Shared {
    pthread_mutex_t mutex;
    std::uint64_t counter;
  };
  const bool shared_;
  std::unique_ptr<Local[]> local_;
  Shared* shm_ = nullptr;
};

// --- Per-acquire spans (traced phase) ---------------------------------------

// One sampled acquisition, timed at every public call boundary; all in ns.
struct Span {
  std::uint32_t global_id;  // GlobalIdForSharedAddress (0 off shm_global)
  std::uint32_t request;    // Runtime::BeginAcquire
  std::uint32_t block;      // RawMutex::LockCancellable / pthread_mutex_lock
  std::uint32_t commit;     // AcquireOp::Commit
  std::uint32_t release;    // Runtime::EndRelease (+ its GlobalId on shm)
  std::uint32_t capture;    // CaptureStack() at the same site
  std::uint32_t intern;     // StackTable::Intern() of that capture
};

std::uint32_t Ns32(std::uint64_t ns) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, 0xffffffffu));
}

// --- Workers --------------------------------------------------------------------

struct PhaseCounts {
  std::uint64_t cycles = 0;    // completed acquire/release cycles
  std::uint64_t attempts = 0;  // acquisitions attempted
  std::uint64_t failures = 0;  // not granted or broken
  std::uint64_t resolutions = 0;  // GlobalIdForSharedAddress calls
  std::uint64_t annotated_violations = 0;  // native_stacks saw annotation frames
};

class Bench;

struct alignas(64) Worker {
  int index = 0;
  std::mt19937 rng;
  std::atomic<std::uint64_t> progress{0};  // watchdog heartbeat
  std::uint64_t path = 0;  // native tower: makes every frame body distinct
  int lock_index = 0;
  PhaseCounts counts;
  std::array<std::uint64_t, kLocks> granted{};  // across all phases
  std::vector<std::uint32_t> latency_ns;        // sampled lock-call latency
  std::vector<Span> spans;
  std::uint64_t dropped_samples = 0;
  // Warm-up sweep: this worker's next path, and the digits (one choice per
  // tower level and lock site) Pick() replays for the current one.
  int sweep_next = 0;
  std::array<int, kDepth> digits{};
  int digit = kDepth;
  std::atomic<bool> swept{false};
  bool first_native_checked = false;
  bool native_stack_ok = true;
  Bench* bench = nullptr;

  int Pick() {
    return digit < kDepth ? digits[static_cast<std::size_t>(digit++)]
                          : static_cast<int>(rng() % kBranching);
  }
};

// The native call tower: NativeFrame<0, c> is lock site c, NativeFrame<L, c>
// for L = 1..9 is tower level L. Every instantiation is a distinct noipa
// function with a distinct body, and the barrier after the call keeps it
// from being a tail call, so backtrace() sees exactly one frame per level.
using NativeFn = void (*)(Worker&);

template <int Level, int Choice>
[[gnu::noinline, gnu::noipa]] void NativeFrame(Worker& w);

template <int Level, std::size_t... C>
constexpr std::array<NativeFn, kBranching> NativeLevel(std::index_sequence<C...>) {
  return {&NativeFrame<Level, static_cast<int>(C)>...};
}

template <std::size_t... L>
constexpr std::array<std::array<NativeFn, kBranching>, kDepth> NativeTower(
    std::index_sequence<L...>) {
  return {NativeLevel<static_cast<int>(L)>(std::make_index_sequence<kBranching>())...};
}

constexpr auto kNativeTower = NativeTower(std::make_index_sequence<kDepth>());

void AcquireReleaseCycle(Worker& w);

template <int Level, int Choice>
void NativeFrame(Worker& w) {
  w.path = w.path * 31 + static_cast<std::uint64_t>(Level * kBranching + Choice + 1);
  if constexpr (Level == 0) {
    AcquireReleaseCycle(w);
  } else {
    kNativeTower[Level - 1][w.Pick()](w);
  }
  asm volatile("" ::: "memory");
}

// Annotated frames with the names GenerateSyntheticHistory uses, so the
// generated signatures refer to stacks this loop produces.
struct AnnotatedTower {
  AnnotatedTower() {
    for (int c = 0; c < kBranching; ++c) {
      sites[c] = FrameFromName(LockSiteFrameName(c));
      for (int level = 1; level < kDepth; ++level) {
        levels[level][c] = FrameFromName(TowerFrameName(level, c));
      }
    }
  }
  std::array<Frame, kBranching> sites{};
  std::array<std::array<Frame, kBranching>, kDepth> levels{};
};

// Owns the worker threads for one Runtime. Construction returns once every
// worker is registered with the runtime and parked at the start gate.
class Bench {
 public:
  Bench(const Workload& workload, Runtime& runtime, LockSet& locks, std::uint32_t seed,
        std::size_t latency_reserve, std::size_t span_reserve)
      : workload_(workload), runtime_(runtime), locks_(locks), workers_(workload.workers) {
    for (int i = 0; i < kLocks; ++i) {
      locks_.counter(i) = 0;  // the checksum counts this Bench's grants only
    }
    for (int i = 0; i < workload_.workers; ++i) {
      Worker& w = workers_[static_cast<std::size_t>(i)];
      w.index = i;
      w.bench = this;
      w.rng.seed(seed * 7919u + static_cast<std::uint32_t>(i) * 104729u + 1u);
      w.latency_ns.reserve(latency_reserve);
      w.spans.reserve(span_reserve);
    }
    threads_.reserve(workers_.size());
    for (Worker& w : workers_) {
      threads_.emplace_back([this, &w] { WorkerMain(w); });
    }
    std::unique_lock<std::mutex> guard(m_);
    cv_.wait(guard, [this] { return parked_ == workers_.size(); });
  }

  ~Bench() {
    {
      std::lock_guard<std::mutex> guard(m_);
      exit_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  struct PhaseResult {
    double elapsed_s = 0;
    PhaseCounts counts;
    std::vector<std::uint32_t> latency_ns;
    std::vector<Span> spans;
    std::uint64_t monitor_passes = 0;
    std::uint64_t monitor_ns = 0;
    // Peak RSS up to the end of the phase, before its samples are merged
    // and sorted: the program plus one copy of the sample buffers.
    double peak_rss_mb = 0;
    bool hung = false;
  };

  // Runs the loop for `duration`, driving the monitor every τ from this
  // thread and watching for hung workers.
  PhaseResult Run(Duration duration, bool traced, bool drive_monitor) {
    return RunPhase(duration, traced, drive_monitor, false);
  }

  // The warm-up sweep: the workers split all kPaths call stacks between
  // them and run one cycle on each, so every stack is interned (and its
  // signature memberships computed) before anything is timed. Without it
  // throughput is still climbing 10% over a 20 s run as the random loop
  // keeps meeting new stacks.
  PhaseResult Sweep() { return RunPhase(kSweepCap, false, true, true); }

  // Mutual-exclusion checksum: every lock's in-critical-section counter
  // equals the acquisitions granted on it. Call between phases.
  bool ChecksumHolds() {
    for (int i = 0; i < kLocks; ++i) {
      std::uint64_t granted = 0;
      for (const Worker& w : workers_) {
        granted += w.granted[static_cast<std::size_t>(i)];
      }
      if (locks_.counter(i) != granted) {
        std::fprintf(stderr, "acqbench: lock %d counter %llu != granted %llu\n", i,
                     static_cast<unsigned long long>(locks_.counter(i)),
                     static_cast<unsigned long long>(granted));
        return false;
      }
    }
    return true;
  }

  bool NativeStacksClean() const {
    for (const Worker& w : workers_) {
      if (!w.native_stack_ok || !w.first_native_checked) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t DroppedSamples() const {
    std::uint64_t dropped = 0;
    for (const Worker& w : workers_) {
      dropped += w.dropped_samples;
    }
    return dropped;
  }

  // One §7.2.2 acquire/release cycle at the current call site.
  void Cycle(Worker& w);

 private:
  PhaseResult RunPhase(Duration duration, bool traced, bool drive_monitor, bool sweep) {
    PhaseResult result;
    {
      std::lock_guard<std::mutex> guard(m_);
      traced_ = traced;
      sweep_ = sweep;
      stop_.store(false, std::memory_order_relaxed);
      parked_ = 0;
      for (Worker& w : workers_) {
        w.sweep_next = w.index;
        w.swept.store(false, std::memory_order_relaxed);
        w.counts = PhaseCounts{};
        w.latency_ns.clear();
        w.spans.clear();
      }
      ++generation_;
    }
    cv_.notify_all();
    const MonoTime start = Now();
    const MonoTime end = start + duration;
    MonoTime next_pass = start + kTau;
    std::vector<std::uint64_t> last_progress(workers_.size(), ~0ULL);
    std::vector<MonoTime> last_change(workers_.size(), start);
    const auto all_swept = [this] {
      return std::all_of(workers_.begin(), workers_.end(),
                         [](const Worker& w) { return w.swept.load(std::memory_order_acquire); });
    };
    while (Now() < end && !(sweep && all_swept())) {
      std::this_thread::sleep_until(std::min(next_pass, end));
      const MonoTime now = Now();
      if (drive_monitor && now >= next_pass && now < end) {
        const std::uint64_t t0 = NowNs();
        runtime_.monitor().RunOnce();
        result.monitor_ns += NowNs() - t0;
        ++result.monitor_passes;
        next_pass += kTau;
      } else if (!drive_monitor) {
        next_pass += kTau;
      }
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        const std::uint64_t p = workers_[i].progress.load(std::memory_order_relaxed);
        if (p != last_progress[i] || workers_[i].swept.load(std::memory_order_relaxed)) {
          last_progress[i] = p;
          last_change[i] = now;
        } else if (now - last_change[i] > kHangBound) {
          result.hung = true;
        }
      }
      if (result.hung) {
        break;
      }
    }
    stop_.store(true, std::memory_order_relaxed);
    if (sweep && !all_swept()) {
      result.hung = true;  // the sweep did not finish within kSweepCap
    }
    result.elapsed_s = std::chrono::duration<double>(Now() - start).count();
    {
      std::unique_lock<std::mutex> guard(m_);
      if (!cv_.wait_for(guard, kHangBound, [this] { return parked_ == workers_.size(); })) {
        result.hung = true;
        result.counts.failures += workers_.size() - parked_;
        return result;  // the caller reports and exits without joining
      }
    }
    result.peak_rss_mb = PeakRssMb();
    for (Worker& w : workers_) {
      result.counts.cycles += w.counts.cycles;
      result.counts.attempts += w.counts.attempts;
      result.counts.failures += w.counts.failures;
      result.counts.resolutions += w.counts.resolutions;
      result.counts.annotated_violations += w.counts.annotated_violations;
      result.latency_ns.insert(result.latency_ns.end(), w.latency_ns.begin(), w.latency_ns.end());
      result.spans.insert(result.spans.end(), w.spans.begin(), w.spans.end());
    }
    return result;
  }

  void WorkerMain(Worker& w);
  void RunOne(Worker& w);
  void CheckNativeStack(Worker& w);

  const Workload& workload_;
  Runtime& runtime_;
  LockSet& locks_;
  AnnotatedTower tower_;
  std::vector<Worker> workers_;
  std::vector<std::thread> threads_;

  std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;  // bumped per phase and at exit
  std::size_t parked_ = 0;
  bool exit_ = false;
  bool traced_ = false;
  bool sweep_ = false;
  std::atomic<bool> stop_{true};
};

void AcquireReleaseCycle(Worker& w) { w.bench->Cycle(w); }

void Bench::WorkerMain(Worker& w) {
  runtime_.RegisterCurrentThread();
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> guard(m_);
      ++parked_;
      cv_.notify_all();
      cv_.wait(guard, [&] { return generation_ != seen; });
      seen = generation_;
      if (exit_) {
        return;
      }
    }
    while (!stop_.load(std::memory_order_relaxed)) {
      if (sweep_ && w.sweep_next >= kPaths) {
        w.swept.store(true, std::memory_order_release);
        break;
      }
      RunOne(w);
      w.progress.store(w.counts.attempts, std::memory_order_relaxed);
      BusySpinMicros(kDeltaOutUs);
    }
  }
}

void Bench::RunOne(Worker& w) {
  w.lock_index = static_cast<int>(w.rng() % kLocks);
  if (sweep_) {
    for (int d = 0, path = w.sweep_next; d < kDepth; ++d, path /= kBranching) {
      w.digits[static_cast<std::size_t>(d)] = path % kBranching;
    }
    w.digit = 0;
    w.sweep_next += static_cast<int>(workers_.size());
  }
  if (workload_.kind == Kind::kNative) {
    if (!ThreadAnnotationStack().empty()) {
      ++w.counts.annotated_violations;
    }
    kNativeTower[kDepth - 1][w.Pick()](w);
    return;
  }
  for (int level = kDepth - 1; level >= 1; --level) {
    PushAnnotatedFrame(tower_.levels[static_cast<std::size_t>(level)]
                                    [static_cast<std::size_t>(w.Pick())]);
  }
  PushAnnotatedFrame(tower_.sites[static_cast<std::size_t>(w.Pick())]);
  Cycle(w);
  for (int level = 0; level < kDepth; ++level) {
    PopAnnotatedFrame();
  }
}

// The first capture of each native_stacks worker must be a real unwind:
// at least one frame per tower level and no frame that carries an
// annotation name.
void Bench::CheckNativeStack(Worker& w) {
  w.first_native_checked = true;
  const std::vector<Frame> frames = CaptureStack();
  if (frames.size() < static_cast<std::size_t>(kDepth)) {
    w.native_stack_ok = false;
  }
  for (Frame f : frames) {
    if (FrameName(f).rfind("0x", 0) != 0) {
      w.native_stack_ok = false;
    }
  }
}

void Bench::Cycle(Worker& w) {
  const bool shm = locks_.shared();
  const int li = w.lock_index;
  const std::uint64_t mask = traced_ ? kTracedSampleMask : kUntracedSampleMask;
  const bool sampled = (w.counts.attempts & mask) == 0;
  const bool spans = traced_ && sampled;
  ++w.counts.attempts;
  if (workload_.kind == Kind::kNative && !w.first_native_checked) {
    CheckNativeStack(w);
  }

  const std::uint64_t t0 = sampled ? NowNs() : 0;
  LockId id = reinterpret_cast<LockId>(&locks_.raw(li));
  std::uint64_t t1 = t0;
  if (shm) {
    id = ipc::GlobalIdForSharedAddress(locks_.pmutex(li));
    ++w.counts.resolutions;
    t1 = spans ? NowNs() : 0;
  }
  // sync::Mutex::Lock: self-deadlock check, then the acquisition port.
  if (!shm && locks_.raw(li).OwnedByCurrentThread()) {
    ++w.counts.failures;
    return;
  }
  AcquireOp op = runtime_.BeginAcquire(id, AcquireMode::kExclusive);
  const std::uint64_t t2 = spans ? NowNs() : 0;
  if (!op.Granted()) {
    ++w.counts.failures;
    return;
  }
  const bool locked = shm ? pthread_mutex_lock(locks_.pmutex(li)) == 0
                          : locks_.raw(li).LockCancellable(&op.slot());
  const std::uint64_t t3 = spans ? NowNs() : 0;
  if (!locked) {
    op.Cancel();
    if (!shm) {
      runtime_.engine().stats().broken_acquisitions.fetch_add(1, std::memory_order_relaxed);
    }
    ++w.counts.failures;
    return;
  }
  op.Commit();
  const std::uint64_t t4 = sampled ? NowNs() : 0;

  ++locks_.counter(li);
  ++w.granted[static_cast<std::size_t>(li)];
  BusySpinMicros(kDeltaInUs);

  // sync::Mutex::Unlock (the shim re-resolves the id on unlock).
  const std::uint64_t t5 = spans ? NowNs() : 0;
  if (shm) {
    id = ipc::GlobalIdForSharedAddress(locks_.pmutex(li));
    ++w.counts.resolutions;
  }
  runtime_.EndRelease(id);
  const std::uint64_t t6 = spans ? NowNs() : 0;
  if (shm) {
    pthread_mutex_unlock(locks_.pmutex(li));
  } else {
    locks_.raw(li).Unlock();
  }
  ++w.counts.cycles;

  if (!sampled) {
    return;
  }
  if (w.latency_ns.size() == w.latency_ns.capacity()) {
    ++w.dropped_samples;
    return;
  }
  w.latency_ns.push_back(Ns32(t4 - t0));
  if (!spans || w.spans.size() == w.spans.capacity()) {
    return;
  }
  // The stack layer, timed at this same site on the runtime's own table:
  // the capture and intern Request() just did, with the proc frame the
  // engine prepends to global-lock stacks. An unwound stack taken here
  // differs from Request()'s in its innermost return address, so it is
  // interned once untimed and the timed Intern() is the steady-state hit
  // every engine request makes (annotated stacks are identical anyway).
  const std::uint64_t c0 = NowNs();
  std::vector<Frame> frames = CaptureStack();
  if (shm && runtime_.ipc_bridge() != nullptr) {
    frames.insert(frames.begin(), runtime_.ipc_bridge()->ProcFrame());
  }
  const std::uint64_t c1 = NowNs();
  if (workload_.kind == Kind::kNative) {
    runtime_.stacks().Intern(frames);
  }
  const std::uint64_t c2 = NowNs();
  runtime_.stacks().Intern(frames);
  const std::uint64_t c3 = NowNs();
  w.spans.push_back(Span{Ns32(t1 - t0), Ns32(t2 - t1), Ns32(t3 - t2), Ns32(t4 - t3),
                         Ns32(t6 - t5), Ns32(c1 - c0), Ns32(c3 - c2)});
}

// --- Fixtures -------------------------------------------------------------------

// Writes a v2 history of exactly `count` workload-shaped signatures drawn
// from GenerateSyntheticHistory(seed), the way a vendor would ship them.
//
// The draw is stratified on one property. A signature whose two stacks share
// their depth-4 suffix (two threads deadlocking in the same code, as in
// transfer(a, b) vs transfer(b, a)) counts as fully live while ONE thread
// stands at that suffix, and while any signature is fully live every request,
// by any thread, skips the matcher's O(1) reject and walks the whole history.
// Left to chance, their number is Poisson (about count/81 ± its square root),
// and at 1024 signatures it alone moved the share of requests taking that
// walk from ~20% to ~55% between seeds. Each history therefore holds exactly
// the expected number (count/81, rounded, on distinct suffixes); every other
// signature is a two-suffix one, all in the generator's order.
void WriteHistoryFixture(const std::string& path, int count, std::uint32_t seed) {
  constexpr int kMatchDepth = 4;
  constexpr int kSuffixes = kBranching * kBranching * kBranching * kBranching;  // at depth 4
  Config cfg;
  cfg.start_monitor = false;
  cfg.health_enabled = false;
  Runtime pool(cfg);
  SynthHistoryParams params;
  params.signatures = std::max(4 * count, 4096);  // ~50 same-suffix draws
  params.stack_depth = kDepth;
  params.branching = kBranching;
  params.match_depth = kMatchDepth;
  params.seed = seed * 2654435761u + 1u;
  GenerateSyntheticHistory(&pool.history(), &pool.stacks(), params);

  const int same_quota = (count + kSuffixes / 2) / kSuffixes;
  std::vector<std::uint64_t> same_suffixes;
  std::vector<std::vector<std::vector<Frame>>> chosen;
  int same = 0;
  int other = 0;
  pool.history().ForEach([&](int, const Signature& sig) {
    std::vector<std::vector<Frame>> stacks;
    std::vector<std::uint64_t> suffix;
    for (StackId id : sig.stacks) {
      const StackEntry& entry = pool.stacks().Get(id);
      stacks.push_back(entry.frames);
      suffix.push_back(entry.depth_hash[kMatchDepth - 1]);
    }
    if (suffix.size() == 2 && suffix[0] == suffix[1]) {
      if (same < same_quota && std::find(same_suffixes.begin(), same_suffixes.end(),
                                         suffix[0]) == same_suffixes.end()) {
        same_suffixes.push_back(suffix[0]);
        chosen.push_back(std::move(stacks));
        ++same;
      }
    } else if (other < count - same_quota) {
      chosen.push_back(std::move(stacks));
      ++other;
    }
  });

  Runtime out(cfg);
  int added = 0;
  for (const auto& stacks : chosen) {
    std::vector<StackId> ids;
    for (const std::vector<Frame>& frames : stacks) {
      ids.push_back(out.stacks().Intern(frames));
    }
    bool is_new = false;
    out.history().Add(SignatureKind::kDeadlock, std::move(ids), kMatchDepth, &is_new);
    added += is_new ? 1 : 0;
  }
  if (added != count || !out.ExportHistoryTo(path)) {
    Die("cannot generate the history fixture " + path);
  }
}

// --- Statistics -------------------------------------------------------------------

// Sorts `v` in place.
double Percentile(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double Mean(const std::vector<std::uint32_t>& v) {
  double sum = 0;
  for (std::uint32_t x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

template <typename Field>
double MeanOf(const std::vector<Span>& spans, Field field) {
  double sum = 0;
  for (const Span& s : spans) {
    sum += static_cast<double>(s.*field);
  }
  return Ratio(sum, static_cast<double>(spans.size()));
}

// Yield durations recorded during one phase: the difference of two
// snapshots of the recorder's cumulative histogram.
obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (std::size_t b = 0; b < d.buckets.size() && b < before.buckets.size(); ++b) {
    d.buckets[b] -= before.buckets[b];
  }
  return d;
}

struct Usage {
  double cpu_s = 0;
  double ctxsw = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.ctxsw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

// --- Report -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why) {
    std::printf("check FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  void Count(const PhaseCounts& c) {
    attempted_ += c.attempts;
    failed_ += c.failures;
  }
  bool correct() const { return correct_ && failed_ == 0; }

  // Prints every metric by name with its unit, then the result object as
  // the last line.
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// A hung acquisition cannot be joined: report it and leave without running
// any destructor that would wait for it.
void CheckHang(const Bench::PhaseResult& r, Report& report) {
  if (!r.hung) {
    return;
  }
  report.Count(r.counts);
  report.Fail("an acquisition stayed pending past the hang bound");
  report.Print();
  std::_Exit(1);
}

// --- Main -------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string tmp;
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = static_cast<std::uint32_t>(std::stoul(value));
    } else if (key == "--seconds") {
      a.seconds = std::stoi(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--tmp") {
      a.tmp = value;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (a.tmp.empty() || a.seconds < 1) {
    Die("usage: acqbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR");
  }
  return a;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Die("cannot write spans to " + path);
  }
  std::fprintf(f, "global_id_ns\trequest_ns\tblock_ns\tcommit_ns\trelease_ns\tcapture_ns\t"
                  "intern_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%u\t%u\t%u\t%u\t%u\t%u\t%u\n", s.global_id, s.request, s.block,
                 s.commit, s.release, s.capture, s.intern);
  }
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    Die("unknown workload '" + args.workload + "'");
  }
  const Workload& wl = *found;
  const bool shm = wl.kind == Kind::kShm;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("config workload=%s seed=%u seconds=%d trace=%d workers=%d nproc=%u "
              "warmup_ms=%lld signatures=%d oversubscribed=%s\n",
              wl.name, args.seed, args.seconds, args.trace ? 1 : 0, wl.workers, nproc,
              static_cast<long long>(kWarmup.count()), wl.signatures,
              static_cast<unsigned>(wl.workers + 1) > nproc ? "yes" : "no");

  // Fixtures, generated from the seed into this run's own directory.
  const std::string history_path = args.tmp + "/history.dimmunix";
  WriteHistoryFixture(history_path, wl.signatures, args.seed);
  LockSet locks(shm, args.tmp + "/locks.shm");

  Config cfg;
  cfg.start_monitor = false;  // the benchmark runs Monitor::RunOnce every τ
  cfg.monitor_period = kTau;
  cfg.history_path = history_path;
  if (shm) {
    cfg.ipc_path = args.tmp + "/arena.shm";
  }

  Report report;
  const auto check_history = [&](Runtime& rt) {
    if (rt.history().size() != static_cast<std::size_t>(wl.signatures)) {
      report.Fail("loaded " + std::to_string(rt.history().size()) + " signatures, generated " +
                  std::to_string(wl.signatures));
    }
    if (shm && rt.ipc_bridge() == nullptr) {
      report.Fail("the IPC arena did not come up");
    }
  };

  const double total_s = args.seconds;
  // Sample buffers sized for 400 k cycles/s per worker, ~3x the fastest
  // loop (the engine-off floor), so the hot path never reallocates; a full
  // buffer drops samples and the count is printed.
  const std::size_t latency_reserve =
      static_cast<std::size_t>(total_s * 4e5 / static_cast<double>(kUntracedSampleMask + 1)) + 1024;
  const std::size_t span_reserve = args.trace ? latency_reserve : 0;

  // setup_s: Runtime construction (history + arena from disk) to workers
  // registered and ready, median of kSetupReps; the last one is kept.
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<Bench> bench;
  std::vector<double> setups;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    bench.reset();
    rt.reset();
    const MonoTime t0 = Now();
    rt = std::make_unique<Runtime>(cfg);
    bench = std::make_unique<Bench>(wl, *rt, locks, args.seed, latency_reserve, span_reserve);
    setups.push_back(std::chrono::duration<double>(Now() - t0).count());
    check_history(*rt);
  }

  // Untimed warm-up: the sweep fills the stack table, then a short random
  // run lets caches and CPU frequency settle.
  Bench::PhaseResult warm = bench->Sweep();
  CheckHang(warm, report);
  report.Count(warm.counts);
  warm = bench->Run(kWarmup, false, true);
  CheckHang(warm, report);
  report.Count(warm.counts);

  const auto identity = [&](const Bench::PhaseResult& r, const EngineStatsSnapshot& e0,
                            const EngineStatsSnapshot& e1, const ipc::IpcStatus& i0,
                            const ipc::IpcStatus& i1) {
    if (!bench->ChecksumHolds()) {
      report.Fail("mutual-exclusion checksum mismatch");
    }
    if (r.counts.cycles == 0) {
      report.Fail("no acquire/release cycle completed");
    }
    if (wl.kind == Kind::kAvoid && e1.yields == e0.yields) {
      report.Fail("avoid_hist512 made no avoidance yield");
    }
    if (wl.kind == Kind::kNative &&
        (r.counts.annotated_violations != 0 || !bench->NativeStacksClean())) {
      report.Fail("native_stacks captured annotation frames or a short stack");
    }
    if (shm) {
      const std::uint64_t hits = i1.id_cache_hits - i0.id_cache_hits;
      if (i1.flushes == i0.flushes) {
        report.Fail("shm_global made no IPC flush");
      }
      if (static_cast<double>(hits) < 0.95 * static_cast<double>(r.counts.resolutions)) {
        report.Fail("shm_global global-ID cache hits " + std::to_string(hits) + " of " +
                    std::to_string(r.counts.resolutions) + " resolutions");
      }
    }
  };
  const auto ipc_status = [&](Runtime& r) {
    return r.ipc_bridge() != nullptr ? r.ipc_bridge()->SnapshotStatus() : ipc::IpcStatus{};
  };
  const auto secs = [](double s) {
    return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
  };

  if (!args.trace) {
    const EngineStatsSnapshot e0 = rt->engine().stats().Snapshot();
    const ipc::IpcStatus i0 = ipc_status(*rt);
    Bench::PhaseResult r = bench->Run(secs(total_s), false, true);
    CheckHang(r, report);
    const EngineStatsSnapshot e1 = rt->engine().stats().Snapshot();
    const ipc::IpcStatus i1 = ipc_status(*rt);
    report.Count(r.counts);
    identity(r, e0, e1, i0, i1);
    std::printf("samples latency=%zu dropped=%llu cycles=%llu fail_frac=%.6g\n",
                r.latency_ns.size(), static_cast<unsigned long long>(bench->DroppedSamples()),
                static_cast<unsigned long long>(r.counts.cycles),
                Ratio(static_cast<double>(r.counts.failures),
                      static_cast<double>(r.counts.attempts)));
    report.Add("throughput_ops_s", static_cast<double>(r.counts.cycles) / r.elapsed_s, "ops/s");
    report.Add("p50_us", Percentile(r.latency_ns, 50) / 1e3, "us");
    report.Add("p99_us", Percentile(r.latency_ns, 99) / 1e3, "us");
    report.Add("setup_s", Median(setups), "s");
    report.Add("rss_mb", r.peak_rss_mb, "MB");
    report.Print();
    return report.correct() ? 0 : 1;
  }

  // --- Traced run: untraced reference, traced phase, engine-off floor. ---
  const double untraced_s = total_s * 0.35;
  const double traced_s = total_s * 0.45;
  const double floor_s = total_s * 0.2;

  Bench::PhaseResult ref = bench->Run(secs(untraced_s), false, true);
  CheckHang(ref, report);
  report.Count(ref.counts);

  const double table_size = static_cast<double>(rt->stacks().size());
  const EngineStatsSnapshot e0 = rt->engine().stats().Snapshot();
  const MonitorStatsSnapshot m0 = rt->monitor().stats().Snapshot();
  const ipc::IpcStatus i0 = ipc_status(*rt);
  const obs::HistogramSnapshot y0 =
      rt->recorder().histogram(obs::HistoKind::kYieldDuration).Snapshot();
  const Usage u0 = ProcessUsage();
  Bench::PhaseResult tr = bench->Run(secs(traced_s), true, true);
  CheckHang(tr, report);
  const Usage u1 = ProcessUsage();
  const EngineStatsSnapshot e1 = rt->engine().stats().Snapshot();
  const MonitorStatsSnapshot m1 = rt->monitor().stats().Snapshot();
  const ipc::IpcStatus i1 = ipc_status(*rt);
  const obs::HistogramSnapshot yields =
      Delta(rt->recorder().histogram(obs::HistoKind::kYieldDuration).Snapshot(), y0);
  report.Count(tr.counts);
  identity(tr, e0, e1, i0, i1);
  bench.reset();
  rt.reset();

  // persist.load_ms: History::Load of the fixture into a fresh table.
  std::vector<double> loads;
  for (int rep = 0; rep < kLoadReps; ++rep) {
    StackTable table(cfg.max_match_depth);
    History history(&table);
    const MonoTime t0 = Now();
    if (!history.Load(history_path)) {
      report.Fail("History::Load failed on the fixture");
    }
    loads.push_back(std::chrono::duration<double, std::milli>(Now() - t0).count());
  }

  // The floor: the same loop with the engine switched off.
  Config off = cfg;
  off.enabled = false;
  rt = std::make_unique<Runtime>(off);
  bench = std::make_unique<Bench>(wl, *rt, locks, args.seed + 1, latency_reserve, 0);
  CheckHang(bench->Run(std::chrono::milliseconds(300), false, false), report);
  Bench::PhaseResult fl = bench->Run(secs(floor_s), false, false);
  CheckHang(fl, report);
  report.Count(fl.counts);
  if (!bench->ChecksumHolds()) {
    report.Fail("mutual-exclusion checksum mismatch (floor)");
  }
  bench.reset();
  rt.reset();

  const double ops = static_cast<double>(tr.counts.cycles);
  const double kops = ops / 1e3;
  const double requests = static_cast<double>(e1.requests - e0.requests);
  const double n_yields = static_cast<double>(e1.yields - e0.yields);
  const double fast = static_cast<double>(e1.match_fast_path - e0.match_fast_path);
  const double slow = static_cast<double>(e1.match_slow_path - e0.match_slow_path);
  const double flushes = static_cast<double>(i1.flushes - i0.flushes);
  const double hits = static_cast<double>(i1.id_cache_hits - i0.id_cache_hits);
  const double misses = static_cast<double>(i1.id_cache_misses - i0.id_cache_misses);
  const std::vector<Span>& sp = tr.spans;
  const double global_id = MeanOf(sp, &Span::global_id);
  const double request = MeanOf(sp, &Span::request);
  const double block = MeanOf(sp, &Span::block);
  const double commit = MeanOf(sp, &Span::commit);
  std::printf("samples spans=%zu latency=%zu floor_latency=%zu monitor_passes=%llu\n", sp.size(),
              tr.latency_ns.size(), fl.latency_ns.size(),
              static_cast<unsigned long long>(tr.monitor_passes));

  report.Add("stack.capture_ns", MeanOf(sp, &Span::capture), "ns");
  report.Add("stack.intern_ns", MeanOf(sp, &Span::intern), "ns");
  report.Add("stack.table_size", table_size, "count");
  report.Add("core.request_ns", request, "ns");
  report.Add("core.commit_ns", commit, "ns");
  report.Add("core.release_ns", MeanOf(sp, &Span::release), "ns");
  report.Add("core.yields_per_kop", Ratio(n_yields, kops), "1/kop");
  report.Add("core.yield_p50_us", static_cast<double>(yields.Percentile(50)) / 1e3, "us");
  report.Add("core.wakes_per_yield", Ratio(static_cast<double>(e1.wakes - e0.wakes), n_yields),
             "ratio");
  report.Add("core.yield_timeouts", static_cast<double>(e1.yield_timeouts - e0.yield_timeouts),
             "count");
  report.Add("core.match_slow_frac", Ratio(slow, fast + slow), "frac");
  report.Add("core.retries_per_op",
             Ratio(static_cast<double>(e1.match_fast_retries - e0.match_fast_retries), requests),
             "ratio");
  report.Add("core.epoch_stall_ns_per_op",
             Ratio(static_cast<double>(e1.epoch_stall_ns - e0.epoch_stall_ns), requests), "ns");
  report.Add("sync.block_ns", block, "ns");
  report.Add("sync.floor_ns", Mean(fl.latency_ns), "ns");
  report.Add("sync.floor_throughput_ops_s", static_cast<double>(fl.counts.cycles) / fl.elapsed_s,
             "ops/s");
  const double passes = static_cast<double>(tr.monitor_passes);
  report.Add("monitor.pass_us", Ratio(static_cast<double>(tr.monitor_ns) / 1e3, passes), "us");
  report.Add("monitor.events_per_kop",
             Ratio(static_cast<double>(m1.events_processed - m0.events_processed), kops), "1/kop");
  report.Add("ipc.global_id_ns", global_id, "ns");
  report.Add("ipc.flushes_per_kop", Ratio(flushes, kops), "1/kop");
  report.Add("ipc.ops_per_flush", Ratio(static_cast<double>(i1.flush_ops - i0.flush_ops), flushes),
             "ratio");
  report.Add("ipc.id_cache_hit_frac", Ratio(hits, hits + misses), "frac");
  report.Add("persist.load_ms", Median(loads), "ms");
  report.Add("proc.cpu_us_per_op", Ratio((u1.cpu_s - u0.cpu_s) * 1e6, ops), "us");
  report.Add("proc.ctxsw_per_kop", Ratio(u1.ctxsw - u0.ctxsw, kops), "1/kop");
  // The lock call as the untraced phase measured it (two clock reads, no
  // spans): what the traced layer means above must add up to.
  report.Add("acquire.mean_ns", Mean(ref.latency_ns), "ns");
  report.Add("trace.untraced_throughput_ops_s",
             static_cast<double>(ref.counts.cycles) / ref.elapsed_s, "ops/s");
  report.Add("trace.traced_throughput_ops_s", ops / tr.elapsed_s, "ops/s");
  report.Add("trace.untraced_p50_us", Percentile(ref.latency_ns, 50) / 1e3, "us");
  report.Add("trace.traced_p50_us", Percentile(tr.latency_ns, 50) / 1e3, "us");
  if (!args.spans_out.empty()) {
    WriteSpans(args.spans_out, sp);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dimmunix

int main(int argc, char** argv) { return dimmunix::Main(argc, argv); }
