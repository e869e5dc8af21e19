// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Recorder — the process-wide observability hub (one per Runtime).
//
// It owns (a) the per-thread flight-recorder trace rings, handed out lazily
// on a thread's first event, and (b) the always-on latency histograms
// (acquire latency, yield duration, epoch hold). Instrumentation sites in
// the engine/monitor/bridge/store call the inline entry points below:
//
//   Span(...)     push one completed span on the calling thread's ring.
//                 One relaxed flag load + branch when tracing is off —
//                 "DIMMUNIX_TRACE unset must be free".
//   Latency(...)  record one sample into a histogram (wait-free, sharded).
//   timing()      should the caller bother reading the clock at all?
//
// Registry locks are raw spin locks (src/common/spin_lock.h), never pthread
// mutexes: under LD_PRELOAD the instrumentation sites run inside interposed
// lock operations, and a pthread mutex here would recurse into the very
// engine paths being traced.

#ifndef DIMMUNIX_OBS_RECORDER_H_
#define DIMMUNIX_OBS_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/spin_lock.h"
#include "src/obs/histogram.h"
#include "src/obs/trace_event.h"
#include "src/obs/trace_ring.h"

namespace dimmunix {
namespace obs {

// The always-on latency surfaces. Names are the `dimctl histo <name>` /
// Prometheus identifiers (see HistoName / HistoKindFromName).
enum class HistoKind {
  kAcquireLatency = 0,  // request begin -> acquisition commit
  kYieldDuration = 1,   // park -> unpark
  kEpochHold = 2,       // stop-the-stripes guard held
  kMatchDuration = 3,   // cover scan + validation (trivial rejects skip it)
  kIpcFlush = 4,        // one edge flush into the IPC arena
};
inline constexpr int kHistoKindCount = 5;

const char* HistoName(HistoKind kind);
// -1 if `name` is not a histogram name.
int HistoKindFromName(const std::string& name);

class Recorder {
 public:
  struct Options {
    bool trace_enabled = false;   // arm the rings at construction
    std::size_t ring_capacity = 8192;  // events per thread (rounded to pow2)
    bool metrics_enabled = true;  // latency histograms
  };

  explicit Recorder(const Options& options);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // --- Hot-path entry points ------------------------------------------------

  bool tracing() const { return trace_on_.load(std::memory_order_relaxed); }
  bool metrics() const { return metrics_on_; }
  // True when an instrumentation site should read the clock at all.
  bool timing() const { return metrics_on_ || tracing(); }

  // Records one completed span on the calling thread's ring. No-op (one
  // relaxed load + branch) while tracing is off.
  void Span(TraceEventType type, std::uint64_t end_ns, std::uint64_t dur_ns,
            std::uint16_t aux = 0, std::uint8_t mode = 0, std::uint64_t data = 0) {
    if (!tracing()) {
      return;
    }
    TraceEvent event;
    event.end_ns = end_ns;
    event.data = data;
    event.dur_ns = SaturateDurNs(dur_ns);
    event.aux = aux;
    event.mode = mode;
    event.type = static_cast<std::uint8_t>(type);
    ThreadRing().Push(event);
  }

  // Records one latency sample. No-op when metrics are disabled.
  void Latency(HistoKind kind, std::uint64_t ns) {
    if (!metrics_on_) {
      return;
    }
    histograms_[static_cast<int>(kind)].Record(ns);
  }

  // --- Control plane --------------------------------------------------------

  void StartTracing() { trace_on_.store(true, std::memory_order_relaxed); }
  void StopTracing() { trace_on_.store(false, std::memory_order_relaxed); }

  // Labels the calling thread's ring for the trace export (thread_name
  // metadata in Perfetto). Registers the ring if the thread has none yet.
  void NameThisThread(const char* name);

  const Histogram& histogram(HistoKind kind) const {
    return histograms_[static_cast<int>(kind)];
  }

  struct RingDump {
    std::uint64_t tid = 0;     // OS thread id at registration time
    std::string name;          // empty unless NameThisThread was called
    std::uint64_t written = 0;
    std::uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };
  // Stable reader-side snapshot of every ring (including rings of threads
  // that have since exited — the flight recorder keeps their history).
  std::vector<RingDump> SnapshotRings() const;

  // written/dropped accounting only, without copying event payloads — what
  // the metrics exposition and the ring-drop health rule read every tick.
  struct RingTotals {
    std::uint64_t tid = 0;
    std::string name;
    std::uint64_t written = 0;
    std::uint64_t dropped = 0;
  };
  std::vector<RingTotals> SnapshotRingTotals() const;

 private:
  struct RingEntry {
    std::uint64_t tid = 0;
    std::string name;  // guarded by rings_m_
    TraceRing ring;
    explicit RingEntry(std::size_t capacity) : ring(capacity) {}
  };

  TraceRing& ThreadRing();
  RingEntry* RegisterThread();

  const std::uint64_t id_;  // process-unique, keys the thread-local cache
  const bool metrics_on_;
  const std::size_t ring_capacity_;
  std::atomic<bool> trace_on_;

  mutable SpinLock rings_m_;  // guards rings_ growth and entry names
  std::vector<std::unique_ptr<RingEntry>> rings_;

  Histogram histograms_[kHistoKindCount];
};

}  // namespace obs
}  // namespace dimmunix

#endif  // DIMMUNIX_OBS_RECORDER_H_
