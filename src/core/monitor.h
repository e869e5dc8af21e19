// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The monitor thread (Figure 1, §5.2): wakes every τ milliseconds, drains
// the lock-free event queue, updates the RAG, searches for deadlock and
// yield cycles, archives their signatures to the persistent history, breaks
// induced starvation, and runs calibration bookkeeping — all outside the
// application's critical path.

#ifndef DIMMUNIX_CORE_MONITOR_H_
#define DIMMUNIX_CORE_MONITOR_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "src/common/config.h"
#include "src/core/avoidance.h"
#include "src/core/calibrator.h"
#include "src/core/stats.h"
#include "src/event/event_queue.h"
#include "src/persist/store.h"
#include "src/rag/rag.h"
#include "src/signature/history.h"

namespace dimmunix {

namespace obs {
class IncidentLog;
}  // namespace obs

class Monitor {
 public:
  // `store` (optional) is the asynchronous history writer: when present,
  // persisting a signature is an O(1) enqueue and all file I/O happens on
  // the store's thread; when null (tests that wire components by hand) the
  // monitor falls back to a synchronous History::Save. `recorder` (optional)
  // is the src/obs flight recorder: each RunOnce emits a kMonitorPass span
  // when tracing is live.
  Monitor(const Config& config, StackTable* stacks, History* history, EventQueue* queue,
          AvoidanceEngine* engine, persist::HistoryStore* store = nullptr,
          obs::Recorder* recorder = nullptr);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Starts/stops the background thread. Tests that want deterministic
  // behavior leave it stopped and call RunOnce() themselves.
  void Start();
  void Stop();

  // One monitor iteration: drain events, detect, archive, break starvation,
  // expire calibration probes. Safe to call when the thread is not running.
  void RunOnce();

  // Hooks (§3: "Dimmunix can provide a hook in the monitor thread for
  // programs to define more sophisticated deadlock recovery methods; the
  // hook can be invoked right after the deadlock signature is saved").
  using DeadlockHook = std::function<void(const DeadlockCycle&, int signature_index)>;
  using StarvationHook = std::function<void(const StarvationCycle&, int signature_index)>;
  using RestartHook = std::function<void()>;  // strong immunity
  void SetDeadlockHook(DeadlockHook hook);
  void SetStarvationHook(StarvationHook hook);
  void SetRestartHook(RestartHook hook);

  // Incident forensics sink (src/obs/incident.h). Null (the default for
  // hand-wired test monitors) disables capture; the Runtime wires its log
  // before Start(). Captures happen at the detect/avoid/break sites inside
  // RunOnce, with the iteration lock held.
  void SetIncidentLog(obs::IncidentLog* log);

  // Control-plane snapshot hook: copies the RAG's observable state while the
  // monitor iteration lock is held, so it is safe to call from any thread
  // even while the background loop is running.
  RagSnapshot SnapshotRag();

  MonitorStats& stats() { return stats_; }
  Rag& rag() { return rag_; }  // single-threaded access: tests drive RunOnce themselves
  Calibrator& calibrator() { return calibrator_; }

 private:
  void Loop();
  void DrainEvents();
  void HandleDeadlocks();
  void HandleStarvations();
  void HandleCalibration();
  int ArchiveSignature(SignatureKind kind, const std::vector<StackId>& stacks, bool* added);
  void PersistHistory();
  // Snapshot one incident bundle (no-op without a log). `threads` leads
  // with the responsible thread when the caller knows it.
  void CaptureIncident(const char* kind, int signature_index,
                       const std::vector<ThreadId>& threads);

  const Config config_;
  StackTable* stacks_;
  History* history_;
  EventQueue* queue_;
  AvoidanceEngine* engine_;
  persist::HistoryStore* store_;
  obs::Recorder* recorder_;
  obs::IncidentLog* incident_log_ = nullptr;
  Rag rag_;
  Calibrator calibrator_;
  MonitorStats stats_;

  DeadlockHook deadlock_hook_;
  StarvationHook starvation_hook_;
  RestartHook restart_hook_;

  std::mutex run_m_;  // serializes RunOnce vs. the background loop
  std::mutex stop_m_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_CORE_MONITOR_H_
