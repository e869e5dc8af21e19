// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Runtime — the public facade of the Dimmunix library.
//
// A Runtime owns one complete immunity system: stack table, persistent
// history, event queue, avoidance engine, and monitor thread. Most programs
// use a single process-wide runtime (Runtime::Global(), configured from
// DIMMUNIX_* environment variables); tests and benchmarks construct isolated
// instances.
//
// Typical embedding (see src/sync for ready-made lock types):
//
//   dimmunix::Config cfg;
//   cfg.history_path = "app.dimmunix";
//   dimmunix::Runtime rt(cfg);
//   dimmunix::sync::Mutex a(rt), b(rt);   // instrumented locks
//   ...
//
// The runtime loads the history at startup ("the deadlock history is loaded
// from disk into memory at startup time", §5.4) and the monitor persists
// every new signature immediately.

#ifndef DIMMUNIX_CORE_RUNTIME_H_
#define DIMMUNIX_CORE_RUNTIME_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/common/config.h"
#include "src/control/server.h"
#include "src/core/acquire.h"
#include "src/core/avoidance.h"
#include "src/core/monitor.h"
#include "src/event/event_queue.h"
#include "src/ipc/bridge.h"
#include "src/obs/health.h"
#include "src/obs/incident.h"
#include "src/obs/recorder.h"
#include "src/persist/store.h"
#include "src/signature/history.h"
#include "src/stack/stack_table.h"

namespace dimmunix {

class Runtime {
 public:
  explicit Runtime(Config config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Process-wide instance, configured from the environment on first use.
  static Runtime& Global();

  // Registers the calling thread (idempotent) and returns its id.
  ThreadId RegisterCurrentThread() { return engine_->registry().RegisterCurrentThread(); }

  // --- Acquisition port (src/core/acquire.h) --------------------------------
  //
  // The only sanctioned way for lock adapters (sync types, interposition
  // shims) to run the avoidance protocol. Registers the calling thread,
  // runs request -> GO/YIELD, and returns the move-only handle that owes
  // exactly one Commit() or Cancel() when granted.

  // Blocking protocol; `deadline` (optional) bounds time spent yielding.
  AcquireOp BeginAcquire(LockId lock, AcquireMode mode,
                         std::optional<MonoTime> deadline = std::nullopt) {
    const ThreadId tid = RegisterCurrentThread();
    return AcquireOp(engine_.get(), tid, lock, mode, engine_->Request(tid, lock, mode, deadline));
  }

  // Nonblocking protocol for trylock adapters: Decision() == kBusy instead
  // of a yield when acquiring would instantiate a signature.
  AcquireOp TryBeginAcquire(LockId lock, AcquireMode mode) {
    const ThreadId tid = RegisterCurrentThread();
    return AcquireOp(engine_.get(), tid, lock, mode, engine_->RequestNonblocking(tid, lock, mode));
  }

  // The calling thread released `lock`. Mode comes from the thread's hold
  // record (pthread_rwlock_unlock does not say which side it undoes).
  void EndRelease(LockId lock) { engine_->Release(RegisterCurrentThread(), lock); }

  // §8: hot-reload the history after a vendor shipped new signatures ("the
  // target program need not even be restarted").
  bool ReloadHistory();

  // --- Durable history operations (control plane: `dimctl history ...`) -----

  // Synchronously compacts the history to disk: other processes' signatures
  // merged in, union written atomically as a v2 snapshot under the file
  // lock. False without a history path.
  bool SaveHistoryNow();

  // Writes the current in-memory history to `path` (v2) — how an operator
  // ships signatures to another machine (§8 "vendors can ship signatures as
  // patches"). Works even when the runtime has no history file of its own.
  bool ExportHistoryTo(const std::string& path);

  // Merges signatures from `path` (v2 or legacy v1) into the live history;
  // the avoidance engine starts matching them immediately via the history
  // version counter. Returns the number of new signatures, or -1 if the
  // file cannot be read.
  int MergeHistoryFrom(const std::string& path);

  // §5.7 user workflow ("the same way s/he would enable pop-ups for a given
  // site"): disables the most recently avoided signature so it is never
  // avoided again. Returns the signature index, or -1 if nothing was ever
  // avoided.
  int DisableLastAvoidedSignature();

  // §8: "the calibration of matching precision is therefore re-enabled after
  // every upgrade for all signatures". Restarts every signature's
  // calibration ladder (no-op unless calibration is enabled).
  void RestartCalibrationAfterUpgrade();

  // Operator-facing signature mutations (control plane, tools). Both are
  // bounds-checked: false on an out-of-range index (or depth < 1 / > max);
  // on success the engine caches refresh and the history file (if any) is
  // persisted.
  bool SetSignatureDisabled(int index, bool disabled);
  bool SetSignatureMatchDepth(int index, int depth);

  // --- Observability (src/obs) ----------------------------------------------

  // The flight recorder: always present (metrics histograms are on unless
  // Config::metrics_enabled is off; trace rings record when tracing is
  // started via config or `dimctl trace start`).
  obs::Recorder& recorder() { return *recorder_; }
  const obs::Recorder& recorder() const { return *recorder_; }

  // Self-diagnosis (src/obs/health.h): always constructed, so `dimctl
  // alerts` works even when the evaluator thread is off; the thread runs
  // only while Config::health_enabled.
  obs::HealthEngine& health() { return *health_; }
  const obs::HealthEngine& health() const { return *health_; }

  // Incident forensics (src/obs/incident.h); inert unless
  // Config::incident_dir is set.
  obs::IncidentLog& incident_log() { return *incidents_; }
  const obs::IncidentLog& incident_log() const { return *incidents_; }

  // One evaluator pass: assemble a HealthSample from the live snapshots and
  // tick the HealthEngine. The background thread calls this every period;
  // public so tests (and the control plane, on demand) can run it
  // deterministically.
  void RunHealthCheckNow();

  // Writes the Chrome-trace JSON for this process's rings to
  // Config::trace_dump_path (with %p expanded to the pid). Called
  // automatically at destruction and at process exit (the leaked Global()
  // runtime registers an atexit hook); public so the control plane and tests
  // can force a dump. False when no dump path is configured or the write
  // fails.
  bool DumpTraceNow();

  const Config& config() const { return config_; }
  StackTable& stacks() { return *stacks_; }
  History& history() { return *history_; }
  EventQueue& events() { return *queue_; }
  AvoidanceEngine& engine() { return *engine_; }
  Monitor& monitor() { return *monitor_; }
  // Null unless Config::history_path was set.
  persist::HistoryStore* history_store() { return store_.get(); }
  // Null unless Config::ipc_path was set and the arena came up.
  ipc::IpcBridge* ipc_bridge() { return ipc_.get(); }
  // Null unless Config::control_socket_path was set and the socket came up.
  control::ControlServer* control_server() { return control_.get(); }

 private:
  void PersistHistory();
  obs::HealthSample CollectHealthSample();
  std::string RuntimeIncidentJson();
  void HealthLoop();
  void StopHealthThread();
  void PushAlertsToFleet();

  Config config_;
  // First member after config_: constructed before and destroyed after every
  // component that records into it.
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<obs::HealthEngine> health_;
  std::unique_ptr<obs::IncidentLog> incidents_;
  std::unique_ptr<StackTable> stacks_;
  std::unique_ptr<History> history_;
  std::unique_ptr<EventQueue> queue_;
  std::unique_ptr<persist::HistoryStore> store_;
  std::unique_ptr<AvoidanceEngine> engine_;
  std::unique_ptr<ipc::IpcBridge> ipc_;
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<control::ControlServer> control_;

  // Health evaluator thread (never touches lock paths: it only reads the
  // stats snapshots and, on alert transitions, talks TCP to dimmunixd).
  std::mutex health_stop_m_;
  std::condition_variable health_stop_cv_;
  bool health_stop_requested_ = false;
  std::thread health_thread_;
  bool health_running_ = false;
  // Fleet alert-push state (health thread only).
  int last_pushed_raised_ = -1;
  std::uint64_t health_ticks_since_push_ = 0;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_CORE_RUNTIME_H_
