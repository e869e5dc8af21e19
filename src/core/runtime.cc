// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/core/runtime.h"

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/fleet/net.h"
#include "src/obs/export.h"
#include "src/persist/file.h"

namespace dimmunix {
namespace {

// Runtime::Global() is leaked intentionally (see Global()), so its
// destructor never runs — the shutdown trace dump for that instance happens
// through this atexit hook instead. Only one runtime (the first with a dump
// path) registers; an embedded runtime that is destroyed normally clears the
// slot in ~Runtime and dumps from there.
std::atomic<Runtime*> g_dump_runtime{nullptr};

void DumpTraceAtExit() {
  if (Runtime* rt = g_dump_runtime.exchange(nullptr, std::memory_order_acq_rel)) {
    rt->DumpTraceNow();
  }
}

}  // namespace

Runtime::Runtime(Config config) : config_(std::move(config)) {
  obs::Recorder::Options rec_options;
  rec_options.trace_enabled = config_.trace_enabled;
  rec_options.metrics_enabled = config_.metrics_enabled;
  recorder_ = std::make_unique<obs::Recorder>(rec_options);
  health_ = std::make_unique<obs::HealthEngine>(obs::HealthThresholds{});
  obs::IncidentLog::Options incident_options;
  incident_options.dir = config_.incident_dir;
  incidents_ =
      std::make_unique<obs::IncidentLog>(incident_options, recorder_.get(), health_.get());
  incidents_->SetRuntimeJsonProvider([this] { return RuntimeIncidentJson(); });
  stacks_ = std::make_unique<StackTable>(config_.max_match_depth);
  history_ = std::make_unique<History>(stacks_.get());
  queue_ = std::make_unique<EventQueue>();
  // "The deadlock history is loaded from disk into memory at startup time"
  // (§5.4) — performed by the store's startup compaction below (one parse,
  // under the file lock).
  engine_ = std::make_unique<AvoidanceEngine>(config_, stacks_.get(), history_.get(),
                                              queue_.get(), recorder_.get());
  if (!config_.history_path.empty()) {
    persist::StoreOptions store_options;
    store_options.path = config_.history_path;
    store_options.resync_period = config_.history_resync_period;
    store_options.merge_on_start = config_.load_history_on_init;
    store_ = std::make_unique<persist::HistoryStore>(store_options, history_.get(),
                                                     recorder_.get());
    // Signatures merged from the shared file must take effect immediately:
    // the engine rebuilds its caches off the history version counter.
    store_->SetOnHistoryMerged([this] { engine_->NotifyHistoryChanged(); });
    store_->Start();
  }
  if (!config_.ipc_path.empty()) {
    ipc::IpcBridge::Options ipc_options;
    ipc_options.arena_path = config_.ipc_path;
    ipc_options.period = config_.ipc_bridge_period;
    ipc_ = std::make_unique<ipc::IpcBridge>(ipc_options, engine_.get(), stacks_.get(),
                                            recorder_.get());
    std::string error;
    if (!ipc_->Start(&error)) {
      DIMMUNIX_LOG(kWarn) << "ipc: " << error << "; continuing without cross-process immunity";
      ipc_.reset();  // degraded but functional: single-process behavior
    }
  }
  monitor_ = std::make_unique<Monitor>(config_, stacks_.get(), history_.get(), queue_.get(),
                                       engine_.get(), store_.get(), recorder_.get());
  monitor_->SetIncidentLog(incidents_.get());
  if (config_.start_monitor) {
    monitor_->Start();
  }
  if (config_.health_enabled) {
    health_running_ = true;
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  if (!config_.control_socket_path.empty()) {
    control_ = std::make_unique<control::ControlServer>(this, config_.control_socket_path);
    if (!control_->Start()) {
      control_.reset();  // degraded but functional: no control plane
    }
  }
  if (!config_.trace_dump_path.empty()) {
    Runtime* expected = nullptr;
    if (g_dump_runtime.compare_exchange_strong(expected, this, std::memory_order_acq_rel)) {
      std::atexit(DumpTraceAtExit);
    }
  }
}

Runtime::~Runtime() {
  // The control server executes commands against the live runtime; it must
  // be fully stopped before any component is torn down. The bridge stops
  // before the monitor (it feeds the event queue and the engine); the store
  // stops after the monitor so the final drain's signatures still reach
  // disk.
  control_.reset();
  // The health evaluator reads every other component's snapshots, so it
  // stops right after the control plane (which reads *its* state) and
  // before anything it samples is torn down.
  StopHealthThread();
  if (ipc_) {
    ipc_->Stop();
  }
  monitor_->Stop();
  if (store_) {
    store_->Stop();
  }
  // A normally-destroyed runtime dumps here and unregisters from the atexit
  // hook (which would otherwise fire on a dangling pointer).
  Runtime* expected = this;
  g_dump_runtime.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
  if (!config_.trace_dump_path.empty()) {
    DumpTraceNow();
  }
}

bool Runtime::DumpTraceNow() {
  if (config_.trace_dump_path.empty()) {
    return false;
  }
  const std::string path = obs::ExpandPidPattern(config_.trace_dump_path,
                                                 static_cast<std::uint64_t>(::getpid()));
  std::string error;
  if (!obs::WriteChromeTraceFile(*recorder_, static_cast<std::uint64_t>(::getpid()), path,
                                 &error)) {
    DIMMUNIX_LOG(kError) << "obs: trace dump to " << path << " failed: " << error;
    return false;
  }
  DIMMUNIX_LOG(kInfo) << "obs: trace dumped to " << path;
  return true;
}

obs::HealthSample Runtime::CollectHealthSample() {
  obs::HealthSample sample;
  sample.now_ns = obs::NowNs();
  const EngineStatsSnapshot es = engine_->stats().Snapshot();
  sample.requests = es.requests;
  sample.match_fast_retries = es.match_fast_retries;
  sample.epoch_stall_ns = es.epoch_stall_ns;
  if (ipc_) {
    const ipc::IpcStatus st = ipc_->SnapshotStatus();
    sample.ipc_running = st.running;
    sample.ipc_pending_ops = st.pending_ops;
    sample.ipc_flush_p99_ns =
        recorder_->histogram(obs::HistoKind::kIpcFlush).Snapshot().Percentile(99.0);
    sample.arena_participants_cap = ipc::IpcArena::kParticipants;
    sample.arena_edges_cap = ipc::IpcArena::kEdgesPerParticipant;
    for (const ipc::ParticipantInfo& p : st.participants) {
      if (p.alive) {
        ++sample.arena_participants_used;
      }
      if (p.self) {
        sample.arena_edges_used = p.edges;
      }
    }
  }
  for (const obs::Recorder::RingTotals& ring : recorder_->SnapshotRingTotals()) {
    sample.ring_dropped += ring.dropped;
  }
  if (store_) {
    const persist::StoreStatsSnapshot ss = store_->stats();
    sample.store_running = true;
    sample.store_queued = ss.queued;
    sample.resync_period_ms =
        static_cast<std::uint64_t>(config_.history_resync_period.count() > 0
                                       ? config_.history_resync_period.count()
                                       : 0);
    sample.last_resync_age_ms = ss.last_resync_age_ms;
  }
  return sample;
}

void Runtime::RunHealthCheckNow() { health_->Tick(CollectHealthSample()); }

std::string Runtime::RuntimeIncidentJson() {
  // The bundle fragment for state the obs layer cannot see: IPC/arena
  // mirror stats and the history store. Everything here is a snapshot API.
  std::string out = "{\"ipc\":";
  if (ipc_) {
    const ipc::IpcStatus st = ipc_->SnapshotStatus();
    std::uint64_t alive = 0;
    std::uint64_t self_edges = 0;
    for (const ipc::ParticipantInfo& p : st.participants) {
      if (p.alive) {
        ++alive;
      }
      if (p.self) {
        self_edges = p.edges;
      }
    }
    out += "{\"running\":" + std::string(st.running ? "true" : "false") +
           ",\"participant\":" + std::to_string(st.participant) +
           ",\"participants_alive\":" + std::to_string(alive) +
           ",\"self_edges\":" + std::to_string(self_edges) +
           ",\"foreign_edges_mirrored\":" + std::to_string(st.foreign_edges_mirrored) +
           ",\"pending_ops\":" + std::to_string(st.pending_ops) +
           ",\"flushes\":" + std::to_string(st.flushes) +
           ",\"dropped_publishes\":" + std::to_string(st.dropped_publishes) + "}";
  } else {
    out += "null";
  }
  out += ",\"store\":";
  if (store_) {
    const persist::StoreStatsSnapshot ss = store_->stats();
    out += "{\"queued\":" + std::to_string(ss.queued) +
           ",\"compactions\":" + std::to_string(ss.compactions) +
           ",\"io_errors\":" + std::to_string(ss.io_errors) +
           ",\"resyncs\":" + std::to_string(ss.resyncs) + "}";
  } else {
    out += "null";
  }
  out += ",\"signatures\":" + std::to_string(history_->size()) + "}";
  return out;
}

void Runtime::HealthLoop() {
  recorder_->NameThisThread("dimmunix-health");
  // The evaluator ticks on τ.
  const auto period = config_.monitor_period.count() > 0 ? config_.monitor_period
                                                         : std::chrono::milliseconds(100);
  std::unique_lock<std::mutex> stop_guard(health_stop_m_);
  while (!health_stop_requested_) {
    stop_guard.unlock();
    RunHealthCheckNow();
    if (!config_.fleet_daemon.empty()) {
      PushAlertsToFleet();
    }
    stop_guard.lock();
    health_stop_cv_.wait_for(stop_guard, period, [this] { return health_stop_requested_; });
  }
}

void Runtime::StopHealthThread() {
  if (!health_running_) {
    return;
  }
  {
    std::lock_guard<std::mutex> guard(health_stop_m_);
    health_stop_requested_ = true;
  }
  health_stop_cv_.notify_all();
  health_thread_.join();
  health_running_ = false;
}

void Runtime::PushAlertsToFleet() {
  // One line per runtime: "reporter;active;total;age_ms;rule+rule" — pushed
  // on every raised-count change and refreshed every few ticks so the
  // daemon's table survives its staleness pruning. Health-thread only;
  // failures are silent (the daemon may simply not be up yet).
  const obs::HealthEngine::Summary summary = health_->GetSummary();
  ++health_ticks_since_push_;
  constexpr std::uint64_t kRefreshTicks = 10;
  if (summary.raised() == last_pushed_raised_ && health_ticks_since_push_ < kRefreshTicks) {
    return;
  }
  std::string rules;
  for (const obs::AlertSnapshot& alert : health_->Snapshot()) {
    if (alert.state == obs::AlertState::kFiring || alert.state == obs::AlertState::kActive) {
      if (!rules.empty()) {
        rules += '+';
      }
      rules += alert.rule;
    }
  }
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  std::string record = std::string(host) + ":" + std::to_string(::getpid()) + ";" +
                       std::to_string(summary.raised()) + ";" + std::to_string(summary.total) +
                       ";0;" + (rules.empty() ? "-" : rules);
  std::string reply;
  std::string error;
  if (fleet::QueryTcp(config_.fleet_daemon, "fleet alerts-report " + record,
                      std::chrono::milliseconds(500), &reply, &error)) {
    last_pushed_raised_ = summary.raised();
    health_ticks_since_push_ = 0;
  }
}

Runtime& Runtime::Global() {
  // Leaked intentionally: the global runtime must outlive all host-program
  // threads, including those still running at static destruction time.
  static Runtime* instance = new Runtime(Config::FromEnvironment());
  return *instance;
}

int Runtime::DisableLastAvoidedSignature() {
  const int index = engine_->last_avoided_signature();
  if (index < 0) {
    return -1;
  }
  history_->SetDisabled(index, true);
  engine_->NotifyHistoryChanged();
  PersistHistory();
  DIMMUNIX_LOG(kInfo) << "signature " << index << " disabled by user request";
  return index;
}

bool Runtime::SetSignatureDisabled(int index, bool disabled) {
  if (index < 0 || static_cast<std::size_t>(index) >= history_->size()) {
    return false;
  }
  history_->SetDisabled(index, disabled);
  engine_->NotifyHistoryChanged();
  PersistHistory();
  DIMMUNIX_LOG(kInfo) << "signature " << index << (disabled ? " disabled" : " enabled")
                      << " by operator request";
  return true;
}

bool Runtime::SetSignatureMatchDepth(int index, int depth) {
  if (index < 0 || static_cast<std::size_t>(index) >= history_->size() || depth < 1 ||
      depth > config_.max_match_depth) {
    return false;
  }
  history_->SetMatchDepth(index, depth);
  engine_->NotifyHistoryChanged();
  PersistHistory();
  DIMMUNIX_LOG(kInfo) << "signature " << index << " matching depth set to " << depth
                      << " by operator request";
  return true;
}

void Runtime::PersistHistory() {
  // Operator-facing mutations persist synchronously — when a disable
  // returns, it is durable (merged, not overwriting other processes' work).
  if (store_) {
    store_->SaveNow();
  }
}

bool Runtime::SaveHistoryNow() {
  if (!store_) {
    return false;
  }
  return store_->SaveNow();
}

bool Runtime::ExportHistoryTo(const std::string& path) {
  if (path.empty()) {
    return false;
  }
  if (store_) {
    return store_->ExportTo(path);
  }
  std::string error;
  if (!persist::SaveHistoryFile(path, history_->ExportImage(), &error)) {
    DIMMUNIX_LOG(kError) << "history export: " << error;
    return false;
  }
  return true;
}

int Runtime::MergeHistoryFrom(const std::string& path) {
  if (store_) {
    const int added = store_->MergeFrom(path);
    if (added > 0) {
      DIMMUNIX_LOG(kInfo) << "history: merged " << added << " signature(s) from " << path;
    }
    return added;
  }
  persist::HistoryImage image;
  const persist::LoadResult load = persist::LoadHistoryFile(path, &image);
  if (!load.ok() || load.status == persist::LoadStatus::kNotFound) {
    return -1;
  }
  const int added = history_->MergeImage(image, persist::MergePolicy::kPreferIncoming);
  engine_->NotifyHistoryChanged();
  return added;
}

void Runtime::RestartCalibrationAfterUpgrade() {
  if (!config_.calibration_enabled) {
    return;
  }
  const std::size_t count = history_->size();
  for (std::size_t i = 0; i < count; ++i) {
    history_->Mutate(static_cast<int>(i), [&](Signature& s) {
      s.calibration = CalibrationState(config_.max_match_depth, config_.calibration_na,
                                       config_.calibration_nt);
      s.match_depth = s.calibration.current_depth();
    });
  }
  engine_->NotifyHistoryChanged();
  DIMMUNIX_LOG(kInfo) << "calibration restarted for " << count << " signature(s) after upgrade";
}

bool Runtime::ReloadHistory() {
  if (config_.history_path.empty()) {
    return false;
  }
  const bool ok = history_->Load(config_.history_path);
  engine_->NotifyHistoryChanged();
  DIMMUNIX_LOG(kInfo) << "history reloaded from " << config_.history_path;
  return ok;
}

}  // namespace dimmunix
