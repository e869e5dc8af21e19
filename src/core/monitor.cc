// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/core/monitor.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/obs/incident.h"
#include "src/persist/image.h"

namespace dimmunix {

Monitor::Monitor(const Config& config, StackTable* stacks, History* history, EventQueue* queue,
                 AvoidanceEngine* engine, persist::HistoryStore* store, obs::Recorder* recorder)
    : config_(config),
      stacks_(stacks),
      history_(history),
      queue_(queue),
      engine_(engine),
      store_(store),
      recorder_(recorder),
      calibrator_(config) {}

Monitor::~Monitor() { Stop(); }

void Monitor::Start() {
  if (running_) {
    return;
  }
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void Monitor::Stop() {
  if (!running_) {
    return;
  }
  {
    std::lock_guard<std::mutex> guard(stop_m_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  running_ = false;
  // Final drain so no detected state is lost at shutdown.
  RunOnce();
}

void Monitor::Loop() {
  if (recorder_ != nullptr) {
    recorder_->NameThisThread("dimmunix-monitor");
  }
  std::unique_lock<std::mutex> stop_guard(stop_m_);
  while (!stop_requested_) {
    stop_guard.unlock();
    RunOnce();
    stop_guard.lock();
    stop_cv_.wait_for(stop_guard, config_.monitor_period, [this] { return stop_requested_; });
  }
}

void Monitor::RunOnce() {
  std::lock_guard<std::mutex> run_guard(run_m_);
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t pass_begin =
      recorder_ != nullptr && recorder_->tracing() ? obs::NowNs() : 0;
  const std::uint64_t events_before =
      pass_begin != 0 ? stats_.events_processed.load(std::memory_order_relaxed) : 0;
  DrainEvents();
  HandleDeadlocks();
  HandleStarvations();
  HandleCalibration();
  // Open false-positive probes need to observe every acquired/release, so
  // hot-event coalescing pauses while any probe window is live.
  engine_->SetEventCoalescing(!config_.calibration_enabled ||
                              calibrator_.open_probes() == 0);
  if (pass_begin != 0) {
    const std::uint64_t end_ns = obs::NowNs();
    recorder_->Span(obs::TraceEventType::kMonitorPass, end_ns, end_ns - pass_begin,
                    /*aux=*/0, /*mode=*/0,
                    stats_.events_processed.load(std::memory_order_relaxed) - events_before);
  }
}

RagSnapshot Monitor::SnapshotRag() {
  std::lock_guard<std::mutex> run_guard(run_m_);
  return rag_.Snapshot();
}

void Monitor::DrainEvents() {
  const bool probes_enabled = config_.calibration_enabled;
  // Sweep the per-thread staging buffers first: a thread that is parked (or
  // blocked on a real mutex) cannot flush its own buffered wait/hold edges,
  // and detection must see them within one monitor tick.
  engine_->FlushAllThreadEvents();
  // Staged events reach the queue out of global order (each buffer flushes
  // as a unit); their emission-time stamps restore it. Applying in emission
  // order keeps the §5.2 guarantee — a release of L drains before another
  // thread's subsequent acquired of L.
  std::vector<Event> batch;
  while (auto popped = queue_->Pop()) {
    batch.push_back(std::move(*popped));
  }
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Event& a, const Event& b) { return a.seq < b.seq; });
  for (Event& drained : batch) {
    Event* event = &drained;
    stats_.events_processed.fetch_add(1, std::memory_order_relaxed);
    if (event->type == EventType::kAvoided) {
      if (probes_enabled) {
        std::unordered_map<ThreadId, std::vector<LockId>> held_seed;
        for (const YieldCause& cause : event->causes) {
          held_seed[cause.thread] = rag_.HeldLocks(cause.thread);
        }
        calibrator_.OnAvoided(*event, held_seed, Now());
        stats_.fp_probes_opened.fetch_add(1, std::memory_order_relaxed);
        // Calibration ladder bookkeeping (§5.5).
        const int sig = event->signature_index;
        bool ladder_done = false;
        bool recalibrate = false;
        int new_depth = -1;
        history_->Mutate(sig, [&](Signature& s) {
          if (s.calibration.calibrating()) {
            ladder_done = s.calibration.RecordAvoidance(event->deepest_match_depth);
            new_depth = s.calibration.current_depth();
            s.match_depth = new_depth;
          } else {
            recalibrate = s.calibration.CountTowardRecalibration();
            if (recalibrate) {
              s.calibration.Restart();
              new_depth = s.calibration.current_depth();
              s.match_depth = new_depth;
            }
          }
        });
        if (new_depth > 0) {
          engine_->NotifyHistoryChanged();
        }
        if (ladder_done) {
          DIMMUNIX_LOG(kInfo) << "calibration complete for signature " << sig << ": depth "
                              << new_depth;
        }
      }
      // Forensics: an avoidance IS the immunity working, but the operator
      // still wants to know why a thread was parked. The yielding thread
      // leads the list (it is the bundle's "responsible thread").
      if (incident_log_ != nullptr) {
        std::vector<ThreadId> involved;
        involved.push_back(event->thread);
        for (const YieldCause& cause : event->causes) {
          if (std::find(involved.begin(), involved.end(), cause.thread) == involved.end()) {
            involved.push_back(cause.thread);
          }
        }
        CaptureIncident("avoidance", event->signature_index, involved);
      }
      continue;
    }
    if (event->type == EventType::kAcquired || event->type == EventType::kRelease) {
      calibrator_.OnLockOp(*event);
    }
    rag_.Apply(*event);
  }
}

int Monitor::ArchiveSignature(SignatureKind kind, const std::vector<StackId>& stacks,
                              bool* added) {
  // Drop invalid labels (e.g. a hold edge whose stack was never seen — can
  // happen only for events predating engine startup).
  std::vector<StackId> clean;
  clean.reserve(stacks.size());
  for (StackId id : stacks) {
    if (id != kInvalidStackId) {
      clean.push_back(id);
    }
  }
  if (clean.empty()) {
    *added = false;
    return -1;
  }
  const int initial_depth = config_.calibration_enabled ? 1 : config_.default_match_depth;
  const int index = history_->Add(kind, std::move(clean), initial_depth, added);
  if (*added) {
    stats_.signatures_saved.fetch_add(1, std::memory_order_relaxed);
    if (config_.calibration_enabled) {
      history_->Mutate(index, [&](Signature& s) {
        s.calibration =
            CalibrationState(config_.max_match_depth, config_.calibration_na,
                             config_.calibration_nt);
        s.match_depth = s.calibration.current_depth();
      });
    }
    PersistHistory();
    engine_->NotifyHistoryChanged();
  }
  return index;
}

void Monitor::PersistHistory() {
  // The runtime creates the store exactly when a history path is set. O(1)
  // notify: the store's writer thread writes the history, so file I/O never
  // delays the detection loop (or, worse, event draining).
  if (store_ != nullptr) {
    store_->NotifySignatureChanged();
  }
}

void Monitor::HandleDeadlocks() {
  for (const DeadlockCycle& cycle : rag_.DetectDeadlocks()) {
    stats_.deadlocks_detected.fetch_add(1, std::memory_order_relaxed);
    bool added = false;
    const int index = ArchiveSignature(SignatureKind::kDeadlock, cycle.stacks, &added);
    DIMMUNIX_LOG(kInfo) << "deadlock detected: " << cycle.threads.size()
                        << " thread(s); signature " << index << (added ? " (new)" : " (known)");
    if (deadlock_hook_) {
      deadlock_hook_(cycle, index);
    }
    CaptureIncident("deadlock", index, cycle.threads);
    if (config_.deadlock_action == DeadlockAction::kBreakVictim && !cycle.threads.empty()) {
      // A cross-process cycle can contain foreign (bridge-mirrored)
      // threads; only a LOCAL thread's acquisition can be canceled from
      // here. Break the first local participant — if the cycle is entirely
      // foreign, its owners' monitors will break it on their side.
      for (const ThreadId victim : cycle.threads) {
        if (engine_->registry().Contains(victim)) {
          engine_->CancelAcquisition(victim);
          break;
        }
      }
    }
  }
}

void Monitor::HandleStarvations() {
  for (const StarvationCycle& cycle : rag_.DetectStarvations()) {
    stats_.starvations_detected.fetch_add(1, std::memory_order_relaxed);
    bool added = false;
    const int index = ArchiveSignature(SignatureKind::kStarvation, cycle.stacks, &added);
    DIMMUNIX_LOG(kInfo) << "induced starvation detected (starved thread " << cycle.starved
                        << "); signature " << index;
    if (starvation_hook_) {
      starvation_hook_(cycle, index);
    }
    CaptureIncident("starvation", index, cycle.threads);
    if (config_.immunity == ImmunityMode::kStrong) {
      // §5.4: "In strong immunity mode, the program is restarted every time
      // a starvation is encountered."
      stats_.restarts_requested.fetch_add(1, std::memory_order_relaxed);
      if (restart_hook_) {
        restart_hook_();
      }
    } else {
      // Weak immunity: break the starvation by releasing the yielding
      // thread that holds the most locks (§3).
      const ThreadId victim =
          cycle.break_victim != kInvalidThreadId ? cycle.break_victim : cycle.starved;
      engine_->BreakYield(victim);
      stats_.starvations_broken.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Monitor::HandleCalibration() {
  for (const ProbeVerdict& verdict : calibrator_.Expire(Now())) {
    if (verdict.false_positive) {
      stats_.false_positives.fetch_add(1, std::memory_order_relaxed);
      history_->RecordFalsePositive(verdict.signature_index);
    } else {
      stats_.true_positives.fetch_add(1, std::memory_order_relaxed);
    }
    bool obsolete = false;
    history_->Mutate(verdict.signature_index, [&](Signature& s) {
      s.calibration.RecordVerdict(verdict.depth, verdict.deepest, verdict.false_positive);
      // §8: "any signatures that encounter 100% false positive rate after
      // this recalibration can be automatically discarded as obsolete."
      // Checked on every verdict once the ladder settled, so lagging probe
      // windows still count.
      if (!s.disabled && !s.calibration.calibrating()) {
        const int chosen = s.calibration.current_depth();
        const bool enough_data =
            s.calibration.avoid_count(chosen) >= static_cast<std::uint32_t>(config_.calibration_na);
        if (enough_data && s.calibration.FpRate(chosen) >= 1.0) {
          s.disabled = true;
          obsolete = true;
        }
      }
    });
    if (obsolete) {
      stats_.signatures_discarded.fetch_add(1, std::memory_order_relaxed);
      engine_->NotifyHistoryChanged();
      PersistHistory();
      DIMMUNIX_LOG(kInfo) << "signature " << verdict.signature_index
                          << " discarded as obsolete (100% FP after recalibration)";
    }
  }
}

void Monitor::CaptureIncident(const char* kind, int signature_index,
                              const std::vector<ThreadId>& threads) {
  if (incident_log_ == nullptr || !incident_log_->enabled()) {
    return;
  }
  obs::IncidentContext ctx;
  ctx.kind = kind;
  ctx.signature_index = signature_index;
  if (signature_index >= 0 && static_cast<std::size_t>(signature_index) < history_->size()) {
    const Signature sig = history_->Get(signature_index);
    ctx.match_depth = sig.match_depth;
    persist::SignatureRecord rec;
    rec.kind = static_cast<std::uint8_t>(sig.kind);
    rec.match_depth = sig.match_depth;
    for (const StackId stack : sig.stacks) {
      rec.stacks.push_back(stacks_->Get(stack).frames);
      ctx.signature_stacks.push_back(stacks_->Describe(stack));
    }
    ctx.signature_hash = persist::SignatureHash(rec);
  }
  ctx.threads = threads;
  // The responsible thread is the first LOCAL participant — foreign
  // (bridge-mirrored) threads have no ring in this process.
  for (const ThreadId thread : threads) {
    if (engine_->registry().Contains(thread)) {
      ctx.victim = thread;
      ctx.victim_os_tid = engine_->registry().Slot(thread).os_tid;
      break;
    }
  }
  ctx.rag = rag_.Snapshot();
  incident_log_->Capture(ctx);
}

void Monitor::SetIncidentLog(obs::IncidentLog* log) { incident_log_ = log; }

void Monitor::SetDeadlockHook(DeadlockHook hook) { deadlock_hook_ = std::move(hook); }
void Monitor::SetStarvationHook(StarvationHook hook) { starvation_hook_ = std::move(hook); }
void Monitor::SetRestartHook(RestartHook hook) { restart_hook_ = std::move(hook); }

}  // namespace dimmunix
