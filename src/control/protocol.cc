// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/control/protocol.h"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/core/runtime.h"
#include "src/fleet/net.h"
#include "src/obs/export.h"
#include "src/obs/health.h"
#include "src/obs/incident.h"

namespace dimmunix {
namespace control {
namespace {

std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
      ++i;
    }
    if (i > start) {
      tokens.push_back(line.substr(start, i - start));
    }
  }
  return tokens;
}

bool ParseInt(std::string_view token, int* out) {
  int value = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

std::string Err(const std::string& reason) { return "err " + reason + "\n"; }

const char* KindName(SignatureKind kind) {
  return kind == SignatureKind::kDeadlock ? "deadlock" : "starvation";
}

const char* ImmunityName(ImmunityMode mode) {
  return mode == ImmunityMode::kStrong ? "strong" : "weak";
}

// First "key=value" line of a daemon reply, or "" — used to condense a
// `fleet status` reply into the one-line summary `status` carries.
std::string ReplyValue(const std::string& reply, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while (pos < reply.size()) {
    std::size_t end = reply.find('\n', pos);
    if (end == std::string::npos) {
      end = reply.size();
    }
    if (reply.compare(pos, needle.size(), needle) == 0) {
      return reply.substr(pos + needle.size(), end - pos - needle.size());
    }
    pos = end + 1;
  }
  return {};
}

// The daemon-bound line for a fleet request (the runtime proxies it verbatim).
std::string FleetLineFor(const Request& request) {
  switch (request.kind) {
    case CommandKind::kFleetStatus:
      return "fleet status";
    case CommandKind::kFleetPeers:
      return "fleet peers";
    case CommandKind::kFleetPush:
      return "fleet push " + request.path;
    case CommandKind::kFleetPull:
      return "fleet pull " + request.path;
    case CommandKind::kFleetExec:
      return "fleet exec " + request.rest;
    case CommandKind::kFleetAlerts:
      return "fleet alerts";
    case CommandKind::kFleetAlertsReport:
      return "fleet alerts-report " + request.rest;
    default:
      return {};
  }
}

std::string DoFleetProxy(Runtime& rt, const Request& request) {
  const std::string& daemon = rt.config().fleet_daemon;
  if (daemon.empty()) {
    return Err("no fleet daemon attached (set DIMMUNIX_FLEET=host:port)");
  }
  std::string reply;
  std::string error;
  if (!fleet::QueryTcp(daemon, FleetLineFor(request), std::chrono::seconds(5), &reply, &error)) {
    return Err("fleet daemon " + daemon + " unreachable: " + error);
  }
  return reply;
}

std::string DoStatus(Runtime& rt) {
  const EngineStatsSnapshot engine = rt.engine().stats().Snapshot();
  const MonitorStatsSnapshot monitor = rt.monitor().stats().Snapshot();
  std::size_t disabled = 0;
  rt.history().ForEach([&](int, const Signature& s) { disabled += s.disabled ? 1 : 0; });
  std::ostringstream out;
  out << "ok\n";
  out << "pid=" << ::getpid() << "\n";
  out << "enabled=" << (rt.config().enabled ? 1 : 0) << "\n";
  out << "immunity=" << ImmunityName(rt.config().immunity) << "\n";
  out << "history_path=" << rt.config().history_path << "\n";
  out << "signatures=" << rt.history().size() << "\n";
  out << "signatures_disabled=" << disabled << "\n";
  out << "last_avoided=" << rt.engine().last_avoided_signature() << "\n";
  out << "avoidance_yields=" << engine.yields << "\n";
  out << "yield_sleeps=" << engine.yield_sleeps << "\n";
  out << "lock_requests=" << engine.requests << "\n";
  out << "monitor_batches=" << monitor.batches << "\n";
  out << "deadlocks_detected=" << monitor.deadlocks_detected << "\n";
  out << "starvations_detected=" << monitor.starvations_detected << "\n";
  // Stop-the-stripes accounting: with the incremental matcher the epoch is
  // the rare slow path, so epoch_entries staying near zero under load is
  // itself the tail-health signal; match_* show how cover searches routed.
  out << "epoch_entries=" << engine.epoch_entries << "\n";
  out << "epoch_stall_ns=" << engine.epoch_stall_ns << "\n";
  out << "epoch_hold_ns=" << engine.epoch_hold_ns << "\n";
  out << "match_fast_path=" << engine.match_fast_path << "\n";
  out << "match_slow_path=" << engine.match_slow_path << "\n";
  out << "tracing=" << (rt.recorder().tracing() ? 1 : 0) << "\n";
  // Self-diagnosis roll-up: raised (firing + active) over the rule count;
  // `alerts` has the per-rule breakdown.
  const obs::HealthEngine::Summary health = rt.health().GetSummary();
  out << "alerts=" << health.raised() << "/" << health.total << "\n";
  if (persist::HistoryStore* store = rt.history_store(); store != nullptr) {
    // HistoryStore health: is persistence keeping up, and how stale is our
    // view of the shared file?
    const persist::StoreStatsSnapshot s = store->stats();
    out << "store.queued=" << s.queued << "\n";
    out << "store.compactions=" << s.compactions << "\n";
    out << "store.foreign_merged=" << s.foreign_merged << "\n";
    out << "store.io_errors=" << s.io_errors << "\n";
    out << "store.resyncs=" << s.resyncs << "\n";
    out << "store.last_resync_age_ms=" << s.last_resync_age_ms << "\n";
  }
  if (ipc::IpcBridge* bridge = rt.ipc_bridge(); bridge != nullptr) {
    const ipc::IpcStatus s = bridge->SnapshotStatus();
    out << "ipc.participant=" << s.participant << "\n";
    out << "ipc.foreign_edges=" << s.foreign_edges_mirrored << "\n";
  }
  if (const std::string& daemon = rt.config().fleet_daemon; !daemon.empty()) {
    // One condensed line about the attached daemon. Short timeout: `status`
    // must stay snappy even when the daemon is down.
    std::string reply;
    std::string error;
    if (fleet::QueryTcp(daemon, "fleet status", std::chrono::seconds(1), &reply, &error) &&
        reply.compare(0, 2, "ok") == 0) {
      out << "fleet=" << daemon << ",peers=" << ReplyValue(reply, "peers")
          << ",last_sync_age_ms=" << ReplyValue(reply, "last_sync_age_ms")
          << ",in=" << ReplyValue(reply, "records_in")
          << ",out=" << ReplyValue(reply, "records_out") << "\n";
    } else {
      out << "fleet=unreachable(" << daemon << ")\n";
    }
  }
  return out.str();
}

std::string DoIpc(Runtime& rt) {
  ipc::IpcBridge* bridge = rt.ipc_bridge();
  if (bridge == nullptr) {
    return Err("no IPC arena configured (set DIMMUNIX_IPC)");
  }
  const ipc::IpcStatus s = bridge->SnapshotStatus();
  std::ostringstream out;
  out << "ok\n";
  out << "arena=" << s.arena_path << "\n";
  out << "participant=" << s.participant << "\n";
  out << "generation=" << s.generation << "\n";
  out << "ticks=" << s.ticks << "\n";
  out << "foreign_edges=" << s.foreign_edges_mirrored << "\n";
  out << "participants_reclaimed=" << s.participants_reclaimed << "\n";
  out << "dropped_publishes=" << s.dropped_publishes << "\n";
  out << "flushes=" << s.flushes << "\n";
  out << "flush_ops=" << s.flush_ops << "\n";
  out << "pending_ops=" << s.pending_ops << "\n";
  out << "id_cache_hits=" << s.id_cache_hits << "\n";
  out << "id_cache_misses=" << s.id_cache_misses << "\n";
  for (const ipc::ParticipantInfo& p : s.participants) {
    out << "participant " << p.index << " pid=" << p.pid << " generation=" << p.generation
        << " alive=" << (p.alive ? 1 : 0) << " self=" << (p.self ? 1 : 0)
        << " edges=" << p.edges << " heartbeat_age_ms=" << p.heartbeat_age_ms
        << " proto=" << p.proto_version << " flush_seq=" << p.flush_seq << "\n";
  }
  return out.str();
}

std::string DoStats(Runtime& rt) {
  const EngineStatsSnapshot e = rt.engine().stats().Snapshot();
  const MonitorStatsSnapshot m = rt.monitor().stats().Snapshot();
  std::ostringstream out;
  out << "ok\n";
  out << "engine.requests=" << e.requests << "\n";
  out << "engine.gos=" << e.gos << "\n";
  out << "engine.yields=" << e.yields << "\n";
  out << "engine.wakes=" << e.wakes << "\n";
  out << "engine.yield_timeouts=" << e.yield_timeouts << "\n";
  out << "engine.yield_sleeps=" << e.yield_sleeps << "\n";
  out << "engine.reentrant_acquisitions=" << e.reentrant_acquisitions << "\n";
  out << "engine.acquisitions=" << e.acquisitions << "\n";
  out << "engine.releases=" << e.releases << "\n";
  out << "engine.trylock_cancels=" << e.trylock_cancels << "\n";
  out << "engine.broken_acquisitions=" << e.broken_acquisitions << "\n";
  out << "engine.signatures_disabled=" << e.signatures_disabled << "\n";
  out << "engine.depth_true_yields=" << e.depth_true_yields << "\n";
  out << "engine.depth_fp_yields=" << e.depth_fp_yields << "\n";
  out << "engine.epoch_entries=" << e.epoch_entries << "\n";
  out << "engine.epoch_stall_ns=" << e.epoch_stall_ns << "\n";
  out << "engine.epoch_hold_ns=" << e.epoch_hold_ns << "\n";
  out << "engine.match_fast_path=" << e.match_fast_path << "\n";
  out << "engine.match_slow_path=" << e.match_slow_path << "\n";
  out << "engine.match_fast_retries=" << e.match_fast_retries << "\n";
  out << "monitor.batches=" << m.batches << "\n";
  out << "monitor.events_processed=" << m.events_processed << "\n";
  out << "monitor.deadlocks_detected=" << m.deadlocks_detected << "\n";
  out << "monitor.starvations_detected=" << m.starvations_detected << "\n";
  out << "monitor.signatures_saved=" << m.signatures_saved << "\n";
  out << "monitor.starvations_broken=" << m.starvations_broken << "\n";
  out << "monitor.restarts_requested=" << m.restarts_requested << "\n";
  out << "monitor.fp_probes_opened=" << m.fp_probes_opened << "\n";
  out << "monitor.false_positives=" << m.false_positives << "\n";
  out << "monitor.true_positives=" << m.true_positives << "\n";
  out << "monitor.signatures_discarded=" << m.signatures_discarded << "\n";
  return out.str();
}

std::string DoHistory(Runtime& rt) {
  // Copy under the history lock, format outside: History::lock_ sits on the
  // application's lock-acquisition hot path and must not be held across
  // per-signature stream formatting.
  std::vector<Signature> signatures;
  signatures.reserve(rt.history().size());
  rt.history().ForEach([&](int, const Signature& s) { signatures.push_back(s); });
  std::ostringstream out;
  out << "ok\n";
  for (std::size_t index = 0; index < signatures.size(); ++index) {
    const Signature& s = signatures[index];
    out << "sig " << index << " kind=" << KindName(s.kind) << " stacks=" << s.stacks.size()
        << " depth=" << s.match_depth << " disabled=" << (s.disabled ? 1 : 0)
        << " avoidance=" << s.avoidance_count << " abort=" << s.abort_count
        << " fp=" << s.fp_count << " calibrating=" << (s.calibration.calibrating() ? 1 : 0)
        << "\n";
  }
  return out.str();
}

std::string DoRag(Runtime& rt) {
  const RagSnapshot snap = rt.monitor().SnapshotRag();
  std::ostringstream out;
  out << "ok\n";
  out << "threads=" << snap.threads.size() << "\n";
  out << "locks=" << snap.lock_count << "\n";
  out << "yield_edges=" << snap.yield_edge_count << "\n";
  for (const RagThreadInfo& t : snap.threads) {
    out << "thread " << t.id << " waiting=" << (t.waiting ? 1 : 0);
    if (t.foreign) {
      out << " foreign=1";  // mirrored from another process by the IPC bridge
    }
    if (t.waiting) {
      out << " wait_lock=" << t.wait_lock << " wait_mode=" << AcquireModeTag(t.wait_mode);
    }
    out << " held=" << t.held.size() << " yields=" << t.yield_edges;
    if (!t.held.empty()) {
      // Each hold is tagged with its mode: 123:X (exclusive) / 456:S (shared).
      out << " held_locks=";
      for (std::size_t i = 0; i < t.held.size(); ++i) {
        out << (i == 0 ? "" : ",") << t.held[i].lock << ':' << AcquireModeTag(t.held[i].mode);
      }
    }
    out << "\n";
  }
  return out.str();
}

std::string DoConfig(Runtime& rt) {
  const Config& c = rt.config();
  std::ostringstream out;
  out << "ok\n";
  out << "enabled=" << (c.enabled ? 1 : 0) << "\n";
  out << "monitor_period_ms=" << c.monitor_period.count() << "\n";
  out << "default_match_depth=" << c.default_match_depth << "\n";
  out << "max_match_depth=" << c.max_match_depth << "\n";
  out << "calibration_enabled=" << (c.calibration_enabled ? 1 : 0) << "\n";
  out << "calibration_na=" << c.calibration_na << "\n";
  out << "calibration_nt=" << c.calibration_nt << "\n";
  out << "immunity=" << ImmunityName(c.immunity) << "\n";
  out << "yield_timeout_ms=" << c.yield_timeout.count() << "\n";
  out << "auto_disable_aborts=" << c.auto_disable_aborts << "\n";
  out << "ignore_yield_decisions=" << (c.ignore_yield_decisions ? 1 : 0) << "\n";
  out << "engine_stripes=" << rt.engine().stripe_count() << "\n";
  out << "history_path=" << c.history_path << "\n";
  out << "history_resync_ms=" << c.history_resync_period.count() << "\n";
  out << "ipc_path=" << c.ipc_path << "\n";
  out << "ipc_bridge_period_ms=" << c.ipc_bridge_period.count() << "\n";
  out << "control_socket_path=" << c.control_socket_path << "\n";
  out << "fleet_daemon=" << c.fleet_daemon << "\n";
  return out.str();
}

std::string DoSetDisabled(Runtime& rt, int index, bool disabled) {
  if (!rt.SetSignatureDisabled(index, disabled)) {
    return Err("signature index out of range");
  }
  std::ostringstream out;
  out << "ok\nindex=" << index << "\ndisabled=" << (disabled ? 1 : 0) << "\n";
  return out.str();
}

std::string DoDisableLast(Runtime& rt) {
  const int index = rt.DisableLastAvoidedSignature();
  if (index < 0) {
    return Err("no signature has been avoided yet");
  }
  const Signature sig = rt.history().Get(index);
  std::ostringstream out;
  out << "ok\nindex=" << index << "\navoidance=" << sig.avoidance_count << "\n";
  return out.str();
}

std::string DoReload(Runtime& rt) {
  if (rt.config().history_path.empty()) {
    return Err("no history file configured");
  }
  const bool ok = rt.ReloadHistory();
  std::ostringstream out;
  out << "ok\nreloaded=" << (ok ? 1 : 0) << "\nsignatures=" << rt.history().size() << "\n";
  return out.str();
}

std::string DoSetDepth(Runtime& rt, int index, int depth) {
  if (!rt.SetSignatureMatchDepth(index, depth)) {
    return Err("signature index or depth out of range");
  }
  std::ostringstream out;
  out << "ok\nindex=" << index << "\ndepth=" << depth << "\n";
  return out.str();
}

std::string DoHistorySave(Runtime& rt) {
  if (rt.config().history_path.empty()) {
    return Err("no history file configured");
  }
  if (!rt.SaveHistoryNow()) {
    return Err("history save failed (see process log)");
  }
  std::ostringstream out;
  out << "ok\nsaved=1\nsignatures=" << rt.history().size() << "\n";
  return out.str();
}

std::string DoHistoryMerge(Runtime& rt, const std::string& path) {
  const int added = rt.MergeHistoryFrom(path);
  if (added < 0) {
    return Err("cannot read " + path);
  }
  std::ostringstream out;
  out << "ok\nmerged_new=" << added << "\nsignatures=" << rt.history().size() << "\n";
  return out.str();
}

std::string DoHistoryExport(Runtime& rt, const std::string& path) {
  if (!rt.ExportHistoryTo(path)) {
    return Err("cannot write " + path);
  }
  std::ostringstream out;
  out << "ok\nexported=" << rt.history().size() << "\npath=" << path << "\n";
  return out.str();
}

std::string DoTraceSetEnabled(Runtime& rt, bool enabled) {
  if (enabled) {
    rt.recorder().StartTracing();
  } else {
    rt.recorder().StopTracing();
  }
  std::ostringstream out;
  out << "ok\ntracing=" << (enabled ? 1 : 0) << "\n";
  return out.str();
}

std::string DoTraceDump(Runtime& rt) {
  // The payload *is* the Chrome trace document; `dimctl trace dump > t.json`
  // produces a file Perfetto loads directly.
  return "ok\n" + obs::ChromeTraceJson(rt.recorder(), static_cast<std::uint64_t>(::getpid()));
}

std::string DoMetrics(Runtime& rt) {
  const EngineStatsSnapshot e = rt.engine().stats().Snapshot();
  const MonitorStatsSnapshot m = rt.monitor().stats().Snapshot();
  std::string out = "ok\n";
  obs::AppendPromCounter(&out, "dimmunix_lock_requests_total",
                         "Avoidance-protocol lock requests.", e.requests);
  obs::AppendPromCounter(&out, "dimmunix_lock_acquisitions_total",
                         "Committed lock acquisitions.", e.acquisitions);
  obs::AppendPromCounter(&out, "dimmunix_lock_releases_total", "Lock releases.", e.releases);
  obs::AppendPromCounter(&out, "dimmunix_avoidance_yields_total",
                         "Threads parked to dodge a deadlock signature.", e.yields);
  obs::AppendPromCounter(&out, "dimmunix_avoidance_wakes_total",
                         "Parked threads resumed after lock conditions changed.", e.wakes);
  obs::AppendPromCounter(&out, "dimmunix_yield_timeouts_total",
                         "Yields released by the global avoidance time bound.",
                         e.yield_timeouts);
  obs::AppendPromCounter(&out, "dimmunix_yield_sleeps_total",
                         "Yields that outlived the spin and slept until woken.",
                         e.yield_sleeps);
  obs::AppendPromCounter(&out, "dimmunix_trylock_cancels_total",
                         "Trylock requests canceled after a busy grant.", e.trylock_cancels);
  obs::AppendPromCounter(&out, "dimmunix_broken_acquisitions_total",
                         "Acquisitions broken out of a detected deadlock.",
                         e.broken_acquisitions);
  obs::AppendPromCounter(&out, "dimmunix_epoch_entries_total",
                         "Entries into the stop-the-stripes epoch guard.", e.epoch_entries);
  obs::AppendPromCounter(&out, "dimmunix_epoch_stall_nanoseconds_total",
                         "Total time spent queueing for the epoch guard.", e.epoch_stall_ns);
  obs::AppendPromCounter(&out, "dimmunix_epoch_hold_nanoseconds_total",
                         "Total time the epoch guard was held.", e.epoch_hold_ns);
  obs::AppendPromCounter(&out, "dimmunix_match_fast_path_total",
                         "Cover searches decided from per-stripe snapshots.", e.match_fast_path);
  obs::AppendPromCounter(&out, "dimmunix_match_slow_path_total",
                         "Cover searches that fell back to the epoch.", e.match_slow_path);
  obs::AppendPromCounter(&out, "dimmunix_match_fast_retries_total",
                         "Fast-path cover validations that had to rescan.",
                         e.match_fast_retries);
  obs::AppendPromCounter(&out, "dimmunix_monitor_batches_total",
                         "Monitor detection passes.", m.batches);
  obs::AppendPromCounter(&out, "dimmunix_monitor_events_total",
                         "Events drained from the lock-free queue.", m.events_processed);
  obs::AppendPromCounter(&out, "dimmunix_deadlocks_detected_total",
                         "Deadlock cycles detected and archived.", m.deadlocks_detected);
  obs::AppendPromCounter(&out, "dimmunix_starvations_detected_total",
                         "Avoidance-induced starvation cycles detected.",
                         m.starvations_detected);
  obs::AppendPromGauge(&out, "dimmunix_signatures", "Signatures in the live history.",
                       static_cast<std::uint64_t>(rt.history().size()));
  obs::AppendPromGauge(&out, "dimmunix_tracing_active",
                       "1 while the flight-recorder rings are armed.",
                       rt.recorder().tracing() ? 1 : 0);
  // Self-diagnosis plane: per-rule alert gauges plus incident-log counters.
  const obs::HealthEngine::Summary health = rt.health().GetSummary();
  obs::AppendPromCounter(&out, "dimmunix_health_ticks_total",
                         "Health-rules evaluator passes.", health.ticks);
  obs::AppendPromGauge(&out, "dimmunix_alerts_raised",
                       "Health rules currently firing or active.",
                       static_cast<std::uint64_t>(health.raised()));
  const std::vector<obs::AlertSnapshot> alerts = rt.health().Snapshot();
  obs::AppendPromFamily(&out, "dimmunix_alert_active",
                        "1 while the labeled health rule is firing or active.", "gauge");
  for (const obs::AlertSnapshot& a : alerts) {
    const bool raised =
        a.state == obs::AlertState::kFiring || a.state == obs::AlertState::kActive;
    obs::AppendPromSample(&out, "dimmunix_alert_active",
                          "rule=\"" + obs::PromLabelEscape(a.rule) + "\"", raised ? 1 : 0);
  }
  obs::AppendPromFamily(&out, "dimmunix_alert_fired_total",
                        "Times the labeled health rule transitioned into firing.", "counter");
  for (const obs::AlertSnapshot& a : alerts) {
    obs::AppendPromSample(&out, "dimmunix_alert_fired_total",
                          "rule=\"" + obs::PromLabelEscape(a.rule) + "\"", a.fired_count);
  }
  const obs::IncidentLog::Stats inc = rt.incident_log().GetStats();
  obs::AppendPromCounter(&out, "dimmunix_incidents_captured_total",
                         "Incident bundles written to the forensics ring.", inc.captured);
  obs::AppendPromCounter(&out, "dimmunix_incidents_suppressed_total",
                         "Incident captures skipped by the rate limit.", inc.suppressed);
  obs::AppendPromCounter(&out, "dimmunix_incidents_errors_total",
                         "Incident bundle write failures.", inc.errors);
  if (persist::HistoryStore* store = rt.history_store(); store != nullptr) {
    const persist::StoreStatsSnapshot s = store->stats();
    obs::AppendPromCounter(&out, "dimmunix_store_compactions_total",
                           "History snapshot compactions.", s.compactions);
    obs::AppendPromCounter(&out, "dimmunix_store_foreign_merged_total",
                           "Signatures learned from the shared history file.",
                           s.foreign_merged);
    obs::AppendPromCounter(&out, "dimmunix_store_io_errors_total",
                           "History writes that failed or were refused (file not decodable).",
                           s.io_errors);
  }
  if (ipc::IpcBridge* bridge = rt.ipc_bridge(); bridge != nullptr) {
    const ipc::IpcStatus s = bridge->SnapshotStatus();
    obs::AppendPromCounter(&out, "dimmunix_ipc_ticks_total", "IPC mirror passes.", s.ticks);
    obs::AppendPromGauge(&out, "dimmunix_ipc_foreign_edges",
                         "Foreign edges currently mirrored into the local RAG.",
                         s.foreign_edges_mirrored);
    obs::AppendPromCounter(&out, "dimmunix_ipc_flushes_total",
                           "Edge flushes into the arena.", s.flushes);
    obs::AppendPromCounter(&out, "dimmunix_ipc_flush_ops_total",
                           "Arena row writes and frees made by flushes.", s.flush_ops);
    obs::AppendPromGauge(&out, "dimmunix_ipc_pending_ops",
                         "Thread-lock pairs whose edges await the next flush.", s.pending_ops);
    obs::AppendPromCounter(&out, "dimmunix_global_id_cache_hits_total",
                           "Global-ID resolutions served from the per-thread cache.",
                           s.id_cache_hits);
    obs::AppendPromCounter(&out, "dimmunix_global_id_cache_misses_total",
                           "Global-ID resolutions that ran the slow path.",
                           s.id_cache_misses);
  }
  // Per-thread flight-recorder ring accounting. Labeled by the OS tid (the
  // ring identity) plus the thread's registered name when it has one —
  // `dropped_total` climbing on one thread is the churn locator.
  const std::vector<obs::Recorder::RingTotals> rings = rt.recorder().SnapshotRingTotals();
  obs::AppendPromFamily(&out, "dimmunix_trace_ring_written_total",
                        "Trace events recorded per flight-recorder ring.", "counter");
  for (const obs::Recorder::RingTotals& r : rings) {
    obs::AppendPromSample(&out, "dimmunix_trace_ring_written_total",
                          "thread=\"" + std::to_string(r.tid) + "\",name=\"" +
                              obs::PromLabelEscape(r.name) + "\"",
                          r.written);
  }
  obs::AppendPromFamily(&out, "dimmunix_trace_ring_dropped_total",
                        "Trace events lost to ring overwrite per ring.", "counter");
  for (const obs::Recorder::RingTotals& r : rings) {
    obs::AppendPromSample(&out, "dimmunix_trace_ring_dropped_total",
                          "thread=\"" + std::to_string(r.tid) + "\",name=\"" +
                              obs::PromLabelEscape(r.name) + "\"",
                          r.dropped);
  }
  for (int kind = 0; kind < obs::kHistoKindCount; ++kind) {
    const obs::HistoKind k = static_cast<obs::HistoKind>(kind);
    obs::AppendPromHistogram(&out, std::string("dimmunix_") + obs::HistoName(k),
                             "Latency histogram (nanoseconds), log-linear buckets.",
                             rt.recorder().histogram(k).Snapshot());
  }
  return out;
}

std::string DoHisto(Runtime& rt, const std::string& name) {
  const int kind = obs::HistoKindFromName(name);
  if (kind < 0) {
    return Err("unknown histogram '" + name +
               "' (try acquire_latency_ns | yield_duration_ns | epoch_hold_ns | "
               "match_duration_ns | ipc_flush_ns)");
  }
  return "ok\n" +
         obs::HistoReadout(rt.recorder().histogram(static_cast<obs::HistoKind>(kind)).Snapshot());
}

std::string DoAlerts(Runtime& rt) {
  const obs::HealthEngine::Summary summary = rt.health().GetSummary();
  std::ostringstream out;
  out << "ok\n";
  out << "alerts_raised=" << summary.raised() << "\n";
  out << "alerts_firing=" << summary.firing << "\n";
  out << "alerts_active=" << summary.active << "\n";
  out << "alerts_resolved=" << summary.resolved << "\n";
  out << "alerts_total=" << summary.total << "\n";
  out << "health_ticks=" << summary.ticks << "\n";
  out << "fired_total=" << summary.fired_total << "\n";
  for (const obs::AlertSnapshot& a : rt.health().Snapshot()) {
    out << "alert " << a.rule << " state=" << obs::AlertStateName(a.state) << " value=" << a.value
        << " threshold=" << a.threshold << " fired=" << a.fired_count << " signal=\"" << a.signal
        << "\"\n";
  }
  return out.str();
}

std::string DoIncidents(Runtime& rt, int index) {
  const obs::IncidentLog& log = rt.incident_log();
  if (!log.enabled()) {
    return Err("incident forensics disabled (set DIMMUNIX_INCIDENT_DIR)");
  }
  const std::vector<std::string> names = log.List();
  if (index >= 0) {
    if (static_cast<std::size_t>(index) >= names.size()) {
      return Err("incident index out of range (have " + std::to_string(names.size()) + ")");
    }
    std::ifstream file(log.dir() + "/" + names[static_cast<std::size_t>(index)],
                       std::ios::binary);
    if (!file) {
      return Err("cannot read " + names[static_cast<std::size_t>(index)]);
    }
    std::ostringstream body;
    body << file.rdbuf();
    // The payload *is* the bundle: `dimctl incidents show 0 | tail -n +2`
    // pipes straight into a JSON tool.
    return "ok\n" + body.str();
  }
  const obs::IncidentLog::Stats stats = log.GetStats();
  std::ostringstream out;
  out << "ok\n";
  out << "dir=" << log.dir() << "\n";
  out << "count=" << names.size() << "\n";
  out << "captured=" << stats.captured << "\n";
  out << "suppressed=" << stats.suppressed << "\n";
  out << "errors=" << stats.errors << "\n";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << "incident " << i << " " << names[i] << "\n";
  }
  return out.str();
}

}  // namespace

std::string HelpText() {
  return
      "status                  runtime summary\n"
      "stats                   engine + monitor counters\n"
      "history                 per-signature state\n"
      "history save            compact the history to disk now\n"
      "history merge <file>    merge signatures from <file> into the live history\n"
      "history export <file>   write the current history to <file> (v2)\n"
      "disable <idx>           disable a signature\n"
      "enable <idx>            re-enable a signature\n"
      "disable-last            disable the most recently avoided signature\n"
      "reload                  hot-reload the history file\n"
      "set-depth <idx> <d>     override a signature's matching depth\n"
      "rag                     thread/lock/yield-edge snapshot\n"
      "ipc                     cross-process arena participants + mirror stats\n"
      "config                  effective configuration\n"
      "trace start             arm the flight-recorder rings\n"
      "trace stop              disarm the rings (contents kept)\n"
      "trace dump              Chrome trace JSON of every ring (Perfetto-loadable)\n"
      "metrics                 counters + histograms, Prometheus text format\n"
      "histo <name>            percentile readout of one latency histogram\n"
      "alerts                  health-rules state, one line per rule\n"
      "incidents               list captured incident bundles\n"
      "incidents show <n>      one bundle's JSON payload, verbatim\n"
      "fleet status            attached dimmunixd summary\n"
      "fleet peers             per-peer gossip statistics\n"
      "fleet push <addr>       sync with <addr> now, send-only\n"
      "fleet pull <addr>       sync with <addr> now, merge-only\n"
      "fleet exec <cmd...>     run <cmd> on the daemon and every peer\n"
      "fleet alerts            fleet-wide health: per-host alert summaries\n"
      "help                    this text\n";
}

std::optional<Request> ParseRequest(std::string_view line, std::string* error) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) {
    SetError(error, "empty command");
    return std::nullopt;
  }
  const std::string_view name = tokens[0];
  Request request;
  std::size_t want_args = 0;
  if (name == "status") {
    request.kind = CommandKind::kStatus;
  } else if (name == "stats") {
    request.kind = CommandKind::kStats;
  } else if (name == "history") {
    // "history" lists; "history save|merge|export" are the durable ops.
    if (tokens.size() == 1) {
      request.kind = CommandKind::kHistory;
      return request;
    }
    const std::string_view sub = tokens[1];
    if (sub == "save" && tokens.size() == 2) {
      request.kind = CommandKind::kHistorySave;
      return request;
    }
    if ((sub == "merge" || sub == "export") && tokens.size() == 3) {
      request.kind = sub == "merge" ? CommandKind::kHistoryMerge : CommandKind::kHistoryExport;
      request.path = std::string(tokens[2]);
      return request;
    }
    SetError(error,
             "usage: history | history save | history merge <file> | history export <file>");
    return std::nullopt;
  } else if (name == "trace") {
    if (tokens.size() == 2) {
      const std::string_view sub = tokens[1];
      if (sub == "start") {
        request.kind = CommandKind::kTraceStart;
        return request;
      }
      if (sub == "stop") {
        request.kind = CommandKind::kTraceStop;
        return request;
      }
      if (sub == "dump") {
        request.kind = CommandKind::kTraceDump;
        return request;
      }
    }
    SetError(error, "usage: trace start | trace stop | trace dump");
    return std::nullopt;
  } else if (name == "fleet") {
    if (tokens.size() >= 2) {
      const std::string_view sub = tokens[1];
      if (sub == "status" && tokens.size() == 2) {
        request.kind = CommandKind::kFleetStatus;
        return request;
      }
      if (sub == "peers" && tokens.size() == 2) {
        request.kind = CommandKind::kFleetPeers;
        return request;
      }
      if ((sub == "push" || sub == "pull") && tokens.size() == 3) {
        request.kind = sub == "push" ? CommandKind::kFleetPush : CommandKind::kFleetPull;
        request.path = std::string(tokens[2]);
        return request;
      }
      if (sub == "exec" && tokens.size() >= 3) {
        request.kind = CommandKind::kFleetExec;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          if (i > 2) {
            request.rest += ' ';
          }
          request.rest += std::string(tokens[i]);
        }
        return request;
      }
      if (sub == "alerts" && tokens.size() == 2) {
        request.kind = CommandKind::kFleetAlerts;
        return request;
      }
      if (sub == "alerts-report" && tokens.size() >= 3) {
        // Machine verb: runtimes pushing their alert summaries to the
        // daemon. One record per token.
        request.kind = CommandKind::kFleetAlertsReport;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          if (i > 2) {
            request.rest += ' ';
          }
          request.rest += std::string(tokens[i]);
        }
        return request;
      }
    }
    SetError(error,
             "usage: fleet status | fleet peers | fleet push <addr> | fleet pull <addr> | "
             "fleet exec <cmd...> | fleet alerts");
    return std::nullopt;
  } else if (name == "metrics") {
    request.kind = CommandKind::kMetrics;
  } else if (name == "alerts") {
    request.kind = CommandKind::kAlerts;
  } else if (name == "incidents") {
    // "incidents" lists; "incidents show <n>" returns one bundle.
    if (tokens.size() == 1) {
      request.kind = CommandKind::kIncidents;
      return request;
    }
    if (tokens.size() == 3 && tokens[1] == "show" && ParseInt(tokens[2], &request.index) &&
        request.index >= 0) {
      request.kind = CommandKind::kIncidents;
      return request;
    }
    SetError(error, "usage: incidents | incidents show <n>");
    return std::nullopt;
  } else if (name == "histo") {
    if (tokens.size() != 2) {
      SetError(error, "usage: histo <name>");
      return std::nullopt;
    }
    request.kind = CommandKind::kHisto;
    request.path = std::string(tokens[1]);
    return request;
  } else if (name == "disable") {
    request.kind = CommandKind::kDisable;
    want_args = 1;
  } else if (name == "enable") {
    request.kind = CommandKind::kEnable;
    want_args = 1;
  } else if (name == "disable-last") {
    request.kind = CommandKind::kDisableLast;
  } else if (name == "reload") {
    request.kind = CommandKind::kReload;
  } else if (name == "set-depth") {
    request.kind = CommandKind::kSetDepth;
    want_args = 2;
  } else if (name == "rag") {
    request.kind = CommandKind::kRag;
  } else if (name == "ipc") {
    request.kind = CommandKind::kIpc;
  } else if (name == "config") {
    request.kind = CommandKind::kConfig;
  } else if (name == "help") {
    request.kind = CommandKind::kHelp;
  } else {
    SetError(error, "unknown command '" + std::string(name) + "' (try 'help')");
    return std::nullopt;
  }
  if (tokens.size() - 1 != want_args) {
    SetError(error, "command '" + std::string(name) + "' expects " + std::to_string(want_args) +
                        " argument(s)");
    return std::nullopt;
  }
  if (want_args >= 1) {
    if (!ParseInt(tokens[1], &request.index) || request.index < 0) {
      SetError(error, "invalid signature index '" + std::string(tokens[1]) + "'");
      return std::nullopt;
    }
  }
  if (want_args >= 2) {
    if (!ParseInt(tokens[2], &request.depth) || request.depth < 1) {
      SetError(error, "invalid depth '" + std::string(tokens[2]) + "'");
      return std::nullopt;
    }
  }
  return request;
}

std::string ExecuteRequest(Runtime& runtime, const Request& request) {
  switch (request.kind) {
    case CommandKind::kStatus:
      return DoStatus(runtime);
    case CommandKind::kStats:
      return DoStats(runtime);
    case CommandKind::kHistory:
      return DoHistory(runtime);
    case CommandKind::kHistorySave:
      return DoHistorySave(runtime);
    case CommandKind::kHistoryMerge:
      return DoHistoryMerge(runtime, request.path);
    case CommandKind::kHistoryExport:
      return DoHistoryExport(runtime, request.path);
    case CommandKind::kDisable:
      return DoSetDisabled(runtime, request.index, true);
    case CommandKind::kEnable:
      return DoSetDisabled(runtime, request.index, false);
    case CommandKind::kDisableLast:
      return DoDisableLast(runtime);
    case CommandKind::kReload:
      return DoReload(runtime);
    case CommandKind::kSetDepth:
      return DoSetDepth(runtime, request.index, request.depth);
    case CommandKind::kRag:
      return DoRag(runtime);
    case CommandKind::kConfig:
      return DoConfig(runtime);
    case CommandKind::kIpc:
      return DoIpc(runtime);
    case CommandKind::kTraceStart:
      return DoTraceSetEnabled(runtime, true);
    case CommandKind::kTraceStop:
      return DoTraceSetEnabled(runtime, false);
    case CommandKind::kTraceDump:
      return DoTraceDump(runtime);
    case CommandKind::kMetrics:
      return DoMetrics(runtime);
    case CommandKind::kHisto:
      return DoHisto(runtime, request.path);
    case CommandKind::kAlerts:
      return DoAlerts(runtime);
    case CommandKind::kIncidents:
      return DoIncidents(runtime, request.index);
    case CommandKind::kFleetStatus:
    case CommandKind::kFleetPeers:
    case CommandKind::kFleetPush:
    case CommandKind::kFleetPull:
    case CommandKind::kFleetExec:
    case CommandKind::kFleetAlerts:
    case CommandKind::kFleetAlertsReport:
      return DoFleetProxy(runtime, request);
    case CommandKind::kHelp:
      return "ok\n" + HelpText();
  }
  return Err("unhandled command");
}

std::string HandleLine(Runtime& runtime, std::string_view line) {
  std::string error;
  const std::optional<Request> request = ParseRequest(line, &error);
  if (!request.has_value()) {
    return Err(error);
  }
  return ExecuteRequest(runtime, *request);
}

}  // namespace control
}  // namespace dimmunix
