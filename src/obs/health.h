// Copyright (c) dimmunix-cpp authors. MIT license.
//
// HealthEngine — the self-diagnosis layer on top of the raw counters.
//
// PR 6 gave the system signals (trace rings, histograms, Prometheus
// counters); nothing evaluated them. The HealthEngine closes that gap: a
// periodic evaluator (the Runtime owns the thread and ticks it on the
// monitor cadence) receives a flat HealthSample of counter readings,
// computes rates of change against the previous sample, and drives a fixed
// set of typed alert rules through a hysteresis state machine:
//
//   inactive --breach--> firing --fire_ticks breaches--> active
//   firing --clear--> inactive                (one-tick flap, suppressed)
//   active --resolve_ticks clears--> resolved (latched: "was bad, recovered")
//   resolved --breach--> firing
//
// The rules cover the failure modes the earlier PRs left as open alerting
// items: cover-revalidation churn (`match_fast_retries`, carried from
// PR 8), epoch-stall storms, IPC pending-op backlog and flush latency,
// arena slot/edge exhaustion, trace-ring drops, HistoryStore queue depth,
// and resync staleness. The thresholds are the fixed HealthThresholds
// defaults; tests pass their own.
//
// Layering: this file sees only plain numbers. The Runtime assembles the
// HealthSample from the engine/bridge/store snapshots it owns; tests drive
// Tick() directly with synthetic samples.

#ifndef DIMMUNIX_OBS_HEALTH_H_
#define DIMMUNIX_OBS_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dimmunix {
namespace obs {

enum class AlertState : std::uint8_t { kInactive, kFiring, kActive, kResolved };

const char* AlertStateName(AlertState state);

// One evaluator input: a consistent-enough reading of every counter the
// rules consume, taken at `now_ns`. All plain numbers — no engine types.
struct HealthSample {
  std::uint64_t now_ns = 0;  // steady-clock nanoseconds

  // Avoidance engine (EngineStatsSnapshot).
  std::uint64_t requests = 0;
  std::uint64_t match_fast_retries = 0;
  std::uint64_t epoch_stall_ns = 0;

  // IPC bridge + arena mirror (IpcStatus / ParticipantInfo). All ignored
  // while `ipc_running` is false.
  bool ipc_running = false;
  std::uint64_t ipc_pending_ops = 0;
  std::uint64_t ipc_flush_p99_ns = 0;  // cumulative histogram percentile
  std::uint64_t arena_participants_used = 0;
  std::uint64_t arena_participants_cap = 0;
  std::uint64_t arena_edges_used = 0;  // this process's published rows
  std::uint64_t arena_edges_cap = 0;

  // Flight recorder (sum over all per-thread rings).
  std::uint64_t ring_dropped = 0;

  // HistoryStore. Ignored while `store_running` is false; the resync rule
  // additionally requires resync_period_ms > 0 and a non-negative age.
  bool store_running = false;
  std::uint64_t store_queued = 0;
  std::uint64_t resync_period_ms = 0;
  std::int64_t last_resync_age_ms = -1;
};

// Rule thresholds. The Runtime runs on these defaults; tests fill in their
// own to drive each rule.
struct HealthThresholds {
  double retry_ratio = 0.5;           // fast-path retries per request
  double epoch_stall_pct = 5.0;       // % of wall time stalled entering epochs
  std::uint64_t ipc_backlog = 256;    // unpublished (thread, lock) keys
  std::uint64_t ipc_flush_p99_us = 10000;  // edge flush p99
  double arena_pct = 80.0;            // slot or edge-row utilization %
  double ring_drops_per_s = 100.0;    // trace events lost per second
  std::uint64_t store_queue = 64;     // store writer queue depth
  double resync_stale_x = 3.0;        // last resync age / resync period
  int fire_ticks = 2;                 // breaches before firing -> active
  int resolve_ticks = 2;              // clears before active -> resolved
};

struct AlertSnapshot {
  std::string rule;   // stable machine identifier ("match_churn", ...)
  std::string signal; // human description of what the value measures
  AlertState state = AlertState::kInactive;
  double value = 0.0;      // last evaluated value (0 when never evaluable)
  double threshold = 0.0;
  std::uint64_t fired_count = 0;  // transitions into kFiring
  std::uint64_t since_ns = 0;     // steady-clock time the state was entered
};

class HealthEngine {
 public:
  static constexpr int kRuleCount = 8;

  explicit HealthEngine(HealthThresholds thresholds);

  HealthEngine(const HealthEngine&) = delete;
  HealthEngine& operator=(const HealthEngine&) = delete;

  // One evaluation pass. Rate rules need two samples: the first call only
  // primes the deltas. Thread-safe (the evaluator thread ticks; the control
  // plane snapshots concurrently).
  void Tick(const HealthSample& sample);

  // Every rule, including inactive ones (so `dimctl alerts` documents the
  // full rule set with live values and thresholds).
  std::vector<AlertSnapshot> Snapshot() const;

  struct Summary {
    int firing = 0;
    int active = 0;    // state == kActive (the "confirmed" count)
    int resolved = 0;
    int total = kRuleCount;
    std::uint64_t ticks = 0;
    std::uint64_t fired_total = 0;
    // firing + active: what `status alerts=<active>/<total>` reports.
    int raised() const { return firing + active; }
  };
  Summary GetSummary() const;

 private:
  struct RuleState {
    AlertState state = AlertState::kInactive;
    int breach_streak = 0;
    int clear_streak = 0;
    double value = 0.0;
    std::uint64_t fired = 0;
    std::uint64_t since_ns = 0;
  };

  const HealthThresholds thresholds_;
  mutable std::mutex m_;
  HealthSample prev_;
  bool have_prev_ = false;
  std::uint64_t ticks_ = 0;
  RuleState rules_[kRuleCount];
};

}  // namespace obs
}  // namespace dimmunix

#endif  // DIMMUNIX_OBS_HEALTH_H_
