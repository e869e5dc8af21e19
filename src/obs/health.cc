// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/obs/health.h"

#include <algorithm>

namespace dimmunix {
namespace obs {
namespace {

// A churn ratio over a handful of requests is noise, not a storm; the
// match-churn rule only evaluates once the window saw this many requests.
constexpr std::uint64_t kChurnMinRequests = 64;

struct RuleMeta {
  const char* rule;
  const char* signal;
};

// Order is the RuleState array order; names are stable identifiers used in
// Prometheus labels and `dimctl alerts`, so treat them as API.
constexpr RuleMeta kRules[HealthEngine::kRuleCount] = {
    {"match_churn", "cover fast-path retries per request (window)"},
    {"epoch_stall", "% of wall time stalled entering stop-the-stripes epochs"},
    {"ipc_backlog", "IPC thread-lock pairs awaiting a flush"},
    {"ipc_flush_latency", "IPC edge flush p99 (us, cumulative)"},
    {"arena_exhaustion", "arena participant-slot / edge-row utilization %"},
    {"ring_drops", "trace-ring events dropped per second"},
    {"store_backlog", "history store writer queue depth"},
    {"resync_stale", "history resync age / configured resync period"},
};

struct Eval {
  bool valid = false;   // rule could be evaluated from this sample pair
  double value = 0.0;
  double threshold = 0.0;
};

Eval Evaluate(int rule, const HealthThresholds& t, const HealthSample& prev,
              bool have_prev, const HealthSample& s) {
  Eval e;
  const double elapsed_ns =
      have_prev && s.now_ns > prev.now_ns ? static_cast<double>(s.now_ns - prev.now_ns) : 0.0;
  switch (rule) {
    case 0: {  // match_churn
      e.threshold = t.retry_ratio;
      if (elapsed_ns <= 0.0 || s.requests < prev.requests) {
        break;
      }
      const std::uint64_t requests = s.requests - prev.requests;
      if (requests < kChurnMinRequests || s.match_fast_retries < prev.match_fast_retries) {
        break;
      }
      e.valid = true;
      e.value = static_cast<double>(s.match_fast_retries - prev.match_fast_retries) /
                static_cast<double>(requests);
      break;
    }
    case 1: {  // epoch_stall
      e.threshold = t.epoch_stall_pct;
      if (elapsed_ns <= 0.0 || s.epoch_stall_ns < prev.epoch_stall_ns) {
        break;
      }
      e.valid = true;
      e.value = 100.0 * static_cast<double>(s.epoch_stall_ns - prev.epoch_stall_ns) / elapsed_ns;
      break;
    }
    case 2: {  // ipc_backlog
      e.threshold = static_cast<double>(t.ipc_backlog);
      if (!s.ipc_running) {
        break;
      }
      e.valid = true;
      e.value = static_cast<double>(s.ipc_pending_ops);
      break;
    }
    case 3: {  // ipc_flush_latency
      e.threshold = static_cast<double>(t.ipc_flush_p99_us);
      if (!s.ipc_running || s.ipc_flush_p99_ns == 0) {
        break;
      }
      e.valid = true;
      e.value = static_cast<double>(s.ipc_flush_p99_ns) / 1000.0;
      break;
    }
    case 4: {  // arena_exhaustion
      e.threshold = t.arena_pct;
      if (!s.ipc_running) {
        break;
      }
      double pct = 0.0;
      if (s.arena_participants_cap > 0) {
        pct = 100.0 * static_cast<double>(s.arena_participants_used) /
              static_cast<double>(s.arena_participants_cap);
      }
      if (s.arena_edges_cap > 0) {
        pct = std::max(pct, 100.0 * static_cast<double>(s.arena_edges_used) /
                                static_cast<double>(s.arena_edges_cap));
      }
      e.valid = s.arena_participants_cap > 0 || s.arena_edges_cap > 0;
      e.value = pct;
      break;
    }
    case 5: {  // ring_drops
      e.threshold = t.ring_drops_per_s;
      if (elapsed_ns <= 0.0 || s.ring_dropped < prev.ring_dropped) {
        break;
      }
      e.valid = true;
      e.value = static_cast<double>(s.ring_dropped - prev.ring_dropped) * 1e9 / elapsed_ns;
      break;
    }
    case 6: {  // store_backlog
      e.threshold = static_cast<double>(t.store_queue);
      if (!s.store_running) {
        break;
      }
      e.valid = true;
      e.value = static_cast<double>(s.store_queued);
      break;
    }
    case 7: {  // resync_stale
      e.threshold = t.resync_stale_x;
      if (!s.store_running || s.resync_period_ms == 0 || s.last_resync_age_ms < 0) {
        break;
      }
      e.valid = true;
      e.value = static_cast<double>(s.last_resync_age_ms) /
                static_cast<double>(s.resync_period_ms);
      break;
    }
    default:
      break;
  }
  return e;
}

}  // namespace

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kActive:
      return "active";
    case AlertState::kResolved:
      return "resolved";
  }
  return "unknown";
}

HealthEngine::HealthEngine(HealthThresholds thresholds) : thresholds_(thresholds) {}

void HealthEngine::Tick(const HealthSample& sample) {
  std::lock_guard<std::mutex> guard(m_);
  ++ticks_;
  for (int i = 0; i < kRuleCount; ++i) {
    const Eval e = Evaluate(i, thresholds_, prev_, have_prev_, sample);
    RuleState& r = rules_[i];
    if (e.valid) {
      r.value = e.value;
    }
    // An unevaluable rule (subsystem off, window unprimed) counts as clear:
    // an alert must not stay pinned active after its subsystem shut down.
    const bool breach = e.valid && e.value > e.threshold;
    if (breach) {
      r.clear_streak = 0;
      ++r.breach_streak;
      if (r.state == AlertState::kInactive || r.state == AlertState::kResolved) {
        r.state = AlertState::kFiring;
        r.breach_streak = 1;
        r.since_ns = sample.now_ns;
        ++r.fired;
      }
      if (r.state == AlertState::kFiring &&
          r.breach_streak >= std::max(1, thresholds_.fire_ticks)) {
        r.state = AlertState::kActive;
        r.since_ns = sample.now_ns;
      }
    } else {
      r.breach_streak = 0;
      ++r.clear_streak;
      if (r.state == AlertState::kFiring) {
        // Never confirmed — a one-tick flap, not an incident.
        r.state = AlertState::kInactive;
        r.since_ns = sample.now_ns;
      } else if (r.state == AlertState::kActive &&
                 r.clear_streak >= std::max(1, thresholds_.resolve_ticks)) {
        // Latched as resolved (not inactive) so an operator arriving after
        // the storm still sees that it happened.
        r.state = AlertState::kResolved;
        r.since_ns = sample.now_ns;
      }
    }
  }
  prev_ = sample;
  have_prev_ = true;
}

std::vector<AlertSnapshot> HealthEngine::Snapshot() const {
  std::lock_guard<std::mutex> guard(m_);
  std::vector<AlertSnapshot> out;
  out.reserve(kRuleCount);
  for (int i = 0; i < kRuleCount; ++i) {
    const RuleState& r = rules_[i];
    AlertSnapshot snap;
    snap.rule = kRules[i].rule;
    snap.signal = kRules[i].signal;
    snap.state = r.state;
    snap.value = r.value;
    // Threshold re-derived from the static table so the snapshot shows it
    // even before the rule ever evaluated.
    snap.threshold = Evaluate(i, thresholds_, prev_, false, prev_).threshold;
    snap.fired_count = r.fired;
    snap.since_ns = r.since_ns;
    out.push_back(std::move(snap));
  }
  return out;
}

HealthEngine::Summary HealthEngine::GetSummary() const {
  std::lock_guard<std::mutex> guard(m_);
  Summary s;
  s.ticks = ticks_;
  for (const RuleState& r : rules_) {
    s.fired_total += r.fired;
    switch (r.state) {
      case AlertState::kFiring:
        ++s.firing;
        break;
      case AlertState::kActive:
        ++s.active;
        break;
      case AlertState::kResolved:
        ++s.resolved;
        break;
      case AlertState::kInactive:
        break;
    }
  }
  return s;
}

}  // namespace obs
}  // namespace dimmunix
