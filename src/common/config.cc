// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/common/config.h"

#include <cstdlib>
#include <string_view>

namespace dimmunix {
namespace {

const char* Getenv(const char* name) { return std::getenv(name); }

bool EnvBool(const char* name, bool fallback) {
  const char* v = Getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  std::string_view s(v);
  return s == "1" || s == "true" || s == "yes" || s == "on";
}

long EnvLong(const char* name, long fallback) {
  const char* v = Getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  if (end == v) {
    return fallback;
  }
  return parsed;
}

// A period knob: like EnvLong, but a value <= 0 also keeps `fallback` (a
// zero period would turn the thread that waits on it into a busy loop).
std::chrono::milliseconds EnvPeriodMs(const char* name, std::chrono::milliseconds fallback) {
  const long parsed = EnvLong(name, fallback.count());
  return parsed > 0 ? std::chrono::milliseconds(parsed) : fallback;
}

}  // namespace

Config Config::FromEnvironment() { return FromEnvironment(Config{}); }

Config Config::FromEnvironment(Config base) {
  if (const char* h = Getenv("DIMMUNIX_HISTORY"); h != nullptr && *h != '\0') {
    base.history_path = h;
  }
  base.monitor_period = EnvPeriodMs("DIMMUNIX_TAU_MS", base.monitor_period);
  base.default_match_depth =
      static_cast<int>(EnvLong("DIMMUNIX_DEPTH", base.default_match_depth));
  base.max_match_depth = static_cast<int>(EnvLong("DIMMUNIX_MAX_DEPTH", base.max_match_depth));
  base.calibration_enabled = EnvBool("DIMMUNIX_CALIBRATION", base.calibration_enabled);
  base.yield_timeout =
      std::chrono::milliseconds(EnvLong("DIMMUNIX_YIELD_TIMEOUT_MS", base.yield_timeout.count()));
  base.ignore_yield_decisions = EnvBool("DIMMUNIX_IGNORE_YIELDS", base.ignore_yield_decisions);
  base.history_resync_period = std::chrono::milliseconds(
      EnvLong("DIMMUNIX_RESYNC_MS", base.history_resync_period.count()));
  if (const char* ipc = Getenv("DIMMUNIX_IPC"); ipc != nullptr && *ipc != '\0') {
    base.ipc_path = ipc;
  }
  base.ipc_bridge_period = EnvPeriodMs("DIMMUNIX_IPC_BRIDGE_MS", base.ipc_bridge_period);
  if (const char* m = Getenv("DIMMUNIX_IMMUNITY"); m != nullptr) {
    std::string_view s(m);
    if (s == "strong") {
      base.immunity = ImmunityMode::kStrong;
    } else if (s == "weak") {
      base.immunity = ImmunityMode::kWeak;
    }
  }
  if (const char* c = Getenv("DIMMUNIX_CONTROL"); c != nullptr && *c != '\0') {
    base.control_socket_path = c;
  }
  if (const char* f = Getenv("DIMMUNIX_FLEET"); f != nullptr && *f != '\0') {
    base.fleet_daemon = f;
  }
  base.trace_enabled = EnvBool("DIMMUNIX_TRACE", base.trace_enabled);
  if (const char* td = Getenv("DIMMUNIX_TRACE_DUMP"); td != nullptr && *td != '\0') {
    base.trace_dump_path = td;
  }
  base.metrics_enabled = EnvBool("DIMMUNIX_METRICS", base.metrics_enabled);
  base.health_enabled = EnvBool("DIMMUNIX_HEALTH", base.health_enabled);
  if (const char* inc = Getenv("DIMMUNIX_INCIDENT_DIR"); inc != nullptr && *inc != '\0') {
    base.incident_dir = inc;
  }
  return base;
}

}  // namespace dimmunix
