// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Runtime configuration for the Dimmunix engine. Every tunable named in the
// paper is represented here with the paper's default:
//   - τ (monitor wakeup period, §5.2)            -> monitor_period
//   - fixed matching depth 4 (§5.5)              -> default_match_depth
//   - NA = 20 calibration avoidances per depth   -> calibration_na
//   - NT = 10^4 recalibration threshold          -> calibration_nt
//   - weak vs. strong immunity (§5.4)            -> immunity
//   - 200 msec yield upper bound (§5.7)          -> yield_timeout
//
// Config can be populated programmatically or from DIMMUNIX_* environment
// variables (used by the LD_PRELOAD shim, where no code runs before main).

#ifndef DIMMUNIX_COMMON_CONFIG_H_
#define DIMMUNIX_COMMON_CONFIG_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace dimmunix {

// §5.4: weak immunity breaks induced starvation and continues; strong
// immunity requests a program restart on starvation, guaranteeing no pattern
// in history ever reoccurs.
enum class ImmunityMode { kWeak, kStrong };

// What the monitor does when it finds a *deadlock* cycle (recovery is
// orthogonal to Dimmunix, §3; these hooks exist so tests and the trial
// harness can observe/recover).
enum class DeadlockAction {
  kReport,       // save signature, invoke hook, leave threads deadlocked
  kBreakVictim,  // additionally cancel one victim's pending acquisition
};

struct Config {
  // Master switch: false turns every engine entry point into an immediate
  // return (used as the "uninstrumented baseline" in app-level benchmarks).
  bool enabled = true;

  // --- Monitor -------------------------------------------------------------
  std::chrono::milliseconds monitor_period{100};  // τ
  bool start_monitor = true;                      // false: tests drive the monitor manually

  // --- Matching / calibration ----------------------------------------------
  int default_match_depth = 4;    // fixed depth when calibration is off
  int max_match_depth = 10;       // D: deepest suffix ever compared
  bool calibration_enabled = false;
  int calibration_na = 20;        // NA: avoidances per depth rung
  int calibration_nt = 10000;     // NT: avoidances before recalibration

  // --- Avoidance -----------------------------------------------------------
  ImmunityMode immunity = ImmunityMode::kWeak;
  DeadlockAction deadlock_action = DeadlockAction::kReport;
  std::chrono::milliseconds yield_timeout{200};  // §5.7 upper bound on a yield
  // After this many timed-out yields a signature is considered "too risky to
  // avoid" and is automatically disabled (§5.7). <= 0 disables the feature.
  int auto_disable_aborts = 64;
  // Table 1's middle configuration: run full instrumentation + detection but
  // ignore YIELD decisions (never actually pause threads).
  bool ignore_yield_decisions = false;
  // Number of stripes the engine shards its Allowed sets across (rounded up
  // to a power of two). 0 = auto: 2*nproc rounded up to a power of two. Not
  // read from the environment: a seam for the stripe sweeps in tests (1 is
  // the single-guard engine).
  int engine_stripes = 0;

  // --- History -------------------------------------------------------------
  std::string history_path;       // empty = in-memory only
  bool load_history_on_init = true;
  // > 0: the store periodically load-merges the shared history file even
  // without local changes, consuming signatures and operator actions from
  // other processes sharing DIMMUNIX_HISTORY. 0 disables resync.
  std::chrono::milliseconds history_resync_period{0};

  // --- FP probes (§5.5 retrospective analysis) ------------------------------
  std::chrono::milliseconds fp_probe_window{50};
  int fp_probe_max_ops = 64;

  // --- Cross-process immunity (src/ipc) --------------------------------------
  // Non-empty: mmap this shared-memory arena file and participate in
  // cross-process deadlock immunity — global locks (PTHREAD_PROCESS_SHARED
  // mutexes/rwlocks, flock/fcntl file locks) publish their wait/hold edges
  // there, and a bridge thread folds the other participants' edges into the
  // local RAG. Empty = single-process behavior, zero overhead.
  std::string ipc_path;
  // How often the bridge mirrors foreign edges (and heartbeats).
  std::chrono::milliseconds ipc_bridge_period{25};

  // --- Control plane ---------------------------------------------------------
  // Non-empty: the runtime listens on this UNIX-domain socket for `dimctl`
  // commands (status/history/disable/reload/...). Empty = no control server.
  std::string control_socket_path;

  // Non-empty ("host:port"): the dimmunixd daemon this process is attached
  // to. `fleet *` control commands received over the UDS socket are proxied
  // to it over TCP, and `status` gains a fleet= summary line. The daemon is
  // a separate process; this setting never adds network I/O to lock paths.
  std::string fleet_daemon;

  // --- Observability (src/obs) -----------------------------------------------
  // Arm the flight recorder at startup: per-thread trace rings record engine
  // events (acquires, yields, epochs, monitor/bridge/store activity) from
  // the first lock operation. Also toggleable live via `dimctl trace
  // start|stop`. Off = one relaxed load + branch per instrumentation site.
  bool trace_enabled = false;
  // Non-empty: dump the recorded trace as Chrome trace_event JSON to this
  // path at process exit / runtime destruction ("%p" expands to the pid, so
  // fleets sharing the setting write one file per process).
  std::string trace_dump_path;
  // Always-on latency histograms (acquire latency, yield duration, epoch
  // hold) behind `dimctl metrics` / `dimctl histo`. False removes the two
  // clock reads per acquisition they cost.
  bool metrics_enabled = true;

  // --- Health rules / incident forensics (src/obs) ---------------------------
  // Periodic self-diagnosis: an evaluator thread ticks the HealthEngine on
  // the monitor cadence (τ), deriving typed alerts (firing -> active ->
  // resolved hysteresis) from the engine/bridge/store counters against the
  // fixed thresholds in obs::HealthThresholds. Zero lock-path cost: it only
  // reads the existing stats snapshots.
  bool health_enabled = true;
  // Non-empty: when the monitor detects a cycle, avoids one, or breaks a
  // starvation, write a structured JSON incident bundle (signature, RAG
  // snapshot, victim's recent trace events, histogram percentiles, active
  // alerts) into this directory. Empty = forensics off, zero overhead. The
  // directory keeps the newest obs::IncidentLog::Options::max_files bundles,
  // at most one per min_period.
  std::string incident_dir;

  // Reads DIMMUNIX_* environment variables over the current values:
  //   DIMMUNIX_HISTORY, DIMMUNIX_TAU_MS, DIMMUNIX_DEPTH, DIMMUNIX_MAX_DEPTH,
  //   DIMMUNIX_IMMUNITY (weak|strong), DIMMUNIX_CALIBRATION (0|1),
  //   DIMMUNIX_YIELD_TIMEOUT_MS, DIMMUNIX_IGNORE_YIELDS (0|1),
  //   DIMMUNIX_CONTROL (control-socket path, e.g. /tmp/app.dimmunix.sock),
  //   DIMMUNIX_FLEET (host:port of the attached dimmunixd daemon),
  //   DIMMUNIX_RESYNC_MS (0 = off),
  //   DIMMUNIX_IPC (arena path), DIMMUNIX_IPC_BRIDGE_MS,
  //   DIMMUNIX_TRACE (0|1),
  //   DIMMUNIX_TRACE_DUMP (Chrome-JSON dump path, %p -> pid),
  //   DIMMUNIX_METRICS (0|1, default 1),
  //   DIMMUNIX_HEALTH (0|1, default 1),
  //   DIMMUNIX_INCIDENT_DIR (incident-bundle directory, empty = off),
  //   DIMMUNIX_PROC_TAG (process identity for proc-qualified signatures;
  //   defaults to the executable path — read by src/ipc/global_id.cc).
  // Malformed numbers, and periods (DIMMUNIX_TAU_MS, DIMMUNIX_IPC_BRIDGE_MS)
  // that are not positive, keep the current value.
  static Config FromEnvironment();
  static Config FromEnvironment(Config base);
};

}  // namespace dimmunix

#endif  // DIMMUNIX_COMMON_CONFIG_H_
