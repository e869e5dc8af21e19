// Copyright (c) dimmunix-cpp authors. MIT license.
//
// fleet::Daemon — the engine behind the `dimmunixd` binary (tools/
// dimmunixd.cc): a signature-exchange daemon that watches one or more
// history files and keeps them converged with a configurable peer set.
//
// A daemon is deliberately *outside* every application process: it holds no
// locks the applications hold and touches histories only through the same
// crash-safe file protocol (persist::MergeIntoFile under the fcntl lock)
// any process uses. Convergence into *running* programs rides the existing
// live-resync path: an application with DIMMUNIX_RESYNC_MS set re-reads the
// shared file the daemon merged into. The lock hot path never sees a socket.
//
// Sync protocol (one TCP connection per round, initiator -> responder):
//
//   initiator: "fleet sync\n"  DigestFrame(initiator's history)
//   responder: "ok\n"          DeltaFrame(records the initiator is missing)
//                              DigestFrame(responder's history)
//   initiator:                 DeltaFrame(records the responder is missing)
//   responder: "done\n"        sent only after merging that delta, so a
//                              completed round means both files converged
//
// One round is a full push-pull anti-entropy exchange: afterwards both
// sides hold the union (knob_epoch conflicts resolved by persist::MergeInto
// — higher epoch wins). A hub topology is just configuration: point every
// spoke's --peer at the hub and leave the hub's peer list empty; spokes
// push and pull through it, no special code path.
//
// Every other command is one text line, answered with the control-plane
// reply grammar ("ok\n"/"err <reason>\n" + key=value lines) and a close —
// `dimctl --target host:port status` talks to a daemon exactly as `dimctl`
// talks to a process.
//
// Threat model: the protocol is plaintext and unauthenticated, built for
// closed lab networks. The listener binds 127.0.0.1 unless told otherwise,
// and non-loopback sources are rejected unless explicitly allow-listed.

#ifndef DIMMUNIX_FLEET_DAEMON_H_
#define DIMMUNIX_FLEET_DAEMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/control/protocol.h"
#include "src/fleet/peer.h"
#include "src/fleet/wire.h"
#include "src/obs/histogram.h"
#include "src/obs/recorder.h"
#include "src/persist/image.h"

namespace dimmunix {
namespace fleet {

struct DaemonOptions {
  // History files the daemon watches and merges into. At least one. The
  // digest a peer sees is the union across all of them; an incoming delta
  // is merged into each (proc-qualified stacks keep signatures from
  // unrelated programs distinct, so the shared union is safe).
  std::vector<std::string> history_paths;

  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  // 0 = ephemeral (tests); dimmunixd defaults 7077

  std::vector<std::string> peers;  // "host:port" each

  // Anti-entropy cadence. Zero disables the gossip thread: the daemon only
  // serves incoming syncs and explicit `fleet push|pull`.
  std::chrono::milliseconds gossip_period{1000};

  // Per-connection / per-round I/O budget.
  std::chrono::milliseconds io_timeout{5000};

  // Extra source IPs allowed to connect (numeric IPv4). Loopback is always
  // allowed unless `reject_loopback` (test hook for the rejection path).
  std::vector<std::string> allow;
  bool reject_loopback = false;

  bool trace_enabled = false;  // arm the flight-recorder rings at start
};

// One runtime's health-alert summary, pushed by the runtime's evaluator
// thread via `fleet alerts-report` and gossiped daemon-to-daemon so a hub's
// `fleet alerts` names the host that is churning. `reporter` is host:pid.
// Wire form (one line-protocol token, no spaces):
//   <reporter>;<active>;<total>;<age_ms>;<rules>
// where rules is a '+'-joined list of raised rule names, "-" when none.
struct AlertReport {
  std::string reporter;
  int active = 0;  // raised (firing + active) rules
  int total = 0;
  std::string rules;  // '+'-joined raised rule names, "" when none
  std::chrono::steady_clock::time_point last_update{};
};

// Point-in-time counters for `fleet status` / `metrics`.
struct DaemonStatsSnapshot {
  std::uint64_t rounds_ok = 0;       // initiated rounds that completed
  std::uint64_t rounds_failed = 0;   // initiated rounds that did not
  std::uint64_t syncs_served = 0;    // rounds answered for a peer
  std::uint64_t records_in = 0;      // records received in deltas
  std::uint64_t records_out = 0;     // records shipped in deltas
  std::uint64_t records_new = 0;     // received records we had never seen
  std::uint64_t merge_errors = 0;    // MergeIntoFile failures
  std::uint64_t rejected_conns = 0;  // allowlist rejections
  std::uint64_t bad_frames = 0;      // undecodable digests/deltas
  std::uint64_t signatures = 0;      // union size at the last scan
  std::int64_t last_sync_age_ms = -1;  // -1 = never synced either direction
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Binds the listener and starts the accept + gossip threads. False (with
  // *error set) when the bind fails or no history path was given.
  bool Start(std::string* error);
  void Stop();

  std::uint16_t bound_port() const { return bound_port_; }
  // "host:port" actually listening (ephemeral port resolved).
  std::string listen_address() const;

  // One full sync round with `address` now, as initiator. `do_send` false =
  // pull-only (ship nothing), `do_merge` false = push-only (merge nothing);
  // both true = the gossip round. Returns false with *error set on failure;
  // records in/out counts via the out-params (may be null).
  bool SyncWith(const std::string& address, bool do_send, bool do_merge,
                std::uint64_t* records_in, std::uint64_t* records_out, std::string* error);

  // Executes one command line (everything except the binary `fleet sync`
  // path) and returns the full reply. Public for unit tests.
  std::string HandleCommandLine(const std::string& line);

  DaemonStatsSnapshot stats() const;
  std::vector<PeerState> peers() const;

  // The live alert table (stale reporters pruned), sorted by reporter.
  std::vector<AlertReport> alert_reports() const;

  // End-to-end propagation latency (ms) of records learned from peers:
  // time since the record was first seen by whichever daemon met it first,
  // accumulated across gossip hops via the per-record age in delta frames.
  obs::HistogramSnapshot propagation_ms() const { return propagation_ms_.Snapshot(); }

  obs::Recorder& recorder() { return recorder_; }

 private:
  struct SyncOutcome {
    std::uint64_t in = 0;
    std::uint64_t out = 0;
  };

  void AcceptLoop();
  void GossipLoop();
  void GossipOnce();
  void ServeConnection(int fd);
  void ServeSync(int fd, std::string* spill,
                 std::chrono::steady_clock::time_point deadline);
  bool SourceAllowed(const std::string& source) const;

  // History plumbing (sync_m_ held).
  persist::HistoryImage LoadUnion();
  Delta BuildDelta(const persist::HistoryImage& mine,
                   const std::vector<persist::DigestEntry>& theirs);
  std::uint64_t MergeDelta(const Delta& delta);

  std::string DoFleetStatus();
  std::string DoFleetPeers();
  std::string DoFleetSyncVerb(const std::string& address, bool do_send, bool do_merge);
  std::string DoFleetAlerts();
  std::string DoFleetAlertsReport(const std::string& records);
  std::string DoMetrics();
  std::string Execute(const control::Request& request);

  // Alert-table plumbing. Ingest parses space-separated wire records and
  // keeps the freshest entry per reporter; gossip forwards the table so
  // summaries reach the hub even from spokes it never dials directly.
  std::size_t IngestAlertRecords(const std::string& records);
  void PruneAlertsLocked(std::chrono::steady_clock::time_point now);
  std::string BuildAlertRecords();
  void PushAlertsToPeers(const std::vector<std::string>& addresses);

  const DaemonOptions options_;
  obs::Recorder recorder_;
  obs::Histogram propagation_ms_;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::uint16_t bound_port_ = 0;
  bool running_ = false;

  std::thread accept_thread_;
  std::thread gossip_thread_;
  std::mutex gossip_m_;  // guards stop_ for the gossip wait
  std::condition_variable gossip_cv_;
  bool stop_ = false;

  // Serializes sync rounds (initiated, served, and push/pull verbs): each
  // round is load -> diff -> merge over the same files. The responder path
  // only try-locks — two daemons initiating at each other simultaneously
  // must not deadlock across the network, so one side answers "err busy"
  // and that round retries next period.
  std::mutex sync_m_;

  mutable std::mutex state_m_;  // stats_, peer table, first_seen_, alert_table_
  DaemonStatsSnapshot stats_;
  PeerTable peer_table_;
  // reporter -> freshest alert summary; entries expire after kAlertTtl.
  std::unordered_map<std::string, AlertReport> alert_table_;
  std::chrono::steady_clock::time_point last_sync_{};
  // signature hash -> when this daemon first learned of the record; feeds
  // the age field of outgoing deltas and the propagation histogram.
  std::unordered_map<std::uint64_t, std::chrono::steady_clock::time_point> first_seen_;
};

}  // namespace fleet
}  // namespace dimmunix

#endif  // DIMMUNIX_FLEET_DAEMON_H_
