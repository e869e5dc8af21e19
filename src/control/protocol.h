// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Control-plane protocol: the line-oriented request/response language spoken
// over the UNIX-domain control socket (src/control/server.h) and by the
// `dimctl` CLI (tools/dimctl.cc).
//
// A request is a single text line: a command name plus space-separated
// arguments. The reply is one or more lines; the first is either "ok" or
// "err <reason>", payload lines follow as "key=value" pairs (or one record
// per line for listing commands), and the server closes the connection after
// the reply — one command per connection.
//
// Commands (§5.7 pop-up-blocker workflow, §8 upgrade workflow):
//   status                  one-screen summary of the runtime
//   stats                   every engine + monitor counter
//   history                 one line per signature (kind/depth/disabled/...)
//   disable <idx>           disable signature <idx> (never avoided again)
//   enable <idx>            re-enable signature <idx>
//   disable-last            disable the most recently avoided signature
//   history save            synchronously compact the history to disk
//   history merge <file>    merge signatures from <file> into the live
//                           history (vendor-shipped patches, §8); paths may
//                           not contain whitespace (line protocol)
//   history export <file>   write the current history to <file> (format v2)
//   reload                  hot-reload the history file (§8)
//   set-depth <idx> <d>     override signature <idx>'s matching depth
//   rag                     monitor-side thread/lock/yield-edge snapshot;
//                           wait/hold modes are tagged X (exclusive) or
//                           S (shared), e.g. "held_locks=140…:S"
//   ipc                     cross-process arena status: participant slots
//                           (pid/generation/liveness/edge counts), mirror
//                           statistics
//   config                  effective configuration
//   trace start             arm the flight-recorder rings
//   trace stop              disarm the rings (contents are kept)
//   trace dump              Chrome trace_event JSON of every ring (load the
//                           payload in Perfetto / chrome://tracing)
//   metrics                 every counter + latency histogram, Prometheus
//                           text exposition format
//   histo <name>            percentile readout of one latency histogram
//                           (acquire_latency_ns | yield_duration_ns |
//                           epoch_hold_ns)
//   alerts                  health-rules engine state: one line per rule
//                           (state/value/threshold/fired count)
//   incidents               list captured incident bundles (newest last)
//   incidents show <n>      payload of the n-th listed bundle, verbatim JSON
//   fleet status            summary of the attached dimmunixd daemon
//   fleet peers             per-peer gossip statistics
//   fleet push <addr>       sync with <addr> now, sending our records only
//   fleet pull <addr>       sync with <addr> now, merging its records only
//   fleet alerts            fleet-wide health: one line per reporting host
//                           (which host is churning, and on which rules)
//   help                    list commands
//
// `fleet alerts-report <record>` is the machine half of `fleet alerts`:
// runtimes push their alert summaries to the attached daemon with it. It is
// parsed here (so the daemon reuses this parser) but not listed in help —
// operators read, runtimes write.
//
// The `fleet` verbs are executed by a dimmunixd daemon (src/fleet/daemon.h).
// When a runtime receives one over its UDS control socket, it proxies the
// line to the daemon named by Config::fleet_daemon (DIMMUNIX_FLEET) over TCP
// and relays the reply — `dimctl fleet status` works against an application
// process and against a daemon alike.
//
// `status` additionally reports HistoryStore health when a history file is
// configured: changes not yet written, compactions, I/O errors, and the age
// of the last shared-file resync.
//
// This layer is deliberately socket-free: parsing, execution against a
// Runtime, and formatting are pure functions, unit-tested without any I/O.

#ifndef DIMMUNIX_CONTROL_PROTOCOL_H_
#define DIMMUNIX_CONTROL_PROTOCOL_H_

#include <optional>
#include <string>
#include <string_view>

namespace dimmunix {

class Runtime;

namespace control {

enum class CommandKind {
  kStatus,
  kStats,
  kHistory,
  kHistorySave,
  kHistoryMerge,
  kHistoryExport,
  kDisable,
  kEnable,
  kDisableLast,
  kReload,
  kSetDepth,
  kRag,
  kConfig,
  kIpc,
  kTraceStart,
  kTraceStop,
  kTraceDump,
  kMetrics,
  kHisto,
  kAlerts,
  kIncidents,
  kFleetStatus,
  kFleetPeers,
  kFleetPush,
  kFleetPull,
  kFleetAlerts,
  kFleetAlertsReport,
  kHelp,
};

struct Request {
  CommandKind kind = CommandKind::kStatus;
  int index = -1;    // disable / enable / set-depth; incidents show <n>
  int depth = -1;    // set-depth
  std::string path;  // history merge / history export; histogram name (histo);
                     // peer address (fleet push / fleet pull)
  std::string rest;  // fleet alerts-report: the alert record(s)
};

// Parses one request line (trailing "\r\n" tolerated). On failure returns
// nullopt and, when `error` is non-null, stores a human-readable reason.
std::optional<Request> ParseRequest(std::string_view line, std::string* error);

// Executes `request` against `runtime` and returns the complete reply text
// (newline-terminated). Signature indices are bounds-checked here; an
// out-of-range index yields an "err" reply, never undefined behavior.
std::string ExecuteRequest(Runtime& runtime, const Request& request);

// Convenience: parse + execute, turning parse errors into "err ..." replies.
std::string HandleLine(Runtime& runtime, std::string_view line);

// The "help" payload (also the command list asserted by unit tests).
std::string HelpText();

}  // namespace control
}  // namespace dimmunix

#endif  // DIMMUNIX_CONTROL_PROTOCOL_H_
