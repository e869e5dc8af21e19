// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/fleet/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/fleet/net.h"
#include "src/obs/export.h"
#include "src/obs/trace_event.h"
#include "src/persist/file.h"

namespace dimmunix {
namespace fleet {
namespace {

using SteadyClock = std::chrono::steady_clock;

std::string Err(const std::string& reason) { return "err " + reason + "\n"; }

std::int64_t AgeMs(SteadyClock::time_point since, SteadyClock::time_point now) {
  if (since == SteadyClock::time_point{}) {
    return -1;
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - since).count();
}

struct FdCloser {
  int fd;
  explicit FdCloser(int f) : fd(f) {}
  ~FdCloser() { ::close(fd); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
};

// close(2) with unread bytes in the receive buffer turns into RST, which
// may destroy a reply still in flight to the client. Half-close and drain
// until the client's EOF (bounded) so the last thing we wrote arrives.
void DrainToEof(int fd, std::chrono::milliseconds budget) {
  (void)::shutdown(fd, SHUT_WR);
  timeval tv{};
  tv.tv_sec = budget.count() / 1000;
  tv.tv_usec = (budget.count() % 1000) * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char sink[512];
  while (::read(fd, sink, sizeof(sink)) > 0) {
  }
}

// Reads one complete frame from `fd`, consuming `buffer` first (bytes that
// spilled past the command line). On success *frame holds header + payload
// and *buffer whatever followed it.
bool ReadFrameBytes(int fd, std::string* buffer, std::string* frame,
                    SteadyClock::time_point deadline, std::string* error) {
  while (buffer->size() < kFrameHeaderBytes) {
    if (!ReadExactDeadline(fd, kFrameHeaderBytes - buffer->size(), buffer, deadline)) {
      *error = "short read (frame header)";
      return false;
    }
  }
  FrameKind kind{};
  std::uint32_t length = 0;
  const DecodeStatus status = PeekFrame(*buffer, &kind, &length);
  if (status != DecodeStatus::kOk) {
    *error = DecodeStatusName(status);
    return false;
  }
  const std::size_t total = kFrameHeaderBytes + length;
  while (buffer->size() < total) {
    if (!ReadExactDeadline(fd, total - buffer->size(), buffer, deadline)) {
      *error = "short read (frame payload)";
      return false;
    }
  }
  *frame = buffer->substr(0, total);
  buffer->erase(0, total);
  return true;
}

std::string DaemonHelpText() {
  return
      "status / fleet status   daemon summary\n"
      "fleet peers             per-peer gossip statistics\n"
      "fleet push <addr>       sync with <addr> now, send-only\n"
      "fleet pull <addr>       sync with <addr> now, merge-only\n"
      "fleet alerts            per-host health-alert summaries (who is churning)\n"
      "config                  daemon configuration\n"
      "metrics                 counters + propagation histogram, Prometheus text\n"
      "trace start|stop|dump   flight-recorder control\n"
      "help                    this text\n";
}

// Reporters that stop refreshing fall out of the table: a crashed process
// must not show as churning forever, and gossip must not resurrect it.
constexpr std::chrono::milliseconds kAlertTtl{120000};

// Decodes one wire record (see AlertReport in daemon.h). *age_ms receives
// the sender-claimed age so the receiver can back-date last_update.
bool ParseAlertRecord(const std::string& token, AlertReport* out, std::int64_t* age_ms) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (fields.size() < 4) {
    const std::size_t semi = token.find(';', pos);
    if (semi == std::string::npos) {
      return false;
    }
    fields.push_back(token.substr(pos, semi - pos));
    pos = semi + 1;
  }
  fields.push_back(token.substr(pos));  // rules (may itself hold no ';')
  if (fields[0].empty()) {
    return false;
  }
  char* end = nullptr;
  const long active = std::strtol(fields[1].c_str(), &end, 10);
  if (end == fields[1].c_str() || *end != '\0' || active < 0) {
    return false;
  }
  const long total = std::strtol(fields[2].c_str(), &end, 10);
  if (end == fields[2].c_str() || *end != '\0' || total < 0) {
    return false;
  }
  const long long age = std::strtoll(fields[3].c_str(), &end, 10);
  if (end == fields[3].c_str() || *end != '\0' || age < 0) {
    return false;
  }
  out->reporter = fields[0];
  out->active = static_cast<int>(active);
  out->total = static_cast<int>(total);
  out->rules = fields[4] == "-" ? std::string() : fields[4];
  *age_ms = age;
  return true;
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      recorder_(obs::Recorder::Options{options_.trace_enabled, 8192, true}),
      peer_table_(options_.peers) {}

Daemon::~Daemon() { Stop(); }

bool Daemon::Start(std::string* error) {
  if (running_) {
    *error = "already started";
    return false;
  }
  if (options_.history_paths.empty()) {
    *error = "no history file configured (need at least one --history)";
    return false;
  }
  listen_fd_ = ListenTcp(options_.listen_host, options_.listen_port, &bound_port_, error);
  if (listen_fd_ < 0) {
    return false;
  }
  if (::pipe(stop_pipe_) != 0) {
    *error = "pipe: " + std::string(std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  stop_ = false;
  running_ = true;
  accept_thread_ = std::thread([this] {
    recorder_.NameThisThread("dimmunixd-accept");
    AcceptLoop();
  });
  if (options_.gossip_period.count() > 0 && peer_table_.size() > 0) {
    gossip_thread_ = std::thread([this] {
      recorder_.NameThisThread("dimmunixd-gossip");
      GossipLoop();
    });
  }
  return true;
}

void Daemon::Stop() {
  if (!running_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(gossip_m_);
    stop_ = true;
  }
  gossip_cv_.notify_all();
  const char byte = 0;
  (void)!::write(stop_pipe_[1], &byte, 1);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (gossip_thread_.joinable()) {
    gossip_thread_.join();
  }
  ::close(listen_fd_);
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  listen_fd_ = stop_pipe_[0] = stop_pipe_[1] = -1;
  running_ = false;
}

std::string Daemon::listen_address() const {
  return options_.listen_host + ":" + std::to_string(bound_port_);
}

// --- Threads -----------------------------------------------------------------

void Daemon::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    if (fds[1].revents != 0) {
      return;  // Stop()
    }
    if ((fds[0].revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    FdCloser closer(fd);
    const std::string source = PeerAddress(fd);
    if (!SourceAllowed(source)) {
      {
        std::lock_guard<std::mutex> lock(state_m_);
        stats_.rejected_conns++;
      }
      (void)SendAllDeadline(fd, Err("source " + source + " not allowed"),
                            SteadyClock::now() + std::chrono::seconds(1));
      DrainToEof(fd, std::chrono::seconds(1));
      continue;
    }
    // Served inline: commands are a handful of small frames, and serving one
    // connection at a time is exactly the behavior of the UDS control server.
    ServeConnection(fd);
  }
}

void Daemon::GossipLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(gossip_m_);
      if (gossip_cv_.wait_for(lock, options_.gossip_period, [this] { return stop_; })) {
        return;
      }
    }
    GossipOnce();
  }
}

void Daemon::GossipOnce() {
  const auto now = SteadyClock::now();
  std::vector<std::string> due;
  {
    std::lock_guard<std::mutex> lock(state_m_);
    for (std::size_t i = 0; i < peer_table_.size(); ++i) {
      if (peer_table_.Due(i, now)) {
        due.push_back(peer_table_.at(i).address);
      }
    }
  }
  for (const std::string& address : due) {
    std::string error;
    (void)SyncWith(address, /*do_send=*/true, /*do_merge=*/true, nullptr, nullptr, &error);
  }
  // Alert summaries ride the same cadence, but out-of-band from the binary
  // sync protocol: one text line per peer, best-effort.
  PushAlertsToPeers(due);
}

bool Daemon::SourceAllowed(const std::string& source) const {
  if (!options_.reject_loopback && source.compare(0, 4, "127.") == 0) {
    return true;
  }
  for (const std::string& allowed : options_.allow) {
    if (source == allowed) {
      return true;
    }
  }
  return false;
}

// --- Sync rounds -------------------------------------------------------------

persist::HistoryImage Daemon::LoadUnion() {
  persist::HistoryImage image;
  for (const std::string& path : options_.history_paths) {
    persist::HistoryImage one;
    (void)persist::LoadHistoryFile(path, &one);
    persist::MergeInto(&image, one, persist::MergePolicy::kPreferIncoming);
  }
  const auto now = SteadyClock::now();
  std::lock_guard<std::mutex> lock(state_m_);
  stats_.signatures = image.records.size();
  for (const persist::SignatureRecord& record : image.records) {
    // Records that appeared locally (a process escaped a deadlock and wrote
    // its file) start their propagation clock at the scan that finds them.
    first_seen_.emplace(persist::SignatureHash(record), now);
  }
  return image;
}

Delta Daemon::BuildDelta(const persist::HistoryImage& mine,
                         const std::vector<persist::DigestEntry>& theirs) {
  Delta delta;
  delta.image = persist::DeltaAgainst(mine, theirs);
  const auto now = SteadyClock::now();
  std::lock_guard<std::mutex> lock(state_m_);
  delta.ages_ms.reserve(delta.image.records.size());
  for (const persist::SignatureRecord& record : delta.image.records) {
    const auto it = first_seen_.find(persist::SignatureHash(record));
    std::int64_t age = it == first_seen_.end() ? 0 : AgeMs(it->second, now);
    if (age < 0) {
      age = 0;
    }
    delta.ages_ms.push_back(age > 0xffffffffLL ? 0xffffffffU
                                               : static_cast<std::uint32_t>(age));
  }
  return delta;
}

std::uint64_t Daemon::MergeDelta(const Delta& delta) {
  if (delta.image.records.empty()) {
    return 0;
  }
  const auto now = SteadyClock::now();
  std::uint64_t fresh = 0;
  {
    std::lock_guard<std::mutex> lock(state_m_);
    for (std::size_t i = 0; i < delta.image.records.size(); ++i) {
      const std::uint64_t hash = persist::SignatureHash(delta.image.records[i]);
      if (first_seen_.find(hash) != first_seen_.end()) {
        continue;
      }
      // The sender's age says how long ago the record was born fleet-wide;
      // back-date our first_seen so the age keeps accumulating if we gossip
      // it onward, and record the end-to-end propagation latency here.
      const std::uint32_t age = i < delta.ages_ms.size() ? delta.ages_ms[i] : 0;
      first_seen_.emplace(hash, now - std::chrono::milliseconds(age));
      propagation_ms_.Record(age);
      fresh++;
    }
    stats_.records_in += delta.image.records.size();
    stats_.records_new += fresh;
  }
  for (const std::string& path : options_.history_paths) {
    std::string error;
    if (!persist::MergeIntoFile(path, delta.image, nullptr, &error)) {
      std::lock_guard<std::mutex> lock(state_m_);
      stats_.merge_errors++;
    }
  }
  return fresh;
}

bool Daemon::SyncWith(const std::string& address, bool do_send, bool do_merge,
                      std::uint64_t* records_in, std::uint64_t* records_out,
                      std::string* error) {
  std::string host;
  std::uint16_t port = 0;
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  const auto start = SteadyClock::now();
  const auto deadline = start + options_.io_timeout;
  SyncOutcome outcome;
  bool ok = false;
  if (!ParseHostPort(address, &host, &port)) {
    *err = "malformed peer address '" + address + "' (want host:port)";
  } else {
    std::lock_guard<std::mutex> sync_lock(sync_m_);
    ok = [&] {
      const persist::HistoryImage mine = LoadUnion();
      const std::string digest_frame = EncodeDigestFrame(persist::DigestOf(mine));
      if (digest_frame.empty()) {
        *err = "local digest exceeds frame bounds";
        return false;
      }
      const int fd = ConnectTcp(host, port, options_.io_timeout, err);
      if (fd < 0) {
        return false;
      }
      FdCloser closer(fd);
      if (!SendAllDeadline(fd, "fleet sync\n" + digest_frame, deadline)) {
        *err = "send failed (digest)";
        return false;
      }
      std::string line;
      std::string buffer;
      if (!ReadLineDeadline(fd, &line, &buffer, 4096, deadline)) {
        *err = "no reply from peer";
        return false;
      }
      if (line != "ok") {
        *err = "peer replied '" + line + "'";
        return false;
      }
      std::string frame;
      if (!ReadFrameBytes(fd, &buffer, &frame, deadline, err)) {
        return false;
      }
      Delta their_delta;
      DecodeStatus status = DecodeDeltaFrame(frame, &their_delta);
      if (status != DecodeStatus::kOk) {
        std::lock_guard<std::mutex> lock(state_m_);
        stats_.bad_frames++;
        *err = std::string("delta frame: ") + DecodeStatusName(status);
        return false;
      }
      if (!ReadFrameBytes(fd, &buffer, &frame, deadline, err)) {
        return false;
      }
      std::vector<persist::DigestEntry> their_digest;
      status = DecodeDigestFrame(frame, &their_digest);
      if (status != DecodeStatus::kOk) {
        std::lock_guard<std::mutex> lock(state_m_);
        stats_.bad_frames++;
        *err = std::string("digest frame: ") + DecodeStatusName(status);
        return false;
      }
      const Delta out = do_send ? BuildDelta(mine, their_digest) : Delta{};
      const std::string out_frame = EncodeDeltaFrame(out);
      if (out_frame.empty()) {
        *err = "outgoing delta exceeds frame bounds";
        return false;
      }
      if (!SendAllDeadline(fd, out_frame, deadline)) {
        *err = "send failed (delta)";
        return false;
      }
      if (do_merge) {
        MergeDelta(their_delta);
        outcome.in = their_delta.image.records.size();
      }
      outcome.out = out.image.records.size();
      // The responder confirms only after merging our delta — without this,
      // `fleet push` would report success while the peer's file still lacks
      // the shipped records.
      if (!ReadLineDeadline(fd, &line, &buffer, 4096, deadline)) {
        *err = "peer never confirmed the round";
        return false;
      }
      if (line != "done") {
        *err = "peer ended the round with '" + line + "'";
        return false;
      }
      return true;
    }();
  }
  const auto now = SteadyClock::now();
  int peer_index = -1;
  {
    std::lock_guard<std::mutex> lock(state_m_);
    peer_index = peer_table_.Find(address);
    if (ok) {
      stats_.rounds_ok++;
      stats_.records_out += outcome.out;
      last_sync_ = now;
      if (peer_index >= 0) {
        peer_table_.NoteSuccess(static_cast<std::size_t>(peer_index), now, outcome.in,
                                outcome.out);
      }
    } else {
      stats_.rounds_failed++;
      if (peer_index >= 0) {
        peer_table_.NoteFailure(static_cast<std::size_t>(peer_index), now,
                                options_.gossip_period, *err);
      }
    }
  }
  recorder_.Span(obs::TraceEventType::kFleetSync, obs::NowNs(),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(now - start).count(),
                 obs::SaturateAux(peer_index), ok ? 0 : 1,
                 (outcome.in << 32) | outcome.out);
  if (records_in != nullptr) {
    *records_in = outcome.in;
  }
  if (records_out != nullptr) {
    *records_out = outcome.out;
  }
  return ok;
}

// --- Serving -----------------------------------------------------------------

void Daemon::ServeConnection(int fd) {
  const auto deadline = SteadyClock::now() + options_.io_timeout;
  std::string line;
  std::string spill;
  if (!ReadLineDeadline(fd, &line, &spill, 4096, deadline)) {
    return;
  }
  if (line == "fleet sync") {
    ServeSync(fd, &spill, deadline);
    return;
  }
  (void)SendAllDeadline(fd, HandleCommandLine(line), deadline);
}

void Daemon::ServeSync(int fd, std::string* spill, SteadyClock::time_point deadline) {
  const auto start = SteadyClock::now();
  std::string buffer = std::move(*spill);
  std::string frame;
  std::string error;
  if (!ReadFrameBytes(fd, &buffer, &frame, deadline, &error)) {
    std::lock_guard<std::mutex> lock(state_m_);
    stats_.bad_frames++;
    return;
  }
  std::vector<persist::DigestEntry> theirs;
  const DecodeStatus status = DecodeDigestFrame(frame, &theirs);
  if (status != DecodeStatus::kOk) {
    {
      std::lock_guard<std::mutex> lock(state_m_);
      stats_.bad_frames++;
    }
    (void)SendAllDeadline(fd, Err(std::string("digest frame: ") + DecodeStatusName(status)),
                          deadline);
    return;
  }
  // try_lock, never lock: if our own gossip thread is mid-round with the
  // peer that is now syncing at us, blocking here would deadlock the two
  // daemons against each other's accept loops until both deadlines fire.
  // "busy" makes the initiator's round fail cleanly; it retries next period.
  std::unique_lock<std::mutex> sync_lock(sync_m_, std::try_to_lock);
  if (!sync_lock.owns_lock()) {
    (void)SendAllDeadline(fd, Err("busy (sync in progress)"), deadline);
    return;
  }
  const persist::HistoryImage mine = LoadUnion();
  const Delta out = BuildDelta(mine, theirs);
  const std::string delta_frame = EncodeDeltaFrame(out);
  const std::string digest_frame = EncodeDigestFrame(persist::DigestOf(mine));
  if (delta_frame.empty() || digest_frame.empty()) {
    (void)SendAllDeadline(fd, Err("history exceeds frame bounds"), deadline);
    return;
  }
  if (!SendAllDeadline(fd, "ok\n" + delta_frame + digest_frame, deadline)) {
    return;
  }
  if (!ReadFrameBytes(fd, &buffer, &frame, deadline, &error)) {
    std::lock_guard<std::mutex> lock(state_m_);
    stats_.bad_frames++;
    return;
  }
  Delta in;
  if (DecodeDeltaFrame(frame, &in) != DecodeStatus::kOk) {
    std::lock_guard<std::mutex> lock(state_m_);
    stats_.bad_frames++;
    return;
  }
  MergeDelta(in);
  const auto now = SteadyClock::now();
  {
    std::lock_guard<std::mutex> lock(state_m_);
    stats_.syncs_served++;
    stats_.records_out += out.image.records.size();
    last_sync_ = now;
  }
  // Confirm last: a completed round guarantees the merge *and* the stats
  // the initiator (or a test) may immediately read are already visible.
  (void)SendAllDeadline(fd, "done\n", deadline);
  recorder_.Span(obs::TraceEventType::kFleetSync, obs::NowNs(),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(now - start).count(),
                 obs::kNoMatchAux, 2,
                 (static_cast<std::uint64_t>(in.image.records.size()) << 32) |
                     out.image.records.size());
}

// --- Command plane -----------------------------------------------------------

DaemonStatsSnapshot Daemon::stats() const {
  std::lock_guard<std::mutex> lock(state_m_);
  DaemonStatsSnapshot snap = stats_;
  snap.last_sync_age_ms = AgeMs(last_sync_, SteadyClock::now());
  return snap;
}

std::vector<PeerState> Daemon::peers() const {
  std::lock_guard<std::mutex> lock(state_m_);
  std::vector<PeerState> out;
  out.reserve(peer_table_.size());
  for (std::size_t i = 0; i < peer_table_.size(); ++i) {
    out.push_back(peer_table_.at(i));
  }
  return out;
}

// --- Alert table -------------------------------------------------------------

void Daemon::PruneAlertsLocked(SteadyClock::time_point now) {
  for (auto it = alert_table_.begin(); it != alert_table_.end();) {
    if (now - it->second.last_update > kAlertTtl) {
      it = alert_table_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<AlertReport> Daemon::alert_reports() const {
  const auto now = SteadyClock::now();
  std::vector<AlertReport> reports;
  {
    std::lock_guard<std::mutex> lock(state_m_);
    // Prune on read in the const path too: a stale reporter must disappear
    // from `fleet alerts` even when nothing is writing.
    const_cast<Daemon*>(this)->PruneAlertsLocked(now);
    reports.reserve(alert_table_.size());
    for (const auto& [reporter, report] : alert_table_) {
      reports.push_back(report);
    }
  }
  std::sort(reports.begin(), reports.end(),
            [](const AlertReport& a, const AlertReport& b) { return a.reporter < b.reporter; });
  return reports;
}

std::size_t Daemon::IngestAlertRecords(const std::string& records) {
  const auto now = SteadyClock::now();
  std::size_t accepted = 0;
  std::istringstream stream(records);
  std::string token;
  std::lock_guard<std::mutex> lock(state_m_);
  while (stream >> token) {
    AlertReport report;
    std::int64_t age_ms = 0;
    if (!ParseAlertRecord(token, &report, &age_ms)) {
      continue;
    }
    report.last_update = now - std::chrono::milliseconds(age_ms);
    auto [it, inserted] = alert_table_.emplace(report.reporter, report);
    if (!inserted) {
      // Freshest wins: a gossiped copy must never roll back a summary the
      // reporter pushed to us directly.
      if (report.last_update < it->second.last_update) {
        continue;
      }
      it->second = report;
    }
    ++accepted;
  }
  PruneAlertsLocked(now);
  return accepted;
}

std::string Daemon::BuildAlertRecords() {
  const auto now = SteadyClock::now();
  std::ostringstream out;
  std::lock_guard<std::mutex> lock(state_m_);
  PruneAlertsLocked(now);
  bool first = true;
  for (const auto& [reporter, report] : alert_table_) {
    out << (first ? "" : " ") << report.reporter << ';' << report.active << ';' << report.total
        << ';' << AgeMs(report.last_update, now) << ';'
        << (report.rules.empty() ? "-" : report.rules);
    first = false;
  }
  return out.str();
}

void Daemon::PushAlertsToPeers(const std::vector<std::string>& addresses) {
  const std::string records = BuildAlertRecords();
  if (records.empty()) {
    return;
  }
  for (const std::string& address : addresses) {
    std::string reply;
    std::string error;
    (void)QueryTcp(address, "fleet alerts-report " + records, options_.io_timeout, &reply,
                   &error);
  }
}

std::string Daemon::DoFleetAlerts() {
  const std::vector<AlertReport> reports = alert_reports();
  const auto now = SteadyClock::now();
  int active_sum = 0;
  for (const AlertReport& r : reports) {
    active_sum += r.active;
  }
  std::ostringstream out;
  out << "ok\n";
  out << "reporters=" << reports.size() << "\n";
  out << "alerts_active=" << active_sum << "\n";
  for (const AlertReport& r : reports) {
    out << "alert " << r.reporter << " active=" << r.active << " total=" << r.total
        << " age_ms=" << AgeMs(r.last_update, now)
        << " rules=" << (r.rules.empty() ? "-" : r.rules) << "\n";
  }
  return out.str();
}

std::string Daemon::DoFleetAlertsReport(const std::string& records) {
  const std::size_t accepted = IngestAlertRecords(records);
  std::ostringstream out;
  out << "ok\naccepted=" << accepted << "\n";
  return out.str();
}

std::string Daemon::DoFleetStatus() {
  const DaemonStatsSnapshot s = stats();
  const obs::HistogramSnapshot prop = propagation_ms_.Snapshot();
  std::ostringstream out;
  out << "ok\n";
  out << "daemon=dimmunixd\n";
  out << "pid=" << ::getpid() << "\n";
  out << "listen=" << listen_address() << "\n";
  for (const std::string& path : options_.history_paths) {
    out << "history=" << path << "\n";
  }
  out << "peers=" << peer_table_.size() << "\n";
  out << "gossip_ms=" << options_.gossip_period.count() << "\n";
  out << "signatures=" << s.signatures << "\n";
  out << "rounds_ok=" << s.rounds_ok << "\n";
  out << "rounds_failed=" << s.rounds_failed << "\n";
  out << "syncs_served=" << s.syncs_served << "\n";
  out << "records_in=" << s.records_in << "\n";
  out << "records_out=" << s.records_out << "\n";
  out << "records_new=" << s.records_new << "\n";
  out << "merge_errors=" << s.merge_errors << "\n";
  out << "rejected_conns=" << s.rejected_conns << "\n";
  out << "bad_frames=" << s.bad_frames << "\n";
  out << "last_sync_age_ms=" << s.last_sync_age_ms << "\n";
  out << "propagation_count=" << prop.count << "\n";
  out << "propagation_p50_ms=" << prop.Percentile(50) << "\n";
  out << "propagation_p99_ms=" << prop.Percentile(99) << "\n";
  out << "tracing=" << (recorder_.tracing() ? 1 : 0) << "\n";
  // Fleet-wide self-diagnosis roll-up, one line per reporting host — the
  // quick answer to "is anything in the fleet churning right now?".
  const std::vector<AlertReport> reports = alert_reports();
  int active_sum = 0;
  for (const AlertReport& r : reports) {
    active_sum += r.active;
  }
  out << "alert_reporters=" << reports.size() << "\n";
  out << "alerts_active=" << active_sum << "\n";
  for (const AlertReport& r : reports) {
    out << "reporter " << r.reporter << " alerts=" << r.active << "/" << r.total
        << " rules=" << (r.rules.empty() ? "-" : r.rules) << "\n";
  }
  return out.str();
}

std::string Daemon::DoFleetPeers() {
  const std::vector<PeerState> peer_list = peers();
  const auto now = SteadyClock::now();
  std::ostringstream out;
  out << "ok\n";
  out << "peers=" << peer_list.size() << "\n";
  for (const PeerState& peer : peer_list) {
    out << "peer " << peer.address << " rounds_ok=" << peer.rounds_ok
        << " rounds_failed=" << peer.rounds_failed << " in=" << peer.records_in
        << " out=" << peer.records_out << " failures=" << peer.consecutive_failures
        << " last_sync_age_ms=" << AgeMs(peer.last_ok, now);
    if (!peer.last_error.empty()) {
      out << " err=" << peer.last_error;
    }
    out << "\n";
  }
  return out.str();
}

std::string Daemon::DoFleetSyncVerb(const std::string& address, bool do_send, bool do_merge) {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  std::string error;
  if (!SyncWith(address, do_send, do_merge, &in, &out, &error)) {
    return Err("sync with " + address + " failed: " + error);
  }
  std::ostringstream reply;
  reply << "ok\npeer=" << address << "\nrecords_in=" << in << "\nrecords_out=" << out << "\n";
  return reply.str();
}

std::string Daemon::DoMetrics() {
  const DaemonStatsSnapshot s = stats();
  std::string out = "ok\n";
  obs::AppendPromCounter(&out, "dimmunix_fleet_rounds_total",
                         "Gossip rounds initiated and completed.", s.rounds_ok);
  obs::AppendPromCounter(&out, "dimmunix_fleet_rounds_failed_total",
                         "Gossip rounds initiated and failed.", s.rounds_failed);
  obs::AppendPromCounter(&out, "dimmunix_fleet_syncs_served_total",
                         "Sync rounds answered for peers.", s.syncs_served);
  obs::AppendPromCounter(&out, "dimmunix_fleet_records_in_total",
                         "Signature records received in deltas.", s.records_in);
  obs::AppendPromCounter(&out, "dimmunix_fleet_records_out_total",
                         "Signature records shipped in deltas.", s.records_out);
  obs::AppendPromCounter(&out, "dimmunix_fleet_records_new_total",
                         "Received records this daemon had never seen.", s.records_new);
  obs::AppendPromCounter(&out, "dimmunix_fleet_merge_errors_total",
                         "History file merge failures.", s.merge_errors);
  obs::AppendPromCounter(&out, "dimmunix_fleet_rejected_connections_total",
                         "Connections refused by the source allowlist.", s.rejected_conns);
  obs::AppendPromCounter(&out, "dimmunix_fleet_bad_frames_total",
                         "Digest/delta frames that failed to decode.", s.bad_frames);
  obs::AppendPromGauge(&out, "dimmunix_fleet_peers", "Configured peer count.",
                       peer_table_.size());
  obs::AppendPromGauge(&out, "dimmunix_fleet_signatures",
                       "Signatures in the watched history union.", s.signatures);
  const std::vector<AlertReport> reports = alert_reports();
  std::uint64_t active_sum = 0;
  for (const AlertReport& r : reports) {
    active_sum += static_cast<std::uint64_t>(r.active);
  }
  obs::AppendPromGauge(&out, "dimmunix_fleet_alert_reporters",
                       "Hosts with a live health-alert summary in the table.",
                       reports.size());
  obs::AppendPromGauge(&out, "dimmunix_fleet_alerts_active",
                       "Raised health rules summed across reporting hosts.", active_sum);
  obs::AppendPromHistogram(&out, "dimmunix_fleet_propagation_ms",
                           "End-to-end propagation latency of records learned from peers "
                           "(milliseconds, ages accumulated across gossip hops).",
                           propagation_ms_.Snapshot());
  return out;
}

std::string Daemon::Execute(const control::Request& request) {
  switch (request.kind) {
    case control::CommandKind::kStatus:
    case control::CommandKind::kFleetStatus:
      return DoFleetStatus();
    case control::CommandKind::kFleetPeers:
      return DoFleetPeers();
    case control::CommandKind::kFleetPush:
      return DoFleetSyncVerb(request.path, /*do_send=*/true, /*do_merge=*/false);
    case control::CommandKind::kFleetPull:
      return DoFleetSyncVerb(request.path, /*do_send=*/false, /*do_merge=*/true);
    case control::CommandKind::kFleetAlerts:
      return DoFleetAlerts();
    case control::CommandKind::kFleetAlertsReport:
      return DoFleetAlertsReport(request.rest);
    case control::CommandKind::kMetrics:
      return DoMetrics();
    case control::CommandKind::kTraceStart:
      recorder_.StartTracing();
      return "ok\ntracing=1\n";
    case control::CommandKind::kTraceStop:
      recorder_.StopTracing();
      return "ok\ntracing=0\n";
    case control::CommandKind::kTraceDump:
      return "ok\n" +
             obs::ChromeTraceJson(recorder_, static_cast<std::uint64_t>(::getpid()));
    case control::CommandKind::kConfig: {
      std::ostringstream out;
      out << "ok\n";
      out << "listen=" << listen_address() << "\n";
      out << "gossip_ms=" << options_.gossip_period.count() << "\n";
      out << "io_timeout_ms=" << options_.io_timeout.count() << "\n";
      for (const std::string& path : options_.history_paths) {
        out << "history=" << path << "\n";
      }
      for (std::size_t i = 0; i < peer_table_.size(); ++i) {
        out << "peer=" << peer_table_.at(i).address << "\n";
      }
      for (const std::string& allowed : options_.allow) {
        out << "allow=" << allowed << "\n";
      }
      return out.str();
    }
    case control::CommandKind::kHelp:
      return "ok\n" + DaemonHelpText();
    default:
      return Err("not supported by dimmunixd (application-runtime command; use dimctl "
                 "against the process socket)");
  }
}

std::string Daemon::HandleCommandLine(const std::string& line) {
  std::string error;
  const std::optional<control::Request> request = control::ParseRequest(line, &error);
  if (!request.has_value()) {
    return Err(error);
  }
  return Execute(*request);
}

}  // namespace fleet
}  // namespace dimmunix
