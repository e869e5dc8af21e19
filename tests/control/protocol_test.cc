// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Unit tests for the control-plane protocol layer: request parsing (valid,
// malformed, unknown), bounds-checked execution against a Runtime, and the
// reply format contract (first line "ok"/"err ...", key=value payload).
// Everything here is socket-free by design.

#include "src/control/protocol.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>

#include "src/core/runtime.h"
#include "src/fleet/daemon.h"
#include "src/obs/health.h"
#include "src/obs/incident.h"
#include "src/persist/file.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace control {
namespace {

Config TestConfig() {
  Config config;
  config.start_monitor = false;
  config.default_match_depth = 1;
  return config;
}

int SeedSignature(Runtime& rt, const char* fa, const char* fb) {
  bool added = false;
  const int index = rt.history().Add(
      SignatureKind::kDeadlock,
      {rt.stacks().Intern({FrameFromName(fa)}), rt.stacks().Intern({FrameFromName(fb)})}, 1,
      &added);
  rt.engine().NotifyHistoryChanged();
  return index;
}

// One avoidance of the {holdX, reqY} signature (same idiom as runtime_test).
void TriggerAvoidance(Runtime& rt) {
  const ThreadId main_tid = rt.RegisterCurrentThread();
  {
    ScopedFrame frame(FrameFromName("holdX"));
    ASSERT_EQ(rt.engine().Request(main_tid, 500), RequestDecision::kGo);
    rt.engine().Acquired(main_tid, 500);
  }
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame frame(FrameFromName("reqY"));
    EXPECT_EQ(rt.engine().RequestNonblocking(tid, 600), RequestDecision::kBusy);
  });
  other.join();
  rt.engine().Release(main_tid, 500);
}

TEST(ProtocolParseTest, SimpleCommands) {
  std::string error;
  EXPECT_EQ(ParseRequest("status", &error)->kind, CommandKind::kStatus);
  EXPECT_EQ(ParseRequest("stats", &error)->kind, CommandKind::kStats);
  EXPECT_EQ(ParseRequest("history", &error)->kind, CommandKind::kHistory);
  EXPECT_EQ(ParseRequest("disable-last", &error)->kind, CommandKind::kDisableLast);
  EXPECT_EQ(ParseRequest("reload", &error)->kind, CommandKind::kReload);
  EXPECT_EQ(ParseRequest("rag", &error)->kind, CommandKind::kRag);
  EXPECT_EQ(ParseRequest("config", &error)->kind, CommandKind::kConfig);
  EXPECT_EQ(ParseRequest("help", &error)->kind, CommandKind::kHelp);
}

TEST(ProtocolParseTest, ArgumentsAndFraming) {
  std::string error;
  const auto disable = ParseRequest("disable 7", &error);
  ASSERT_TRUE(disable.has_value());
  EXPECT_EQ(disable->kind, CommandKind::kDisable);
  EXPECT_EQ(disable->index, 7);

  // Trailing CRLF and extra whitespace are tolerated.
  const auto enable = ParseRequest("  enable \t 3\r\n", &error);
  ASSERT_TRUE(enable.has_value());
  EXPECT_EQ(enable->kind, CommandKind::kEnable);
  EXPECT_EQ(enable->index, 3);

  const auto depth = ParseRequest("set-depth 2 5", &error);
  ASSERT_TRUE(depth.has_value());
  EXPECT_EQ(depth->index, 2);
  EXPECT_EQ(depth->depth, 5);
}

TEST(ProtocolParseTest, MalformedCommands) {
  std::string error;
  EXPECT_FALSE(ParseRequest("", &error).has_value());
  EXPECT_EQ(error, "empty command");
  EXPECT_FALSE(ParseRequest("   \r\n", &error).has_value());

  EXPECT_FALSE(ParseRequest("frobnicate", &error).has_value());
  EXPECT_NE(error.find("unknown command"), std::string::npos);

  EXPECT_FALSE(ParseRequest("disable", &error).has_value());         // missing arg
  EXPECT_FALSE(ParseRequest("disable 1 2", &error).has_value());     // extra arg
  EXPECT_FALSE(ParseRequest("disable x", &error).has_value());       // non-numeric
  EXPECT_FALSE(ParseRequest("disable -4", &error).has_value());      // negative
  EXPECT_FALSE(ParseRequest("disable 1x", &error).has_value());      // trailing junk
  EXPECT_FALSE(ParseRequest("set-depth 1", &error).has_value());     // missing depth
  EXPECT_FALSE(ParseRequest("set-depth 1 0", &error).has_value());   // depth < 1
  EXPECT_FALSE(ParseRequest("status extra", &error).has_value());    // no args allowed
}

TEST(ProtocolExecuteTest, StatusAndHistoryReflectRuntimeState) {
  Runtime rt(TestConfig());
  const int index = SeedSignature(rt, "holdX", "reqY");
  TriggerAvoidance(rt);

  const std::string status = HandleLine(rt, "status");
  EXPECT_EQ(status.rfind("ok\n", 0), 0u);
  EXPECT_NE(status.find("signatures=1\n"), std::string::npos);
  EXPECT_NE(status.find("last_avoided=" + std::to_string(index) + "\n"), std::string::npos);

  const std::string history = HandleLine(rt, "history");
  EXPECT_EQ(history.rfind("ok\n", 0), 0u);
  EXPECT_NE(history.find("sig 0 kind=deadlock"), std::string::npos);
  EXPECT_NE(history.find("disabled=0"), std::string::npos);
  EXPECT_NE(history.find("avoidance=1"), std::string::npos);
}

TEST(ProtocolExecuteTest, DisableEnableRoundTrip) {
  Runtime rt(TestConfig());
  const int index = SeedSignature(rt, "holdX", "reqY");

  EXPECT_EQ(HandleLine(rt, "disable " + std::to_string(index)).rfind("ok\n", 0), 0u);
  EXPECT_TRUE(rt.history().Get(index).disabled);
  EXPECT_NE(HandleLine(rt, "history").find("disabled=1"), std::string::npos);

  EXPECT_EQ(HandleLine(rt, "enable " + std::to_string(index)).rfind("ok\n", 0), 0u);
  EXPECT_FALSE(rt.history().Get(index).disabled);
}

TEST(ProtocolExecuteTest, SignatureIndicesAreBoundsChecked) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdX", "reqY");
  // One signature: index 1 is out of range; so is any huge index.
  EXPECT_EQ(HandleLine(rt, "disable 1").rfind("err ", 0), 0u);
  EXPECT_EQ(HandleLine(rt, "enable 1000000").rfind("err ", 0), 0u);
  EXPECT_EQ(HandleLine(rt, "set-depth 1 2").rfind("err ", 0), 0u);
  // Depth beyond max_match_depth is rejected too.
  EXPECT_EQ(HandleLine(rt, "set-depth 0 99").rfind("err ", 0), 0u);
}

TEST(ProtocolExecuteTest, SetDepthChangesMatchingDepth) {
  Runtime rt(TestConfig());
  const int index = SeedSignature(rt, "holdX", "reqY");
  const std::string reply = HandleLine(rt, "set-depth " + std::to_string(index) + " 3");
  EXPECT_EQ(reply.rfind("ok\n", 0), 0u);
  EXPECT_EQ(rt.history().Get(index).match_depth, 3);
}

TEST(ProtocolExecuteTest, DisableLastRequiresAnAvoidance) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdX", "reqY");
  EXPECT_EQ(HandleLine(rt, "disable-last").rfind("err ", 0), 0u);  // nothing avoided yet
  TriggerAvoidance(rt);
  const std::string reply = HandleLine(rt, "disable-last");
  EXPECT_EQ(reply.rfind("ok\n", 0), 0u);
  EXPECT_NE(reply.find("index=0\n"), std::string::npos);
  EXPECT_NE(reply.find("avoidance=1\n"), std::string::npos);
  EXPECT_TRUE(rt.history().Get(0).disabled);
}

TEST(ProtocolExecuteTest, ReloadWithoutHistoryPathIsAnError) {
  Runtime rt(TestConfig());
  EXPECT_EQ(HandleLine(rt, "reload").rfind("err ", 0), 0u);
}

TEST(ProtocolParseTest, HistorySubcommands) {
  std::string error;
  EXPECT_EQ(ParseRequest("history", &error)->kind, CommandKind::kHistory);
  EXPECT_EQ(ParseRequest("history save", &error)->kind, CommandKind::kHistorySave);
  const auto merge = ParseRequest("history merge /tmp/vendor.hist", &error);
  ASSERT_TRUE(merge.has_value());
  EXPECT_EQ(merge->kind, CommandKind::kHistoryMerge);
  EXPECT_EQ(merge->path, "/tmp/vendor.hist");
  const auto exp = ParseRequest("history export /tmp/out.hist", &error);
  ASSERT_TRUE(exp.has_value());
  EXPECT_EQ(exp->kind, CommandKind::kHistoryExport);
  EXPECT_EQ(exp->path, "/tmp/out.hist");

  EXPECT_FALSE(ParseRequest("history frobnicate", &error).has_value());
  EXPECT_FALSE(ParseRequest("history merge", &error).has_value());   // missing path
  EXPECT_FALSE(ParseRequest("history export", &error).has_value());  // missing path
  EXPECT_FALSE(ParseRequest("history save extra", &error).has_value());
}

TEST(ProtocolExecuteTest, HistorySaveRequiresAHistoryPath) {
  Runtime rt(TestConfig());
  EXPECT_EQ(HandleLine(rt, "history save").rfind("err ", 0), 0u);
}

TEST(ProtocolExecuteTest, HistoryExportAndMergeRoundTrip) {
  const std::string exported =
      (std::filesystem::temp_directory_path() /
       ("proto_export_" + std::to_string(::getpid()) + ".hist"))
          .string();
  persist::RemoveHistoryFiles(exported);
  {
    Runtime rt(TestConfig());
    SeedSignature(rt, "exportA", "exportB");
    const std::string reply = HandleLine(rt, "history export " + exported);
    EXPECT_EQ(reply.rfind("ok\n", 0), 0u);
    EXPECT_NE(reply.find("exported=1\n"), std::string::npos);
  }
  ASSERT_TRUE(std::filesystem::exists(exported));

  // A second runtime merges the exported signatures live.
  Runtime rt2(TestConfig());
  EXPECT_EQ(rt2.history().size(), 0u);
  const std::string merged = HandleLine(rt2, "history merge " + exported);
  EXPECT_EQ(merged.rfind("ok\n", 0), 0u);
  EXPECT_NE(merged.find("merged_new=1\n"), std::string::npos);
  EXPECT_EQ(rt2.history().size(), 1u);
  // Idempotent, and a missing source is a clean error.
  EXPECT_NE(HandleLine(rt2, "history merge " + exported).find("merged_new=0\n"),
            std::string::npos);
  EXPECT_EQ(HandleLine(rt2, "history merge /nonexistent/x.hist").rfind("err ", 0), 0u);
  persist::RemoveHistoryFiles(exported);
}

TEST(ProtocolExecuteTest, HistorySavePersistsDurably) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("proto_save_" + std::to_string(::getpid()) + ".hist"))
          .string();
  persist::RemoveHistoryFiles(path);
  Config config = TestConfig();
  config.history_path = path;
  Runtime rt(config);
  SeedSignature(rt, "saveA", "saveB");
  const std::string reply = HandleLine(rt, "history save");
  EXPECT_EQ(reply.rfind("ok\n", 0), 0u);
  EXPECT_NE(reply.find("signatures=1\n"), std::string::npos);
  // On return the signature is durable in the snapshot.
  StackTable table(10);
  History loaded(&table);
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_EQ(loaded.size(), 1u);
  persist::RemoveHistoryFiles(path);
}

TEST(ProtocolExecuteTest, RagSnapshotShowsHeldLocks) {
  Runtime rt(TestConfig());
  const ThreadId tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("holder"));
  ASSERT_EQ(rt.engine().Request(tid, 42), RequestDecision::kGo);
  rt.engine().Acquired(tid, 42);
  rt.monitor().RunOnce();  // drain events into the RAG

  const std::string reply = HandleLine(rt, "rag");
  EXPECT_EQ(reply.rfind("ok\n", 0), 0u);
  EXPECT_NE(reply.find("locks=1\n"), std::string::npos);
  EXPECT_NE(reply.find("held_locks=42"), std::string::npos);
  rt.engine().Release(tid, 42);
}

TEST(ProtocolExecuteTest, RagSnapshotTagsHoldAndRequestModes) {
  Runtime rt(TestConfig());
  const ThreadId main_tid = rt.RegisterCurrentThread();
  ScopedFrame frame(FrameFromName("mode_holder"));
  // Main holds 42 shared; a second thread holds 42 shared too (two shared
  // holders) and 43 exclusive, then waits for 44 in shared mode.
  ASSERT_EQ(rt.engine().Request(main_tid, 42, AcquireMode::kShared), RequestDecision::kGo);
  rt.engine().Acquired(main_tid, 42, AcquireMode::kShared);
  std::thread other([&] {
    const ThreadId tid = rt.RegisterCurrentThread();
    ScopedFrame inner(FrameFromName("mode_other"));
    ASSERT_EQ(rt.engine().Request(tid, 42, AcquireMode::kShared), RequestDecision::kGo);
    rt.engine().Acquired(tid, 42, AcquireMode::kShared);
    ASSERT_EQ(rt.engine().Request(tid, 43), RequestDecision::kGo);
    rt.engine().Acquired(tid, 43);
    ASSERT_EQ(rt.engine().Request(tid, 44, AcquireMode::kShared), RequestDecision::kGo);
  });
  other.join();
  rt.monitor().RunOnce();

  const std::string reply = HandleLine(rt, "rag");
  EXPECT_EQ(reply.rfind("ok\n", 0), 0u);
  EXPECT_NE(reply.find("held_locks=42:S\n"), std::string::npos) << reply;   // main: shared hold
  EXPECT_NE(reply.find("42:S,43:X"), std::string::npos) << reply;           // other: both modes
  EXPECT_NE(reply.find("wait_lock=44 wait_mode=S"), std::string::npos) << reply;
}

TEST(ProtocolExecuteTest, MalformedLinesBecomeErrReplies) {
  Runtime rt(TestConfig());
  EXPECT_EQ(HandleLine(rt, "frobnicate").rfind("err unknown command", 0), 0u);
  EXPECT_EQ(HandleLine(rt, "").rfind("err ", 0), 0u);
}

TEST(ProtocolExecuteTest, HelpListsEveryCommand) {
  Runtime rt(TestConfig());
  const std::string reply = HandleLine(rt, "help");
  EXPECT_EQ(reply.rfind("ok\n", 0), 0u);
  for (const char* cmd : {"status", "stats", "history", "disable", "enable", "disable-last",
                          "reload", "set-depth", "rag", "config", "trace start", "trace stop",
                          "trace dump", "metrics", "histo", "alerts", "incidents",
                          "incidents show", "fleet status", "fleet peers", "fleet push",
                          "fleet pull", "fleet alerts"}) {
    EXPECT_NE(reply.find(cmd), std::string::npos) << cmd;
  }
}

TEST(ProtocolParseTest, ObservabilityCommands) {
  std::string error;
  EXPECT_EQ(ParseRequest("trace start", &error)->kind, CommandKind::kTraceStart);
  EXPECT_EQ(ParseRequest("trace stop", &error)->kind, CommandKind::kTraceStop);
  EXPECT_EQ(ParseRequest("trace dump", &error)->kind, CommandKind::kTraceDump);
  EXPECT_EQ(ParseRequest("metrics", &error)->kind, CommandKind::kMetrics);
  const auto histo = ParseRequest("histo acquire_latency_ns", &error);
  ASSERT_TRUE(histo.has_value());
  EXPECT_EQ(histo->kind, CommandKind::kHisto);
  EXPECT_EQ(histo->path, "acquire_latency_ns");

  EXPECT_FALSE(ParseRequest("trace", &error).has_value());             // missing subcommand
  EXPECT_FALSE(ParseRequest("trace frobnicate", &error).has_value());  // unknown subcommand
  EXPECT_FALSE(ParseRequest("trace dump extra", &error).has_value());
  EXPECT_FALSE(ParseRequest("metrics extra", &error).has_value());
  EXPECT_FALSE(ParseRequest("histo", &error).has_value());  // missing name
}

TEST(ProtocolParseTest, AlertsAndIncidentCommands) {
  std::string error;
  EXPECT_EQ(ParseRequest("alerts", &error)->kind, CommandKind::kAlerts);

  const auto list = ParseRequest("incidents", &error);
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(list->kind, CommandKind::kIncidents);
  EXPECT_EQ(list->index, -1);  // -1 = list mode
  const auto show = ParseRequest("incidents show 2", &error);
  ASSERT_TRUE(show.has_value());
  EXPECT_EQ(show->kind, CommandKind::kIncidents);
  EXPECT_EQ(show->index, 2);

  EXPECT_FALSE(ParseRequest("alerts extra", &error).has_value());
  EXPECT_FALSE(ParseRequest("incidents show", &error).has_value());     // missing index
  EXPECT_FALSE(ParseRequest("incidents show -1", &error).has_value());  // negative
  EXPECT_FALSE(ParseRequest("incidents show x", &error).has_value());   // non-numeric
  EXPECT_FALSE(ParseRequest("incidents frobnicate", &error).has_value());
  EXPECT_NE(error.find("usage: incidents"), std::string::npos);
}

// Strict-enough Prometheus text-format check: every line is a HELP/TYPE
// comment or a `name[{labels}] <number>` sample, TYPE values are legal, and
// every sample belongs to a previously announced family.
void ExpectValidPrometheusText(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  std::string last_family;
  int samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family;
      std::string type;
      fields >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << "bad TYPE line: " << line;
      last_family = family;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "sample without value: " << line;
    std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    for (const char c : value) {
      EXPECT_TRUE((c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e')
          << "non-numeric value in: " << line;
    }
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << "unterminated labels: " << line;
      name = name.substr(0, brace);
    }
    // Histogram families expose name_bucket/_sum/_count samples.
    EXPECT_EQ(name.rfind(last_family, 0), 0u)
        << "sample " << name << " outside announced family " << last_family;
    ++samples;
  }
  EXPECT_GT(samples, 0) << "no samples in exposition";
}

TEST(ProtocolExecuteTest, MetricsIsValidPrometheusExposition) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdX", "reqY");
  TriggerAvoidance(rt);

  const std::string reply = HandleLine(rt, "metrics");
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u);
  const std::string body = reply.substr(3);
  ExpectValidPrometheusText(body);
  // The avoidance above went through the engine: requests counted, and the
  // always-on acquire-latency histogram saw at least one sample.
  EXPECT_NE(body.find("dimmunix_lock_requests_total "), std::string::npos) << body;
  EXPECT_EQ(body.find("dimmunix_lock_requests_total 0\n"), std::string::npos)
      << "requests counter must be non-zero after an acquisition";
  EXPECT_NE(body.find("dimmunix_acquire_latency_ns_count "), std::string::npos) << body;
  EXPECT_EQ(body.find("dimmunix_acquire_latency_ns_count 0\n"), std::string::npos)
      << "acquire-latency histogram must have recorded the acquisition";
  EXPECT_NE(body.find("dimmunix_acquire_latency_ns_bucket{le=\"+Inf\"}"), std::string::npos);
  // The self-diagnosis plane is always exposed: one labeled gauge per health
  // rule (0 while nothing is wrong) plus the incident-log counters and the
  // per-thread flight-recorder ring families.
  EXPECT_NE(body.find("dimmunix_alert_active{rule=\"match_churn\"} 0\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("dimmunix_alert_fired_total{rule=\"resync_stale\"} 0\n"),
            std::string::npos);
  EXPECT_NE(body.find("dimmunix_incidents_captured_total 0\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE dimmunix_trace_ring_written_total counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE dimmunix_trace_ring_dropped_total counter\n"),
            std::string::npos);
}

TEST(ProtocolExecuteTest, AlertsFollowSyntheticChurnThroughTheirLifecycle) {
  Config config = TestConfig();
  config.health_enabled = false;  // the test owns every Tick deterministically
  Runtime rt(config);

  // All quiet: every rule listed, nothing raised, status carries the count.
  std::string reply = HandleLine(rt, "alerts");
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("alerts_raised=0\n"), std::string::npos);
  EXPECT_NE(reply.find("alerts_total=8\n"), std::string::npos);
  for (const char* rule : {"match_churn", "epoch_stall", "ipc_backlog", "ipc_flush_latency",
                           "arena_exhaustion", "ring_drops", "store_backlog", "resync_stale"}) {
    EXPECT_NE(reply.find(std::string("alert ") + rule + " state=inactive"), std::string::npos)
        << rule << " missing from: " << reply;
  }
  EXPECT_NE(HandleLine(rt, "status").find("alerts=0/8\n"), std::string::npos);

  // Synthetic retry churn: prime the deltas, then 80 retries / 100 requests.
  obs::HealthSample s;
  s.now_ns = 1'000'000'000ULL;
  s.requests = 1000;
  rt.health().Tick(s);
  s.now_ns = 2'000'000'000ULL;
  s.requests = 1100;
  s.match_fast_retries = 80;
  rt.health().Tick(s);

  reply = HandleLine(rt, "alerts");
  EXPECT_NE(reply.find("alerts_firing=1\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("alert match_churn state=firing"), std::string::npos);
  EXPECT_NE(HandleLine(rt, "status").find("alerts=1/8\n"), std::string::npos);
  std::string metrics = HandleLine(rt, "metrics");
  EXPECT_NE(metrics.find("dimmunix_alert_active{rule=\"match_churn\"} 1\n"), std::string::npos);

  // Confirm, then two quiet windows: active -> resolved (latched), and the
  // Prometheus gauge drops back to zero while fired_total keeps the event.
  s.now_ns = 3'000'000'000ULL;
  s.requests = 1200;
  s.match_fast_retries = 160;
  rt.health().Tick(s);
  EXPECT_NE(HandleLine(rt, "alerts").find("alert match_churn state=active"), std::string::npos);
  s.now_ns = 4'000'000'000ULL;
  s.requests = 1300;
  rt.health().Tick(s);
  s.now_ns = 5'000'000'000ULL;
  s.requests = 1400;
  rt.health().Tick(s);

  reply = HandleLine(rt, "alerts");
  EXPECT_NE(reply.find("alerts_raised=0\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("alerts_resolved=1\n"), std::string::npos);
  EXPECT_NE(reply.find("alert match_churn state=resolved"), std::string::npos);
  EXPECT_NE(HandleLine(rt, "status").find("alerts=0/8\n"), std::string::npos);
  metrics = HandleLine(rt, "metrics");
  EXPECT_NE(metrics.find("dimmunix_alert_active{rule=\"match_churn\"} 0\n"), std::string::npos);
  EXPECT_NE(metrics.find("dimmunix_alert_fired_total{rule=\"match_churn\"} 1\n"),
            std::string::npos);
  ExpectValidPrometheusText(metrics.substr(3));
}

TEST(ProtocolExecuteTest, IncidentsVerbListsAndShowsBundles) {
  char tmpl[] = "/tmp/dimmunix_proto_inc_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  Config config = TestConfig();
  config.incident_dir = dir;
  Runtime rt(config);

  obs::IncidentContext ctx;
  ctx.kind = "deadlock";
  ctx.signature_hash = 0x1234ULL;
  ctx.signature_stacks = {"protoA", "protoB"};
  ASSERT_FALSE(rt.incident_log().Capture(ctx).empty());

  const std::string list = HandleLine(rt, "incidents");
  ASSERT_EQ(list.rfind("ok\n", 0), 0u) << list;
  EXPECT_NE(list.find("count=1\n"), std::string::npos);
  EXPECT_NE(list.find("incident 0 incident-"), std::string::npos);

  const std::string shown = HandleLine(rt, "incidents show 0");
  ASSERT_EQ(shown.rfind("ok\n", 0), 0u) << shown;
  EXPECT_NE(shown.find("\"schema\":\"dimmunix-incident-v1\""), std::string::npos);
  EXPECT_NE(shown.find("\"hash\":\"0x1234\""), std::string::npos);
  EXPECT_NE(shown.find("protoA"), std::string::npos);

  EXPECT_EQ(HandleLine(rt, "incidents show 5").rfind("err incident index out of range", 0), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ProtocolExecuteTest, IncidentsVerbErrorsWhenForensicsDisabled) {
  Runtime rt(TestConfig());  // no incident_dir
  const std::string reply = HandleLine(rt, "incidents");
  EXPECT_EQ(reply.rfind("err incident forensics disabled", 0), 0u) << reply;
  EXPECT_NE(reply.find("DIMMUNIX_INCIDENT_DIR"), std::string::npos);
}

TEST(ProtocolExecuteTest, TraceStartDumpStopRoundTrip) {
  Config config = TestConfig();
  config.trace_enabled = true;  // armed from the first lock op
  Runtime rt(config);
  SeedSignature(rt, "holdX", "reqY");
  TriggerAvoidance(rt);

  const std::string dump = HandleLine(rt, "trace dump");
  ASSERT_EQ(dump.rfind("ok\n", 0), 0u);
  const std::string json = dump.substr(3);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 80);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"acquire\""), std::string::npos)
      << "the acquisitions above must appear as spans";

  EXPECT_EQ(HandleLine(rt, "trace stop"), "ok\ntracing=0\n");
  EXPECT_FALSE(rt.recorder().tracing());
  EXPECT_NE(HandleLine(rt, "status").find("tracing=0\n"), std::string::npos);
  EXPECT_EQ(HandleLine(rt, "trace start"), "ok\ntracing=1\n");
  EXPECT_TRUE(rt.recorder().tracing());

  // The traced threads above own flight-recorder rings, so `metrics` breaks
  // the written/dropped totals out per thread.
  const std::string metrics = HandleLine(rt, "metrics");
  EXPECT_NE(metrics.find("dimmunix_trace_ring_written_total{thread=\""), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("dimmunix_trace_ring_dropped_total{thread=\""), std::string::npos);
  ExpectValidPrometheusText(metrics.substr(3));
}

TEST(ProtocolParseTest, FleetCommands) {
  std::string error;
  EXPECT_EQ(ParseRequest("fleet status", &error)->kind, CommandKind::kFleetStatus);
  EXPECT_EQ(ParseRequest("fleet peers", &error)->kind, CommandKind::kFleetPeers);

  const auto push = ParseRequest("fleet push 10.0.0.8:7077", &error);
  ASSERT_TRUE(push.has_value());
  EXPECT_EQ(push->kind, CommandKind::kFleetPush);
  EXPECT_EQ(push->path, "10.0.0.8:7077");

  const auto pull = ParseRequest("fleet pull hub:7077", &error);
  ASSERT_TRUE(pull.has_value());
  EXPECT_EQ(pull->kind, CommandKind::kFleetPull);
  EXPECT_EQ(pull->path, "hub:7077");

  EXPECT_EQ(ParseRequest("fleet alerts", &error)->kind, CommandKind::kFleetAlerts);
  // alerts-report is the machine half of alert gossip: records pass verbatim.
  const auto report = ParseRequest("fleet alerts-report h:1;2;8;0;match_churn h:2;0;8;5;-",
                                   &error);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, CommandKind::kFleetAlertsReport);
  EXPECT_EQ(report->rest, "h:1;2;8;0;match_churn h:2;0;8;5;-");
  EXPECT_FALSE(ParseRequest("fleet alerts extra", &error).has_value());
  EXPECT_FALSE(ParseRequest("fleet alerts-report", &error).has_value());  // missing record

  EXPECT_FALSE(ParseRequest("fleet", &error).has_value());
  EXPECT_NE(error.find("usage: fleet"), std::string::npos);
  EXPECT_FALSE(ParseRequest("fleet frobnicate", &error).has_value());
  EXPECT_FALSE(ParseRequest("fleet status extra", &error).has_value());
  EXPECT_FALSE(ParseRequest("fleet push", &error).has_value());   // missing addr
  EXPECT_FALSE(ParseRequest("fleet pull a b", &error).has_value());  // extra arg
}

TEST(ProtocolExecuteTest, FleetVerbsRequireAnAttachedDaemon) {
  Runtime rt(TestConfig());  // no fleet_daemon configured
  for (const char* line :
       {"fleet status", "fleet peers", "fleet push h:1", "fleet pull h:1", "fleet alerts"}) {
    const std::string reply = HandleLine(rt, line);
    EXPECT_EQ(reply.rfind("err no fleet daemon attached", 0), 0u) << line << ": " << reply;
    EXPECT_NE(reply.find("DIMMUNIX_FLEET"), std::string::npos) << reply;
  }
  // And `status` simply omits the fleet= line rather than erroring.
  EXPECT_EQ(HandleLine(rt, "status").find("fleet="), std::string::npos);
}

TEST(ProtocolExecuteTest, FleetVerbsProxyToTheAttachedDaemon) {
  const std::string history =
      (std::filesystem::temp_directory_path() /
       ("proto_fleet_" + std::to_string(::getpid()) + ".hist"))
          .string();
  persist::RemoveHistoryFiles(history);
  fleet::DaemonOptions options;
  options.history_paths.push_back(history);
  options.gossip_period = std::chrono::milliseconds(0);
  fleet::Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Config config = TestConfig();
  config.fleet_daemon = daemon.listen_address();
  Runtime rt(config);

  const std::string reply = HandleLine(rt, "fleet status");
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("daemon=dimmunixd\n"), std::string::npos) << reply;

  // `status` carries the condensed fleet= line when a daemon is attached.
  const std::string status = HandleLine(rt, "status");
  EXPECT_NE(status.find("fleet=" + daemon.listen_address() + ",peers=0"), std::string::npos)
      << status;
  // `config` reports the attachment.
  EXPECT_NE(HandleLine(rt, "config").find("fleet_daemon=" + daemon.listen_address() + "\n"),
            std::string::npos);

  // Alert gossip round-trips through the daemon: a report lands in its
  // table and both `fleet alerts` and `fleet status` attribute it to the
  // reporting host. (Counts are not asserted — this runtime's own health
  // thread may report too.)
  const std::string pushed =
      HandleLine(rt, "fleet alerts-report peer9:42;2;8;0;match_churn+ring_drops");
  ASSERT_EQ(pushed.rfind("ok\n", 0), 0u) << pushed;
  EXPECT_NE(pushed.find("accepted=1\n"), std::string::npos);
  const std::string alerts = HandleLine(rt, "fleet alerts");
  ASSERT_EQ(alerts.rfind("ok\n", 0), 0u) << alerts;
  EXPECT_NE(alerts.find("alert peer9:42 active=2 total=8"), std::string::npos) << alerts;
  EXPECT_NE(alerts.find("rules=match_churn+ring_drops"), std::string::npos);
  EXPECT_NE(HandleLine(rt, "fleet status").find("reporter peer9:42 alerts=2/8"),
            std::string::npos);

  daemon.Stop();
  persist::RemoveHistoryFiles(history);
}

TEST(ProtocolExecuteTest, UnreachableFleetDaemonDegradesGracefully) {
  Config config = TestConfig();
  config.fleet_daemon = "127.0.0.1:1";  // nothing listens there
  Runtime rt(config);
  EXPECT_EQ(HandleLine(rt, "fleet peers").rfind("err fleet daemon 127.0.0.1:1 unreachable", 0),
            0u);
  // `status` must not fail outright when the daemon is down.
  const std::string status = HandleLine(rt, "status");
  EXPECT_EQ(status.rfind("ok\n", 0), 0u);
  EXPECT_NE(status.find("fleet=unreachable(127.0.0.1:1)\n"), std::string::npos) << status;
}

TEST(ProtocolExecuteTest, HistoReadoutAndUnknownName) {
  Runtime rt(TestConfig());
  SeedSignature(rt, "holdX", "reqY");
  TriggerAvoidance(rt);

  const std::string reply = HandleLine(rt, "histo acquire_latency_ns");
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u);
  EXPECT_NE(reply.find("count="), std::string::npos);
  EXPECT_NE(reply.find("p99_ns="), std::string::npos);
  EXPECT_EQ(reply.find("count=0\n"), std::string::npos)
      << "acquisitions above must have landed in the histogram";

  const std::string bad = HandleLine(rt, "histo bogus");
  EXPECT_EQ(bad.rfind("err unknown histogram", 0), 0u) << bad;
  EXPECT_NE(bad.find("acquire_latency_ns"), std::string::npos)
      << "the error must list the valid names";
}

}  // namespace
}  // namespace control
}  // namespace dimmunix
