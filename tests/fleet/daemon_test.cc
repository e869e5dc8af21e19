// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Tests for fleet::Daemon: two-daemon loopback convergence (records, knob
// epochs, disabled flags), push/pull directionality, the command plane
// (fleet status / peers), and the allowlist rejection path. Every
// daemon here listens on an ephemeral loopback port with its own temp
// history files.

#include "src/fleet/daemon.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>

#include "src/fleet/net.h"
#include "src/persist/file.h"

namespace dimmunix {
namespace fleet {
namespace {

persist::SignatureRecord MakeRecord(std::uint64_t seed, std::uint16_t epoch = 0,
                                    bool disabled = false) {
  persist::SignatureRecord rec;
  rec.knob_epoch = epoch;
  rec.disabled = disabled;
  rec.stacks.push_back({Frame{seed * 31 + 1}, Frame{seed * 31 + 2}});
  rec.stacks.push_back({Frame{seed * 97 + 5}});
  rec.Canonicalize();
  return rec;
}

class DaemonTest : public ::testing::Test {
 protected:
  std::string TempHistory(const char* tag) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("dimx_fleet_" + std::string(tag) + "_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter_++)))
            .string();
    persist::RemoveHistoryFiles(path);
    cleanup_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : cleanup_) {
      persist::RemoveHistoryFiles(path);
    }
  }

  static void Seed(const std::string& path, const persist::HistoryImage& image) {
    std::string error;
    ASSERT_TRUE(persist::SaveHistoryFile(path, image, &error)) << error;
  }

  static persist::HistoryImage LoadFile(const std::string& path) {
    persist::HistoryImage image;
    (void)persist::LoadHistoryFile(path, &image);
    return image;
  }

  // Polls until `pred` holds; the deadline only bounds a broken test.
  static bool WaitFor(const std::function<bool()>& pred,
                      std::chrono::seconds timeout = std::chrono::seconds(30)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  static DaemonOptions ServeOnly(const std::string& history) {
    DaemonOptions options;
    options.history_paths.push_back(history);
    options.gossip_period = std::chrono::milliseconds(0);
    return options;
  }

  int counter_ = 0;
  std::vector<std::string> cleanup_;
};

TEST_F(DaemonTest, StartRequiresAHistoryPath) {
  Daemon daemon{DaemonOptions{}};
  std::string error;
  EXPECT_FALSE(daemon.Start(&error));
  EXPECT_NE(error.find("history"), std::string::npos);
}

TEST_F(DaemonTest, OneSyncRoundConvergesBothSides) {
  const std::string history_a = TempHistory("a");
  const std::string history_b = TempHistory("b");
  persist::HistoryImage seed_a;
  seed_a.records.push_back(MakeRecord(1));
  Seed(history_a, seed_a);
  persist::HistoryImage seed_b;
  seed_b.records.push_back(MakeRecord(2));
  Seed(history_b, seed_b);

  Daemon a(ServeOnly(history_a));
  Daemon b(ServeOnly(history_b));
  std::string error;
  ASSERT_TRUE(a.Start(&error)) << error;
  ASSERT_TRUE(b.Start(&error)) << error;

  std::uint64_t in = 0;
  std::uint64_t out = 0;
  ASSERT_TRUE(b.SyncWith(a.listen_address(), /*do_send=*/true, /*do_merge=*/true, &in, &out,
                         &error))
      << error;
  EXPECT_EQ(in, 1u);   // learned a's record
  EXPECT_EQ(out, 1u);  // shipped b's record

  // One push-pull round: both files now hold the identical two-record union.
  EXPECT_EQ(LoadFile(history_a).records.size(), 2u);
  EXPECT_EQ(LoadFile(history_b).records.size(), 2u);
  EXPECT_TRUE(persist::DiffImages(LoadFile(history_a), LoadFile(history_b)).identical());

  const DaemonStatsSnapshot stats_b = b.stats();
  EXPECT_EQ(stats_b.rounds_ok, 1u);
  EXPECT_EQ(stats_b.records_new, 1u);
  EXPECT_GE(stats_b.last_sync_age_ms, 0);
  const DaemonStatsSnapshot stats_a = a.stats();
  EXPECT_EQ(stats_a.syncs_served, 1u);
  EXPECT_EQ(stats_a.records_new, 1u);
  // The learned record went through the propagation histogram on both sides.
  EXPECT_EQ(a.propagation_ms().count, 1u);
  EXPECT_EQ(b.propagation_ms().count, 1u);
}

TEST_F(DaemonTest, GossipConvergesAndPropagatesKnobChanges) {
  const std::string history_a = TempHistory("a");
  const std::string history_b = TempHistory("b");
  persist::HistoryImage seed_a;
  seed_a.records.push_back(MakeRecord(1));
  Seed(history_a, seed_a);
  persist::HistoryImage seed_b;
  seed_b.records.push_back(MakeRecord(2));
  Seed(history_b, seed_b);

  Daemon a(ServeOnly(history_a));
  std::string error;
  ASSERT_TRUE(a.Start(&error)) << error;

  DaemonOptions options_b;
  options_b.history_paths.push_back(history_b);
  options_b.peers.push_back(a.listen_address());
  options_b.gossip_period = std::chrono::milliseconds(25);
  Daemon b(options_b);
  ASSERT_TRUE(b.Start(&error)) << error;

  ASSERT_TRUE(WaitFor([&] {
    return persist::DiffImages(LoadFile(history_a), LoadFile(history_b)).identical() &&
           LoadFile(history_b).records.size() == 2;
  })) << "daemons never converged";

  // An operator action lands on host A: signature 1 disabled at epoch 1
  // (merged under the file lock, exactly like `history_tool disable`).
  persist::HistoryImage knob_change;
  knob_change.records.push_back(MakeRecord(1, /*epoch=*/1, /*disabled=*/true));
  ASSERT_TRUE(persist::MergeIntoFile(history_a, knob_change));

  // Within a few gossip rounds B holds the disabled copy — epoch wins.
  ASSERT_TRUE(WaitFor([&] {
    const persist::HistoryImage image = LoadFile(history_b);
    const int index = image.Find(knob_change.records[0]);
    return index >= 0 && image.records[index].disabled &&
           image.records[index].knob_epoch == 1;
  })) << "knob change never reached B";

  EXPECT_GE(b.stats().rounds_ok, 1u);
  EXPECT_GE(a.stats().syncs_served, 1u);
}

TEST_F(DaemonTest, PushShipsWithoutMerging) {
  const std::string history_a = TempHistory("a");
  const std::string history_b = TempHistory("b");
  persist::HistoryImage seed_a;
  seed_a.records.push_back(MakeRecord(1));
  Seed(history_a, seed_a);
  persist::HistoryImage seed_b;
  seed_b.records.push_back(MakeRecord(2));
  Seed(history_b, seed_b);

  Daemon a(ServeOnly(history_a));
  Daemon b(ServeOnly(history_b));
  std::string error;
  ASSERT_TRUE(a.Start(&error)) << error;
  ASSERT_TRUE(b.Start(&error)) << error;

  const std::string reply = b.HandleCommandLine("fleet push " + a.listen_address());
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("records_out=1\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("records_in=0\n"), std::string::npos) << reply;

  // A received b's record; b deliberately did not merge a's.
  EXPECT_EQ(LoadFile(history_a).records.size(), 2u);
  EXPECT_EQ(LoadFile(history_b).records.size(), 1u);
}

TEST_F(DaemonTest, PullMergesWithoutShipping) {
  const std::string history_a = TempHistory("a");
  const std::string history_b = TempHistory("b");
  persist::HistoryImage seed_a;
  seed_a.records.push_back(MakeRecord(1));
  Seed(history_a, seed_a);
  persist::HistoryImage seed_b;
  seed_b.records.push_back(MakeRecord(2));
  Seed(history_b, seed_b);

  Daemon a(ServeOnly(history_a));
  Daemon b(ServeOnly(history_b));
  std::string error;
  ASSERT_TRUE(a.Start(&error)) << error;
  ASSERT_TRUE(b.Start(&error)) << error;

  const std::string reply = b.HandleCommandLine("fleet pull " + a.listen_address());
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("records_in=1\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("records_out=0\n"), std::string::npos) << reply;

  // B merged a's record; a learned nothing.
  EXPECT_EQ(LoadFile(history_b).records.size(), 2u);
  EXPECT_EQ(LoadFile(history_a).records.size(), 1u);
}

TEST_F(DaemonTest, FleetStatusAndConfigReplies) {
  const std::string history = TempHistory("s");
  Seed(history, persist::HistoryImage{});
  DaemonOptions options = ServeOnly(history);
  options.peers.push_back("10.1.2.3:7077");  // never contacted (gossip off)
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const std::string status = daemon.HandleCommandLine("fleet status");
  ASSERT_EQ(status.rfind("ok\n", 0), 0u) << status;
  EXPECT_NE(status.find("daemon=dimmunixd\n"), std::string::npos);
  EXPECT_NE(status.find("listen=" + daemon.listen_address() + "\n"), std::string::npos);
  EXPECT_NE(status.find("history=" + history + "\n"), std::string::npos);
  EXPECT_NE(status.find("peers=1\n"), std::string::npos);
  EXPECT_NE(status.find("last_sync_age_ms=-1\n"), std::string::npos);  // never synced
  EXPECT_NE(status.find("propagation_count=0\n"), std::string::npos);
  // `status` is an alias, for symmetry with the runtime control plane.
  EXPECT_EQ(daemon.HandleCommandLine("status"), status);

  const std::string config = daemon.HandleCommandLine("config");
  ASSERT_EQ(config.rfind("ok\n", 0), 0u) << config;
  EXPECT_NE(config.find("peer=10.1.2.3:7077\n"), std::string::npos);

  const std::string peers = daemon.HandleCommandLine("fleet peers");
  ASSERT_EQ(peers.rfind("ok\npeers=1\n", 0), 0u) << peers;
  EXPECT_NE(peers.find("peer 10.1.2.3:7077 rounds_ok=0"), std::string::npos) << peers;
}

TEST_F(DaemonTest, RuntimeOnlyCommandsAreRefused) {
  const std::string history = TempHistory("r");
  Seed(history, persist::HistoryImage{});
  Daemon daemon(ServeOnly(history));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  // Parseable but runtime-bound verbs get a pointed error; garbage gets the
  // parser's error. Either way the reply grammar holds.
  EXPECT_EQ(daemon.HandleCommandLine("disable 0").rfind("err not supported", 0), 0u);
  EXPECT_EQ(daemon.HandleCommandLine("rag").rfind("err not supported", 0), 0u);
  EXPECT_EQ(daemon.HandleCommandLine("frobnicate").rfind("err unknown command", 0), 0u);
  EXPECT_EQ(daemon.HandleCommandLine("help").rfind("ok\n", 0), 0u);
}

TEST_F(DaemonTest, MetricsExposeFleetCounters) {
  const std::string history_a = TempHistory("a");
  const std::string history_b = TempHistory("b");
  persist::HistoryImage seed_a;
  seed_a.records.push_back(MakeRecord(1));
  Seed(history_a, seed_a);
  Seed(history_b, persist::HistoryImage{});

  Daemon a(ServeOnly(history_a));
  Daemon b(ServeOnly(history_b));
  std::string error;
  ASSERT_TRUE(a.Start(&error)) << error;
  ASSERT_TRUE(b.Start(&error)) << error;
  ASSERT_TRUE(b.SyncWith(a.listen_address(), true, true, nullptr, nullptr, &error)) << error;

  const std::string reply = b.HandleCommandLine("metrics");
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("dimmunix_fleet_rounds_total 1\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("dimmunix_fleet_records_new_total 1\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("dimmunix_fleet_propagation_ms_count 1\n"), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("dimmunix_fleet_propagation_ms_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos)
      << reply;
}

TEST_F(DaemonTest, AlertReportsIngestFreshestWinsAndPruneByAge) {
  const std::string history = TempHistory("al");
  Seed(history, persist::HistoryImage{});
  Daemon daemon(ServeOnly(history));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Two hosts report; malformed records are dropped, not fatal.
  std::string reply = daemon.HandleCommandLine(
      "fleet alerts-report h:1;2;8;5000;match_churn+ring_drops h:2;0;8;0;- bogus;;x");
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("accepted=2\n"), std::string::npos) << reply;

  reply = daemon.HandleCommandLine("fleet alerts");
  ASSERT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("reporters=2\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("alerts_active=2\n"), std::string::npos);
  EXPECT_NE(reply.find("alert h:1 active=2 total=8"), std::string::npos) << reply;
  EXPECT_NE(reply.find("rules=match_churn+ring_drops"), std::string::npos);
  EXPECT_NE(reply.find("alert h:2 active=0 total=8"), std::string::npos);

  // A staler record for h:1 (60s old vs the stored 5s) must not roll the
  // table back; a fresher one replaces it.
  daemon.HandleCommandLine("fleet alerts-report h:1;1;8;60000;stale_rule");
  EXPECT_NE(daemon.HandleCommandLine("fleet alerts").find("alert h:1 active=2"),
            std::string::npos);
  daemon.HandleCommandLine("fleet alerts-report h:1;4;8;0;arena_exhaustion");
  EXPECT_NE(daemon.HandleCommandLine("fleet alerts").find("alert h:1 active=4"),
            std::string::npos);

  // A report already older than the TTL at ingest time is pruned on sight —
  // crashed processes age out instead of haunting the table.
  daemon.HandleCommandLine("fleet alerts-report h:3;9;8;999000;ghost");
  reply = daemon.HandleCommandLine("fleet alerts");
  EXPECT_EQ(reply.find("h:3"), std::string::npos) << reply;

  // `fleet status` and `metrics` carry the per-reporter rollup.
  const std::string status = daemon.HandleCommandLine("fleet status");
  EXPECT_NE(status.find("alert_reporters=2\n"), std::string::npos) << status;
  EXPECT_NE(status.find("reporter h:1 alerts=4/8"), std::string::npos) << status;
  const std::string metrics = daemon.HandleCommandLine("metrics");
  EXPECT_NE(metrics.find("dimmunix_fleet_alert_reporters 2\n"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("dimmunix_fleet_alerts_active 4\n"), std::string::npos) << metrics;
}

TEST_F(DaemonTest, AlertReportsGossipToPeers) {
  const std::string history_a = TempHistory("a");
  const std::string history_b = TempHistory("b");
  Seed(history_a, persist::HistoryImage{});
  Seed(history_b, persist::HistoryImage{});

  Daemon a(ServeOnly(history_a));
  std::string error;
  ASSERT_TRUE(a.Start(&error)) << error;

  DaemonOptions options_b = ServeOnly(history_b);
  options_b.peers.push_back(a.listen_address());
  options_b.gossip_period = std::chrono::milliseconds(25);
  Daemon b(options_b);
  ASSERT_TRUE(b.Start(&error)) << error;

  // A runtime reports to B; within a few gossip rounds A's hub view names
  // the same reporter with its rule set intact.
  ASSERT_EQ(b.HandleCommandLine("fleet alerts-report peer1:7;3;8;0;ring_drops")
                .rfind("ok\n", 0),
            0u);
  ASSERT_TRUE(WaitFor([&] {
    for (const AlertReport& r : a.alert_reports()) {
      if (r.reporter == "peer1:7" && r.active == 3 && r.rules == "ring_drops") {
        return true;
      }
    }
    return false;
  })) << "alert report never gossiped to A";
}

TEST_F(DaemonTest, AllowlistRejectsUnlistedSources) {
  const std::string history = TempHistory("x");
  Seed(history, persist::HistoryImage{});
  DaemonOptions options = ServeOnly(history);
  options.reject_loopback = true;  // test hook: makes 127.0.0.1 "unlisted"
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  std::string reply;
  ASSERT_TRUE(QueryTcp(daemon.listen_address(), "fleet status", std::chrono::seconds(5),
                       &reply, &error))
      << error;
  EXPECT_EQ(reply.rfind("err source 127.0.0.1 not allowed", 0), 0u) << reply;
  EXPECT_EQ(daemon.stats().rejected_conns, 1u);

  // The same source on the allowlist goes through.
  DaemonOptions allowed = ServeOnly(history);
  allowed.reject_loopback = true;
  allowed.allow.push_back("127.0.0.1");
  Daemon daemon2(allowed);
  ASSERT_TRUE(daemon2.Start(&error)) << error;
  ASSERT_TRUE(QueryTcp(daemon2.listen_address(), "fleet status", std::chrono::seconds(5),
                       &reply, &error))
      << error;
  EXPECT_EQ(reply.rfind("ok\n", 0), 0u) << reply;
}

TEST_F(DaemonTest, SyncWithUnreachablePeerFailsCleanly) {
  const std::string history = TempHistory("u");
  Seed(history, persist::HistoryImage{});
  DaemonOptions options = ServeOnly(history);
  options.io_timeout = std::chrono::milliseconds(500);
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  EXPECT_FALSE(daemon.SyncWith("127.0.0.1:1", true, true, nullptr, nullptr, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(daemon.stats().rounds_failed, 1u);
  EXPECT_FALSE(daemon.SyncWith("no-colon", true, true, nullptr, nullptr, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos);
}

}  // namespace
}  // namespace fleet
}  // namespace dimmunix
