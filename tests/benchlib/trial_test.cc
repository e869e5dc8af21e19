// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/benchlib/trial.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace dimmunix {
namespace {

TEST(TrialTest, CompletingChildReportsExitCode) {
  TrialResult result = RunTrial([] { return 42; }, std::chrono::seconds(2));
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.exit_code, 42);
}

TEST(TrialTest, HangingChildIsKilledAndReportedAsDeadlock) {
  const MonoTime start = Now();
  TrialResult result = RunTrial(
      [] {
        for (;;) {
          std::this_thread::sleep_for(std::chrono::hours(1));
        }
        return 0;
      },
      std::chrono::milliseconds(200));
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_GE(Now() - start, std::chrono::milliseconds(190));
}

TEST(TrialTest, ChildSideEffectsAreIsolated) {
  int parent_value = 1;
  TrialResult result = RunTrial(
      [&] {
        parent_value = 999;  // only mutates the child's copy
        return 0;
      },
      std::chrono::seconds(2));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(parent_value, 1);
}

TEST(TrialTest, ElapsedIsMeasured) {
  TrialResult result = RunTrial(
      [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 0;
      },
      std::chrono::seconds(2));
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.elapsed, std::chrono::milliseconds(45));
}

TEST(BenchReportTest, OptionalSampleFieldsAreEmittedOnlyWhenSet) {
  BenchReport report;
  report.bench = "fig9";
  BenchSample unset;
  unset.label = "baseline";
  BenchSample set;
  set.label = "depth=1";
  set.retries_per_op = 0.5;
  set.fp_yields = 7;
  report.samples = {unset, set};
  const std::string json = report.ToJson();
  // Each field appears once, after the second sample's label.
  const std::size_t second = json.find("\"depth=1\"");
  ASSERT_NE(second, std::string::npos);
  EXPECT_GT(json.find("\"retries_per_op\": 0.5"), second);
  EXPECT_EQ(json.find("retries_per_op"), json.rfind("retries_per_op"));
  EXPECT_GT(json.find("\"fp_yields\": 7"), second);
  EXPECT_EQ(json.find("fp_yields"), json.rfind("fp_yields"));
}

}  // namespace
}  // namespace dimmunix
