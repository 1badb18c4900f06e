// Tests of the benchmark's own arithmetic and of its determinism.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

namespace lanbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentileTest, NeedsTenSamplesBeyondP90) {
  EXPECT_FALSE(TailPercentile(Ramp(99), 90.0).has_value());
  const std::optional<double> p90 = TailPercentile(Ramp(100), 90.0);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(*p90, 90.0);  // ranks 91..100 lie beyond it
  EXPECT_EQ(*TailPercentile(Ramp(250), 90.0), 225.0);
  EXPECT_FALSE(TailPercentile({}, 90.0).has_value());
}

TEST(TailPercentileTest, MedianIsNearestRank) {
  EXPECT_EQ(NearestRank(Ramp(100), 50.0), 50.0);
  EXPECT_EQ(NearestRank(Ramp(5), 50.0), 3.0);
  EXPECT_EQ(NearestRank({7.0}, 50.0), 7.0);
  EXPECT_TRUE(TailPercentile(Ramp(20), 50.0).has_value());
}

TEST(RecallTest, ScoresAgainstTheLiveSetOnly) {
  // Graph 0 is the nearest but was removed at the query's epoch; the live
  // top-2 are ids 1 and 2.
  const std::vector<double> dist = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<uint8_t> live = {0, 1, 1, 1, 1};
  EXPECT_EQ(RecallAgainstLive({{1, 2.0}, {2, 3.0}}, dist, live, 2), 1.0);
  // Returning the tombstone earns nothing even though it is closer.
  EXPECT_EQ(RecallAgainstLive({{0, 1.0}, {1, 2.0}}, dist, live, 2), 0.5);
  EXPECT_EQ(RecallAgainstLive({{3, 4.0}, {4, 5.0}}, dist, live, 2), 0.0);
  // Graphs inserted after the epoch (beyond the bitmap) do not count.
  EXPECT_EQ(RecallAgainstLive({{1, 2.0}}, {9.0, 2.0, 0.5}, {1, 1}, 1), 1.0);
}

TEST(RecallTest, LiveTruthSkipsRemovedGraphs) {
  const std::vector<double> dist = {1.0, 3.0, 2.0, 2.0, 0.5};
  const std::vector<uint8_t> live = {1, 1, 1, 1, 0};
  const lan::KnnList expected = {{0, 1.0}, {2, 2.0}, {3, 2.0}};
  EXPECT_EQ(LiveTruth(dist, live, 3), expected);
  // Fewer live graphs than k.
  EXPECT_EQ(LiveTruth(dist, {0, 1}, 10), (lan::KnnList{{1, 3.0}}));
  EXPECT_TRUE(LiveTruth(dist, {}, 10).empty());
}

TEST(RecallTest, TiesAndShortLiveSets) {
  const std::vector<double> dist = {1.0, 2.0, 2.0, 7.0};
  const std::vector<uint8_t> live = {1, 1, 1, 1};
  // Either id at the tied 2nd distance is a correct answer.
  EXPECT_EQ(RecallAgainstLive({{0, 1.0}, {2, 2.0}}, dist, live, 2), 1.0);
  // Fewer live graphs than k: the denominator shrinks to the live count.
  EXPECT_EQ(RecallAgainstLive({{1, 2.0}}, dist, {0, 1, 0, 0}, 10), 1.0);
}

TEST(CheckResultListTest, AcceptsAWellFormedList) {
  EXPECT_EQ(CheckResultList({{2, 1.0}, {0, 2.0}, {1, 2.0}}, 3, {1, 1, 1}),
            "");
  EXPECT_EQ(CheckResultList({}, 3, {1}), "");
}

TEST(CheckResultListTest, RejectsEachViolation) {
  const std::vector<uint8_t> live = {1, 1, 0};
  EXPECT_NE(CheckResultList({{0, 1.0}, {1, 2.0}}, 1, live), "");  // > k
  EXPECT_NE(CheckResultList({{1, 2.0}, {0, 1.0}}, 2, live), "");  // order
  EXPECT_NE(CheckResultList({{1, 1.0}, {0, 1.0}}, 2, live), "");  // tie order
  EXPECT_NE(CheckResultList({{0, 1.0}, {0, 1.0}}, 2, live), "");  // dup
  EXPECT_NE(CheckResultList({{2, 1.0}}, 2, live), "");            // removed
  EXPECT_NE(CheckResultList({{5, 1.0}}, 2, live), "");            // range
}

TEST(OpLedgerTest, CountsFailuresAgainstAttempts) {
  OpLedger ledger;
  for (int i = 0; i < 10; ++i) ledger.Attempt();
  ledger.Fail(3, "first check");
  ledger.Fail(3, "second check of the same operation");
  ledger.Fail(7, "another operation");
  ledger.Fail(42, "not an attempted operation");
  EXPECT_EQ(ledger.attempted(), 10);
  EXPECT_EQ(ledger.failed(), 2);
  ASSERT_EQ(ledger.reasons().size(), 2u);
  EXPECT_EQ(ledger.reasons()[0], "op 3: first check");
}

TEST(ResultJsonTest, PrintsEveryDigit) {
  const std::string json =
      ResultJson(true, 5, 0, {{"qps", 1.0 / 3.0, "1/s"}, {"n", 2.0, "count"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
            "\"metrics\": {\"qps\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"1/s\"}, \"n\": {\"value\": 2, \"unit\": \"count\"}}}");
}

// Runs of the same seed agree on every seed-determined metric; another seed
// moves them. Small sizes keep this to seconds.
std::map<std::string, double> DeterministicMetrics(const std::string& workload,
                                                   uint64_t seed, bool trace) {
  lan::SetLogLevel(lan::LogLevel::kWarning);
  BenchParams params;
  params.workload = workload;
  params.seed = seed;
  params.seconds = 1;
  params.trace = trace;
  params.work_dir = testing::TempDir();
  params.small = true;
  lan::Result<RunReport> report = RunWorkload(params);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  std::map<std::string, double> out;
  if (!report.ok()) return out;
  EXPECT_EQ(report->failed, 0);
  for (const Metric& m : report->metrics) {
    if (m.deterministic) out[m.name] = m.value;
  }
  return out;
}

TEST(DeterminismTest, TracedCountsRepeatPerSeed) {
  for (const char* workload : {"aids-lan", "syn-writes"}) {
    const auto first = DeterministicMetrics(workload, 5, true);
    const auto second = DeterministicMetrics(workload, 5, true);
    const auto other = DeterministicMetrics(workload, 6, true);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << workload;
    EXPECT_NE(first, other) << workload;
    EXPECT_GT(first.at("ged.calls_per_query"), 0.0) << workload;
  }
}

TEST(DeterminismTest, RecallAndNdcRepeatPerSeed) {
  for (const char* workload : {"aids-lan", "aids-repeat", "syn-writes"}) {
    const auto first = DeterministicMetrics(workload, 5, false);
    const auto second = DeterministicMetrics(workload, 5, false);
    const auto other = DeterministicMetrics(workload, 6, false);
    ASSERT_EQ(first.count("recall_at_10"), 1u) << workload;
    EXPECT_EQ(first, second) << workload;
    EXPECT_NE(first, other) << workload;
    EXPECT_GT(first.at("ndc_per_query"), 0.0) << workload;
  }
}

}  // namespace
}  // namespace lanbench
