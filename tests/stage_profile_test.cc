// Tests for the stage profiler: StageProfile's exclusive (self-time)
// accounting, the null-pointer disabled path, StageBreakdown merge/JSON,
// StageHistograms registration, and the end-to-end contract on a real
// index — SearchOptions::profile populates SearchStats::stages without
// perturbing results, and the per-stage sums are consistent with the
// query's measured wall time.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/timer.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

namespace lan {
namespace {

constexpr Stage kAllStages[] = {
    Stage::kInitSelection, Stage::kRouting,        Stage::kBeamSearch,
    Stage::kRerank,        Stage::kGed,            Stage::kModelInference,
    Stage::kCacheLookup,   Stage::kSnapshotPin};

void SpinFor(std::chrono::microseconds duration) {
  // Busy-wait: sleep_for has millisecond-scale wakeup jitter under load,
  // which would swamp the assertions below.
  Timer timer;
  while (timer.ElapsedSeconds() * 1e6 < duration.count()) {
  }
}

TEST(StageProfileTest, NestedSpansChargeSelfTimeOnly) {
  StageProfile profile;
  Timer wall;
  profile.Enter(Stage::kRouting);
  SpinFor(std::chrono::microseconds(2000));
  profile.Enter(Stage::kGed);  // the routing clock pauses here
  SpinFor(std::chrono::microseconds(4000));
  profile.Exit();
  SpinFor(std::chrono::microseconds(1000));
  profile.Exit();
  const double elapsed = wall.ElapsedSeconds();

  const StageBreakdown& b = profile.breakdown();
  EXPECT_EQ(b.CountOf(Stage::kRouting), 1);
  EXPECT_EQ(b.CountOf(Stage::kGed), 1);
  EXPECT_GE(b.SecondsOf(Stage::kGed), 0.004);
  EXPECT_GE(b.SecondsOf(Stage::kRouting), 0.003);
  // Self-time: the GED interval must NOT also be charged to routing.
  EXPECT_LE(b.SecondsOf(Stage::kRouting), elapsed - 0.004);
  // No double counting: stage seconds sum to the covered wall time.
  EXPECT_LE(b.TotalSeconds(), elapsed * 1.001 + 1e-6);
  EXPECT_GE(b.TotalSeconds(), elapsed * 0.95);
}

TEST(StageProfileTest, ReenteringTheSameStageNests) {
  StageProfile profile;
  {
    StageSpan outer(&profile, Stage::kGed);
    StageSpan inner(&profile, Stage::kGed);
  }
  EXPECT_EQ(profile.breakdown().CountOf(Stage::kGed), 2);
  EXPECT_GE(profile.breakdown().SecondsOf(Stage::kGed), 0.0);
}

TEST(StageProfileTest, OverflowBeyondFixedDepthIsSafe) {
  StageProfile profile;
  // Open far more spans than the fixed stack holds, then unwind; the
  // overflowed ones are skipped, the rest balance out.
  for (int i = 0; i < 40; ++i) profile.Enter(Stage::kRouting);
  for (int i = 0; i < 40; ++i) profile.Exit();
  EXPECT_EQ(profile.breakdown().CountOf(Stage::kRouting), 16);
  // A fresh span still works after the storm.
  profile.Reset();
  {
    StageSpan span(&profile, Stage::kRerank);
  }
  EXPECT_EQ(profile.breakdown().CountOf(Stage::kRerank), 1);
}

TEST(StageProfileTest, NullProfileSpansAreNoOps) {
  StageSpan a(nullptr, Stage::kGed);
  StageSpan b(nullptr, Stage::kRouting);
  // Nothing to assert beyond "does not crash": the disabled path is one
  // branch, exactly like TraceRecord with a null sink.
  SUCCEED();
}

TEST(StageProfileTest, ResetClearsEverything) {
  StageProfile profile;
  {
    StageSpan span(&profile, Stage::kBeamSearch);
  }
  EXPECT_FALSE(profile.breakdown().Empty());
  profile.Reset();
  EXPECT_TRUE(profile.breakdown().Empty());
  EXPECT_DOUBLE_EQ(profile.breakdown().TotalSeconds(), 0.0);
}

TEST(StageBreakdownTest, MergeSumsSecondsAndCounts) {
  StageBreakdown a, b;
  a.seconds[static_cast<size_t>(Stage::kGed)] = 1.0;
  a.counts[static_cast<size_t>(Stage::kGed)] = 2;
  b.seconds[static_cast<size_t>(Stage::kGed)] = 0.5;
  b.counts[static_cast<size_t>(Stage::kGed)] = 3;
  b.seconds[static_cast<size_t>(Stage::kRouting)] = 0.25;
  b.counts[static_cast<size_t>(Stage::kRouting)] = 1;
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.SecondsOf(Stage::kGed), 1.5);
  EXPECT_EQ(a.CountOf(Stage::kGed), 5);
  EXPECT_DOUBLE_EQ(a.SecondsOf(Stage::kRouting), 0.25);
  EXPECT_DOUBLE_EQ(a.TotalSeconds(), 1.75);
}

TEST(StageBreakdownTest, ToJsonEmitsEveryStage) {
  StageBreakdown b;
  b.seconds[static_cast<size_t>(Stage::kGed)] = 0.125;
  b.counts[static_cast<size_t>(Stage::kGed)] = 4;
  const std::string json = b.ToJson();
  for (Stage stage : kAllStages) {
    EXPECT_NE(json.find(std::string("\"") + StageName(stage) + "\""),
              std::string::npos)
        << StageName(stage);
  }
  EXPECT_NE(json.find("\"count\":4"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(StageNamesTest, MetricNamesAreUniqueAndWellFormed) {
  std::set<std::string> names, metric_names;
  for (Stage stage : kAllStages) {
    names.insert(StageName(stage));
    const std::string metric = StageMetricName(stage);
    metric_names.insert(metric);
    EXPECT_EQ(metric, std::string("stage.") + StageName(stage) + "_seconds");
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumStages));
  EXPECT_EQ(metric_names.size(), static_cast<size_t>(kNumStages));
}

TEST(StageHistogramsTest, RegistersAllStagesUpFront) {
  MetricsRegistry registry;
  StageHistograms hists(&registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  for (Stage stage : kAllStages) {
    const HistogramSnapshot* h = snapshot.FindHistogram(StageMetricName(stage));
    ASSERT_NE(h, nullptr) << StageMetricName(stage);
    EXPECT_EQ(h->count, 0);
  }

  // Observe() samples only the stages the query actually entered.
  StageBreakdown b;
  b.seconds[static_cast<size_t>(Stage::kGed)] = 0.001;
  b.counts[static_cast<size_t>(Stage::kGed)] = 7;
  hists.Observe(b);
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.FindHistogram("stage.ged_seconds")->count, 1);
  EXPECT_EQ(snapshot.FindHistogram("stage.routing_seconds")->count, 0);
}

// ---------------------------------------------------------------------------
// End-to-end over a real index
// ---------------------------------------------------------------------------

LanConfig TinyConfig() {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.rank.epochs = 3;
  config.nh.epochs = 3;
  config.cluster.epochs = 10;
  config.max_rank_examples = 300;
  config.max_nh_examples = 300;
  config.neighborhood_knn = 10;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 4;
  return config;
}

class StageProfileSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new GraphDatabase(GenerateDatabase(DatasetSpec::SynLike(60), 51));
    WorkloadOptions wopts;
    wopts.num_queries = 30;
    workload_ = new QueryWorkload(SampleWorkload(*db_, wopts, 52));
    index_ = new LanIndex(TinyConfig());
    ASSERT_TRUE(index_->Build(db_).ok());
    ASSERT_TRUE(index_->Train(workload_->train).ok());
  }

  static void TearDownTestSuite() {
    delete index_;
    delete workload_;
    delete db_;
    index_ = nullptr;
    workload_ = nullptr;
    db_ = nullptr;
  }

  static GraphDatabase* db_;
  static QueryWorkload* workload_;
  static LanIndex* index_;
};

GraphDatabase* StageProfileSearchTest::db_ = nullptr;
QueryWorkload* StageProfileSearchTest::workload_ = nullptr;
LanIndex* StageProfileSearchTest::index_ = nullptr;

TEST_F(StageProfileSearchTest, ProfileOffLeavesStagesEmpty) {
  SearchOptions options;
  options.k = 4;
  SearchResult result = index_->Search(workload_->test[0], options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.stats.stages.Empty());
}

TEST_F(StageProfileSearchTest, LearnedSearchPopulatesLearnedStages) {
  SearchOptions options;
  options.k = 4;
  options.profile = true;  // defaults: kLanRoute + kLanIs
  SearchResult result = index_->Search(workload_->test[0], options);
  ASSERT_TRUE(result.status.ok());
  const StageBreakdown& stages = result.stats.stages;
  EXPECT_EQ(stages.CountOf(Stage::kSnapshotPin), 1);
  EXPECT_EQ(stages.CountOf(Stage::kInitSelection), 1);
  EXPECT_GT(stages.CountOf(Stage::kRouting), 0);
  EXPECT_GT(stages.CountOf(Stage::kModelInference), 0);
  EXPECT_GT(stages.CountOf(Stage::kRerank), 0);
  // Without a cross-query cache, every kGed span is one computed distance.
  EXPECT_EQ(stages.CountOf(Stage::kGed), result.stats.ndc);
  EXPECT_GT(stages.TotalSeconds(), 0.0);
}

TEST_F(StageProfileSearchTest, BaselineSearchUsesBeamSearchStage) {
  SearchOptions options;
  options.k = 4;
  options.profile = true;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  SearchResult result = index_->Search(workload_->test[1], options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.stats.stages.CountOf(Stage::kBeamSearch), 1);
  EXPECT_EQ(result.stats.stages.CountOf(Stage::kRouting), 0);
  EXPECT_GT(result.stats.stages.SecondsOf(Stage::kBeamSearch), 0.0);
}

TEST_F(StageProfileSearchTest, ProfilingDoesNotPerturbResults) {
  const Graph& query = workload_->test[2];
  SearchOptions plain;
  plain.k = 5;
  SearchOptions profiled = plain;
  profiled.profile = true;
  SearchResult without = index_->Search(query, plain);
  SearchResult with = index_->Search(query, profiled);
  EXPECT_EQ(without.results, with.results);
  EXPECT_EQ(without.stats.ndc, with.stats.ndc);
  EXPECT_EQ(without.stats.routing_steps, with.stats.routing_steps);
  EXPECT_EQ(without.stats.model_inferences, with.stats.model_inferences);
}

TEST_F(StageProfileSearchTest, StageSumsAreConsistentWithMeasuredLatency) {
  // The self-time design means per-query stage seconds can never exceed
  // the query's wall time, and (cache off) the GED stage opens exactly
  // once per computed distance.
  double total_wall = 0.0;
  double total_stages = 0.0;
  for (size_t i = 0; i < workload_->test.size(); ++i) {
    SearchOptions options;
    options.k = 4;
    options.profile = true;
    Timer timer;
    SearchResult result = index_->Search(workload_->test[i], options);
    const double wall = timer.ElapsedSeconds();
    ASSERT_TRUE(result.status.ok());
    const StageBreakdown& stages = result.stats.stages;
    EXPECT_LE(stages.TotalSeconds(), wall * 1.001 + 1e-6) << i;
    EXPECT_EQ(stages.CountOf(Stage::kGed), result.stats.ndc) << i;
    total_wall += wall;
    total_stages += stages.TotalSeconds();
  }
  // In aggregate the spans cover the bulk of the query: the uncovered
  // remainder is option validation + result harvest, not pipeline stages.
  EXPECT_GE(total_stages, total_wall * 0.5);
}

TEST_F(StageProfileSearchTest, SearchBatchExportsStageHistograms) {
  std::vector<Graph> queries(workload_->test.begin(),
                             workload_->test.begin() + 4);
  SearchOptions options;
  options.k = 4;
  options.profile = true;
  BatchSearchResult batch = index_->SearchBatch(queries, options);
  ASSERT_EQ(batch.results.size(), queries.size());
  const HistogramSnapshot* ged =
      batch.stats.metrics.FindHistogram("stage.ged_seconds");
  ASSERT_NE(ged, nullptr);
  EXPECT_EQ(ged->count, static_cast<int64_t>(queries.size()));
  // The whole vocabulary is pre-registered even for untouched stages.
  ASSERT_NE(batch.stats.metrics.FindHistogram("stage.beam_search_seconds"),
            nullptr);
  // Per-query breakdowns aggregate into batch totals.
  EXPECT_FALSE(batch.stats.totals.stages.Empty());
  EXPECT_EQ(batch.stats.totals.stages.CountOf(Stage::kGed),
            batch.stats.totals.ndc);

  // Without profile, no stage samples are recorded.
  SearchOptions off = options;
  off.profile = false;
  BatchSearchResult plain = index_->SearchBatch(queries, off);
  EXPECT_TRUE(plain.stats.totals.stages.Empty());
}

}  // namespace
}  // namespace lan
