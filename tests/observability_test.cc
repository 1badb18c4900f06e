// Tests for the observability layer behind SearchOptions: MetricsRegistry
// (sharded counters/histograms, percentile export), QueryTrace (structured
// per-query events and their invariants against SearchStats), the
// SearchOptions entry points' determinism across routing/init combos, and
// the Ready()/SearchResult::status error contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/workload.h"
#include "pg/result_cache.h"

namespace lan {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry registry;
  const CounterId hits = registry.Counter("hits");
  const CounterId misses = registry.Counter("misses");
  registry.Increment(hits);
  registry.Increment(hits, 4);
  registry.Increment(misses, 2);

  MetricsSnapshot snapshot = registry.Snapshot();
  const int64_t* hit_count = snapshot.FindCounter("hits");
  const int64_t* miss_count = snapshot.FindCounter("misses");
  ASSERT_NE(hit_count, nullptr);
  ASSERT_NE(miss_count, nullptr);
  EXPECT_EQ(*hit_count, 5);
  EXPECT_EQ(*miss_count, 2);
  EXPECT_EQ(snapshot.FindCounter("unknown"), nullptr);
}

TEST(MetricsRegistryTest, CounterRegistrationDedupesByName) {
  MetricsRegistry registry;
  const CounterId a = registry.Counter("queries");
  const CounterId b = registry.Counter("queries");
  EXPECT_EQ(a.slot, b.slot);
  registry.Increment(a);
  registry.Increment(b);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(*snapshot.FindCounter("queries"), 2);
}

TEST(MetricsRegistryTest, HistogramStatsAndPercentiles) {
  MetricsRegistry registry;
  const HistogramId hist =
      registry.Histogram("ndc", MetricsRegistry::CountBounds());
  // 1..100: p50 should land near 50, p99 near 99.
  for (int i = 1; i <= 100; ++i) {
    registry.Observe(hist, static_cast<double>(i));
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("ndc");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 100);
  EXPECT_DOUBLE_EQ(h->sum, 5050.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 100.0);
  EXPECT_DOUBLE_EQ(h->mean(), 50.5);
  // Bucket interpolation is approximate; generous windows.
  EXPECT_GE(h->Percentile(50), 20.0);
  EXPECT_LE(h->Percentile(50), 80.0);
  EXPECT_GE(h->Percentile(99), h->Percentile(50));
  EXPECT_LE(h->Percentile(99), 100.0);  // clamped to observed max
  EXPECT_GE(h->Percentile(0), 1.0);     // clamped to observed min
}

TEST(MetricsRegistryTest, ObservationsBeyondLastBoundStayInRange) {
  MetricsRegistry registry;
  const HistogramId hist =
      registry.Histogram("latency", MetricsRegistry::LatencyBounds());
  registry.Observe(hist, 100.0);  // beyond the 10s top bound
  registry.Observe(hist, 200.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_DOUBLE_EQ(h->max, 200.0);
  EXPECT_LE(h->Percentile(99), 200.0);
  EXPECT_GE(h->Percentile(99), 100.0);
}

TEST(MetricsRegistryTest, MergesObservationsAcrossThreads) {
  MetricsRegistry registry;
  const CounterId counter = registry.Counter("ops");
  const HistogramId hist =
      registry.Histogram("value", MetricsRegistry::CountBounds());
  constexpr size_t kItems = 400;
  ThreadPool pool(4);
  pool.ParallelFor(kItems, [&](size_t i) {
    registry.Increment(counter);
    registry.Observe(hist, static_cast<double>(i % 97) + 1.0);
  });
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(*snapshot.FindCounter("ops"), static_cast<int64_t>(kItems));
  const HistogramSnapshot* h = snapshot.FindHistogram("value");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<int64_t>(kItems));
}

TEST(MetricsRegistryTest, ThreadShardsSurviveRegistryReuse) {
  // A second registry at a (possibly) recycled address must not inherit
  // the first one's thread-local shards.
  auto first = std::make_unique<MetricsRegistry>();
  const CounterId c1 = first->Counter("n");
  first->Increment(c1);
  first.reset();
  MetricsRegistry second;
  const CounterId c2 = second.Counter("n");
  second.Increment(c2, 7);
  EXPECT_EQ(*second.Snapshot().FindCounter("n"), 7);
}

TEST(MetricsRegistryTest, SnapshotToJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.Increment(registry.Counter("queries"), 3);
  const HistogramId hist =
      registry.Histogram("query_ndc", MetricsRegistry::CountBounds());
  registry.Observe(hist, 12.0);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"queries\":3"), std::string::npos);
  EXPECT_NE(json.find("\"query_ndc\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistryTest, SnapshotMergeSumsMatchingSeries) {
  MetricsRegistry a, b;
  a.Increment(a.Counter("queries"), 2);
  b.Increment(b.Counter("queries"), 3);
  const HistogramId ha = a.Histogram("v", MetricsRegistry::CountBounds());
  const HistogramId hb = b.Histogram("v", MetricsRegistry::CountBounds());
  a.Observe(ha, 5.0);
  b.Observe(hb, 10.0);
  b.Observe(hb, 1.0);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(*merged.FindCounter("queries"), 5);
  const HistogramSnapshot* h = merged.FindHistogram("v");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3);
  EXPECT_DOUBLE_EQ(h->sum, 16.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 10.0);
}

// The cache subsystem exports its metrics with a `cache.` prefix; the
// query-serving metrics own the bare namespace. Keep the flat JSON export
// collision-free: every exported name must be unique across counters,
// histograms, and gauges combined.
TEST(MetricsRegistryTest, CacheMetricsAreNamespacedAndCollisionFree) {
  MetricsRegistry registry;
  // The SearchBatch query-serving series (the bare namespace).
  registry.Counter("queries");
  registry.Counter("query_errors");
  registry.Histogram("query_latency_seconds", MetricsRegistry::LatencyBounds());
  registry.Histogram("query_ndc", MetricsRegistry::CountBounds());
  registry.Histogram("query_routing_steps", MetricsRegistry::CountBounds());
  registry.Histogram("query_model_inferences", MetricsRegistry::CountBounds());
  registry.Gauge("index_live_size");
  registry.Gauge("index_tombstones");
  registry.Gauge("index_epoch");

  ResultCacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.capacity_bytes = 1 << 20;
  ResultCache cache(cache_options);
  cache.AppendMetrics(&registry);

  MetricsSnapshot snapshot = registry.Snapshot();
  std::vector<std::string> names;
  int cache_prefixed = 0;
  auto collect = [&](const std::string& name) {
    names.push_back(name);
    if (name.rfind("cache.", 0) == 0) ++cache_prefixed;
  };
  for (const auto& [name, value] : snapshot.counters) collect(name);
  for (const auto& [name, hist] : snapshot.histograms) collect(name);
  for (const auto& [name, value] : snapshot.gauges) collect(name);

  EXPECT_GE(cache_prefixed, 5);
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "metric name collision across counters/histograms/gauges";

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"cache.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"cache.capacity_bytes\""), std::string::npos);
}

TEST(MetricsRegistryTest, PercentileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  registry.Histogram("empty", MetricsRegistry::LatencyBounds());
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0);
  EXPECT_DOUBLE_EQ(h->Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h->Percentile(100), 0.0);
}

TEST(MetricsRegistryTest, PercentileWithEverythingInOverflowBucket) {
  // CountBounds tops out at 1e5: all observations land in the open-ended
  // overflow bucket, whose upper edge is the observed max.
  MetricsRegistry registry;
  const HistogramId hist =
      registry.Histogram("overflow", MetricsRegistry::CountBounds());
  registry.Observe(hist, 2e5);
  registry.Observe(hist, 4e5);
  registry.Observe(hist, 8e5);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("overflow");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3);
  for (double pct : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(h->Percentile(pct), 2e5) << pct;  // clamped to observed min
    EXPECT_LE(h->Percentile(pct), 8e5) << pct;  // clamped to observed max
  }
}

TEST(MetricsRegistryTest, PercentileOfSingleValueBucketIsExact) {
  // When every observation is the same value, min == max pins the
  // interpolation: any percentile must return exactly that value.
  MetricsRegistry registry;
  const HistogramId hist =
      registry.Histogram("constant", MetricsRegistry::CountBounds());
  for (int i = 0; i < 10; ++i) registry.Observe(hist, 42.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("constant");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Percentile(1), 42.0);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 42.0);
}

TEST(MetricsRegistryTest, SnapshotMergeKeepsDisjointSeries) {
  // Merging snapshots from registries with different layouts must append
  // the series only one side has (counters sum, gauges incoming-wins).
  MetricsRegistry a, b;
  a.Increment(a.Counter("a_only"), 2);
  a.Increment(a.Counter("shared"), 1);
  a.SetGauge(a.Gauge("gauge_a"), 1.5);
  b.Increment(b.Counter("b_only"), 7);
  b.Increment(b.Counter("shared"), 4);
  b.SetGauge(b.Gauge("gauge_b"), 2.5);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  ASSERT_NE(merged.FindCounter("a_only"), nullptr);
  ASSERT_NE(merged.FindCounter("b_only"), nullptr);
  EXPECT_EQ(*merged.FindCounter("a_only"), 2);
  EXPECT_EQ(*merged.FindCounter("b_only"), 7);
  EXPECT_EQ(*merged.FindCounter("shared"), 5);
  ASSERT_NE(merged.FindGauge("gauge_a"), nullptr);
  ASSERT_NE(merged.FindGauge("gauge_b"), nullptr);
  EXPECT_DOUBLE_EQ(*merged.FindGauge("gauge_a"), 1.5);
  EXPECT_DOUBLE_EQ(*merged.FindGauge("gauge_b"), 2.5);
}

TEST(MetricsRegistryTest, HistogramBoundsConflictIsCountedNotSilent) {
  MetricsRegistry registry;
  const HistogramId first =
      registry.Histogram("latency", MetricsRegistry::LatencyBounds());
  // No conflict yet: the counter must not pollute clean registries.
  EXPECT_EQ(registry.Snapshot().FindCounter("metrics.bounds_conflicts"),
            nullptr);

  // Re-registration with different bounds: first registration wins, the
  // conflict is tracked, and the returned id still works.
  const HistogramId conflicting =
      registry.Histogram("latency", MetricsRegistry::CountBounds());
  EXPECT_EQ(first.slot, conflicting.slot);
  registry.Observe(conflicting, 0.5);
  registry.Histogram("latency", MetricsRegistry::CountBounds());

  MetricsSnapshot snapshot = registry.Snapshot();
  const int64_t* conflicts = snapshot.FindCounter("metrics.bounds_conflicts");
  ASSERT_NE(conflicts, nullptr);
  EXPECT_EQ(*conflicts, 2);
  const HistogramSnapshot* h = snapshot.FindHistogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);

  // Same-bounds re-registration stays conflict-free.
  registry.Histogram("latency", MetricsRegistry::LatencyBounds());
  EXPECT_EQ(*registry.Snapshot().FindCounter("metrics.bounds_conflicts"), 2);
}

TEST(CacheMetricsTest, HitRateGaugeReflectsLookups) {
  ResultCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = 1 << 20;
  ResultCache cache(options);
  cache.Put(CacheKey128{1, 0}, /*epoch=*/0, {{0, 3.0}});
  ResultCache::Answer answer;
  EXPECT_TRUE(cache.Find(CacheKey128{1, 0}, 0, &answer));  // hit
  EXPECT_FALSE(cache.Find(CacheKey128{2, 1}, 0, &answer));
  EXPECT_FALSE(cache.Find(CacheKey128{3, 2}, 0, &answer));

  MetricsRegistry registry;
  cache.AppendMetrics(&registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  const double* hit_rate = snapshot.FindGauge("cache.hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  EXPECT_NEAR(*hit_rate, 1.0 / 3.0, 1e-9);
  ASSERT_NE(snapshot.FindGauge("cache.capacity_bytes"), nullptr);
  EXPECT_DOUBLE_EQ(*snapshot.FindGauge("cache.capacity_bytes"),
                   static_cast<double>(cache.capacity_bytes()));
}

TEST(CacheMetricsTest, BaselineSubtractionScopesCountersNotGauges) {
  ShardCacheStats baseline;
  baseline.hits = 10;
  baseline.misses = 5;
  ShardCacheStats now = baseline;
  now.hits = 30;  // +20 since the baseline
  now.misses = 5;
  now.entries = 7;
  now.bytes = 512;
  const ShardCacheStats delta = SubtractCacheCounters(now, baseline);
  EXPECT_EQ(delta.hits, 20);
  EXPECT_EQ(delta.misses, 0);
  EXPECT_EQ(delta.entries, 7);  // point-in-time, not subtracted
  EXPECT_EQ(delta.bytes, 512);

  MetricsRegistry registry;
  AppendCacheMetrics(delta, /*capacity_bytes=*/1024, &registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(*snapshot.FindCounter("cache.hits"), 20);
  EXPECT_DOUBLE_EQ(*snapshot.FindGauge("cache.hit_rate"), 1.0);
  EXPECT_DOUBLE_EQ(*snapshot.FindGauge("cache.entries"), 7.0);
}

// ---------------------------------------------------------------------------
// QueryTrace (standalone)
// ---------------------------------------------------------------------------

TEST(QueryTraceTest, RecordsAndCountsEvents) {
  QueryTrace trace;
  TraceEvent step;
  step.type = TraceEventType::kRouteStep;
  step.id = 4;
  trace.Record(step);
  trace.Record(step);
  TraceEvent dist;
  dist.type = TraceEventType::kDistance;
  trace.Record(dist);
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.CountOf(TraceEventType::kRouteStep), 2);
  EXPECT_EQ(trace.CountOf(TraceEventType::kDistance), 1);
  EXPECT_EQ(trace.CountOf(TraceEventType::kQueryBegin), 0);
  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(QueryTraceTest, JsonLineContainsTypedFields) {
  TraceEvent event;
  event.type = TraceEventType::kGammaPrune;
  event.id = 17;
  event.step = 3;
  event.value = 2.5;
  event.detail = "np_route";
  const std::string line = QueryTrace::EventToJson(event, /*query_id=*/9);
  EXPECT_NE(line.find("\"query_id\":9"), std::string::npos);
  EXPECT_NE(line.find("\"type\":\"gamma_prune\""), std::string::npos);
  EXPECT_NE(line.find("\"id\":17"), std::string::npos);
  EXPECT_NE(line.find("\"step\":3"), std::string::npos);
  EXPECT_NE(line.find("\"detail\":\"np_route\""), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

// ---------------------------------------------------------------------------
// Search over a real index
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

/// Build+Train once for every search-level test in this file.
class ObservabilitySearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = DatasetSpec::SynLike(60);
    db_ = new GraphDatabase(GenerateDatabase(spec, 31));
    // 2/10 of the sampled queries land in `test`; the tests here index up
    // to test[5] and batch 6, so sample enough for 8 test queries.
    WorkloadOptions wopts;
    wopts.num_queries = 40;
    workload_ = new QueryWorkload(SampleWorkload(*db_, wopts, 32));
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

GraphDatabase* ObservabilitySearchTest::db_ = nullptr;
QueryWorkload* ObservabilitySearchTest::workload_ = nullptr;
LanIndex* ObservabilitySearchTest::index_ = nullptr;

const RoutingMethod kAllRoutings[] = {RoutingMethod::kLanRoute,
                                      RoutingMethod::kBaselineRoute,
                                      RoutingMethod::kOracleRoute};
const InitMethod kAllInits[] = {InitMethod::kLanIs, InitMethod::kHnswIs,
                                InitMethod::kRandomIs};

TEST_F(ObservabilitySearchTest, OptionsSearchIsDeterministicAcrossCombos) {
  const Graph& query = workload_->test[0];
  for (RoutingMethod routing : kAllRoutings) {
    for (InitMethod init : kAllInits) {
      SearchOptions options;
      options.k = 4;
      options.beam = 8;
      options.routing = routing;
      options.init = init;
      SearchResult first = index_->Search(query, options);
      SearchResult again = index_->Search(query, options);
      ASSERT_TRUE(first.status.ok());
      ASSERT_TRUE(again.status.ok());
      EXPECT_FALSE(first.results.empty())
          << RoutingMethodName(routing) << "/" << InitMethodName(init);
      EXPECT_EQ(first.results, again.results)
          << RoutingMethodName(routing) << "/" << InitMethodName(init);
      EXPECT_EQ(first.stats.ndc, again.stats.ndc);
      EXPECT_EQ(first.stats.routing_steps, again.stats.routing_steps);
      EXPECT_EQ(first.stats.model_inferences, again.stats.model_inferences);
    }
  }
}

TEST_F(ObservabilitySearchTest, TracingDoesNotPerturbTheSearch) {
  const Graph& query = workload_->test[2];
  SearchOptions plain;
  plain.k = 5;
  SearchResult without = index_->Search(query, plain);
  QueryTrace trace;
  SearchOptions traced = plain;
  traced.trace = &trace;
  SearchResult with = index_->Search(query, traced);
  EXPECT_EQ(without.results, with.results);
  EXPECT_EQ(without.stats.ndc, with.stats.ndc);
  EXPECT_EQ(without.stats.routing_steps, with.stats.routing_steps);
  EXPECT_EQ(without.stats.model_inferences, with.stats.model_inferences);
  EXPECT_FALSE(trace.events().empty());
}

TEST_F(ObservabilitySearchTest, TraceInvariantsHoldForEveryAblation) {
  const Graph& query = workload_->test[3];
  for (RoutingMethod routing : kAllRoutings) {
    for (InitMethod init : kAllInits) {
      QueryTrace trace;
      SearchOptions options;
      options.k = 3;
      options.beam = 8;
      options.routing = routing;
      options.init = init;
      options.trace = &trace;
      SearchResult result = index_->Search(query, options);
      ASSERT_TRUE(result.status.ok());
      const std::string label = std::string(RoutingMethodName(routing)) + "/" +
                                InitMethodName(init);
      // Every NDC is one kDistance event and vice versa: the trace and the
      // stats count the same oracle misses.
      EXPECT_EQ(trace.CountOf(TraceEventType::kDistance), result.stats.ndc)
          << label;
      // Every routing step is one kRouteStep event and vice versa.
      EXPECT_EQ(trace.CountOf(TraceEventType::kRouteStep),
                result.stats.routing_steps)
          << label;
      EXPECT_EQ(trace.CountOf(TraceEventType::kQueryBegin), 1) << label;
      EXPECT_EQ(trace.CountOf(TraceEventType::kQueryEnd), 1) << label;
      ASSERT_FALSE(trace.events().empty());
      EXPECT_EQ(trace.events().front().type, TraceEventType::kQueryBegin);
      EXPECT_EQ(trace.events().back().type, TraceEventType::kQueryEnd);
      // The closing event repeats the totals.
      EXPECT_DOUBLE_EQ(trace.events().back().value,
                       static_cast<double>(result.stats.ndc));
    }
  }
}

TEST_F(ObservabilitySearchTest, LearnedSearchTraceShowsTheLearnedPipeline) {
  const Graph& query = workload_->test[4];
  QueryTrace trace;
  SearchOptions options;
  options.k = 4;
  options.trace = &trace;  // defaults: kLanRoute + kLanIs
  SearchResult result = index_->Search(query, options);
  ASSERT_TRUE(result.status.ok());
  // LAN_IS scores clusters with M_c, then the selected start must be
  // reported; LAN_Route runs M_rk inferences.
  EXPECT_GT(trace.CountOf(TraceEventType::kClusterScore) +
                trace.CountOf(TraceEventType::kClusterPrune),
            0);
  EXPECT_EQ(trace.CountOf(TraceEventType::kInitSelect), 1);
  EXPECT_GT(trace.CountOf(TraceEventType::kModelInference), 0);
  EXPECT_GT(result.stats.model_inferences, 0);
}

TEST_F(ObservabilitySearchTest, WriteJsonLinesEmitsOneObjectPerEvent) {
  const Graph& query = workload_->test[5];
  QueryTrace trace;
  SearchOptions options;
  options.k = 3;
  options.trace = &trace;
  ASSERT_TRUE(index_->Search(query, options).status.ok());
  std::ostringstream out;
  trace.WriteJsonLines(out, /*query_id=*/42);
  std::istringstream in(out.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"query_id\":42"), std::string::npos);
    EXPECT_NE(line.find("\"type\":\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, trace.events().size());
}

TEST_F(ObservabilitySearchTest, SearchBatchMatchesSequentialAndAggregates) {
  std::vector<Graph> queries(workload_->test.begin(),
                             workload_->test.begin() + 6);
  SearchOptions options;
  options.k = 4;
  BatchSearchResult batch = index_->SearchBatch(queries, options);
  ASSERT_EQ(batch.results.size(), queries.size());

  SearchStats expected;
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchResult sequential = index_->Search(queries[i], options);
    EXPECT_EQ(batch.results[i].results, sequential.results) << i;
    EXPECT_EQ(batch.results[i].stats.ndc, sequential.stats.ndc) << i;
    expected.Merge(sequential.stats);
  }
  EXPECT_EQ(batch.stats.totals.ndc, expected.ndc);
  EXPECT_EQ(batch.stats.totals.routing_steps, expected.routing_steps);
  EXPECT_EQ(batch.stats.totals.model_inferences, expected.model_inferences);

  EXPECT_EQ(*batch.stats.metrics.FindCounter("queries"),
            static_cast<int64_t>(queries.size()));
  EXPECT_EQ(*batch.stats.metrics.FindCounter("query_errors"), 0);
  const HistogramSnapshot* ndc_hist =
      batch.stats.metrics.FindHistogram("query_ndc");
  ASSERT_NE(ndc_hist, nullptr);
  EXPECT_EQ(ndc_hist->count, static_cast<int64_t>(queries.size()));
  EXPECT_DOUBLE_EQ(ndc_hist->sum, static_cast<double>(expected.ndc));
  const HistogramSnapshot* latency_hist =
      batch.stats.metrics.FindHistogram("query_latency_seconds");
  ASSERT_NE(latency_hist, nullptr);
  EXPECT_EQ(latency_hist->count, static_cast<int64_t>(queries.size()));
}

TEST_F(ObservabilitySearchTest, ReadyRejectsBadOptions) {
  SearchOptions ok;
  ok.k = 3;
  EXPECT_TRUE(index_->Ready(ok).ok());
  SearchOptions bad_k;
  bad_k.k = 0;
  EXPECT_FALSE(index_->Ready(bad_k).ok());
  SearchResult result = index_->Search(workload_->test[0], bad_k);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.results.empty());
}

TEST(ObservabilityErrorTest, SearchBeforeBuildReportsInsteadOfCrashing) {
  LanIndex index(TinyConfig());
  DatasetSpec spec = DatasetSpec::SynLike(5);
  GraphDatabase db = GenerateDatabase(spec, 77);
  SearchOptions options;
  options.k = 2;
  EXPECT_FALSE(index.Ready(options).ok());
  SearchResult result = index.Search(db.Get(0), options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.results.empty());
}

TEST(ObservabilityErrorTest, UntrainedIndexFailsLearnedModesOnly) {
  DatasetSpec spec = DatasetSpec::SynLike(30);
  GraphDatabase db = GenerateDatabase(spec, 78);
  LanIndex index(TinyConfig());
  ASSERT_TRUE(index.Build(&db).ok());

  SearchOptions learned;
  learned.k = 3;  // defaults: kLanRoute + kLanIs need the models
  EXPECT_FALSE(index.Ready(learned).ok());
  SearchResult failed = index.Search(db.Get(0), learned);
  EXPECT_FALSE(failed.status.ok());
  EXPECT_TRUE(failed.results.empty());

  SearchOptions baseline;
  baseline.k = 3;
  baseline.routing = RoutingMethod::kBaselineRoute;
  baseline.init = InitMethod::kHnswIs;
  EXPECT_TRUE(index.Ready(baseline).ok());
  SearchResult worked = index.Search(db.Get(0), baseline);
  EXPECT_TRUE(worked.status.ok());
  EXPECT_EQ(worked.results.size(), 3u);
}

TEST(ObservabilityErrorTest, BatchSurfacesPerQueryErrors) {
  LanIndex index(TinyConfig());
  DatasetSpec spec = DatasetSpec::SynLike(4);
  GraphDatabase db = GenerateDatabase(spec, 79);
  std::vector<Graph> queries = {db.Get(0), db.Get(1)};
  SearchOptions options;
  options.k = 2;
  BatchSearchResult batch = index.SearchBatch(queries, options);
  ASSERT_EQ(batch.results.size(), 2u);
  for (const SearchResult& r : batch.results) {
    EXPECT_FALSE(r.status.ok());
  }
  EXPECT_EQ(*batch.stats.metrics.FindCounter("query_errors"), 2);
}

TEST(ObservabilityErrorTest, OutOfAlphabetQueryLabelIsRejectedEverywhere) {
  // A query label outside the database alphabet, or a query with no nodes,
  // must come back as InvalidArgument on every routing x init path;
  // unchecked, the learned paths index past the one-hot tables or build an
  // empty compressed GNN graph, and abort the process.
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(30), 80);
  LanIndex index(TinyConfig());
  ASSERT_TRUE(index.Build(&db).ok());
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  ASSERT_TRUE(index.Train(SampleWorkload(db, wopts, 81).train).ok());
  Graph bad_label = db.Get(0);
  bad_label.set_label(0, db.num_labels());
  const std::vector<Graph> bad_queries = {bad_label, Graph{}};

  for (RoutingMethod routing : kAllRoutings) {
    for (InitMethod init : kAllInits) {
      SearchOptions options;
      options.k = 3;
      options.routing = routing;
      options.init = init;
      ASSERT_TRUE(index.Ready(options).ok());
      for (const Graph& bad : bad_queries) {
        const SearchResult result = index.Search(bad, options);
        EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
            << RoutingMethodName(routing) << "/" << InitMethodName(init)
            << " (" << bad.NumNodes() << " nodes): "
            << result.status.ToString();
        EXPECT_TRUE(result.results.empty());
        const BatchSearchResult batch = index.SearchBatch({bad}, options);
        ASSERT_EQ(batch.results.size(), 1u);
        EXPECT_EQ(batch.results[0].status.code(),
                  StatusCode::kInvalidArgument);
      }
      // The same query with in-range labels still succeeds.
      EXPECT_TRUE(index.Search(db.Get(0), options).status.ok());
    }
  }

  // An empty graph never enters the database either.
  const uint64_t epoch = index.epoch();
  const GraphId size = db.size();
  EXPECT_EQ(index.Insert(Graph{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.epoch(), epoch);
  EXPECT_EQ(db.size(), size);
}

// ---------------------------------------------------------------------------
// Persistence of the mutated index
// ---------------------------------------------------------------------------

/// Every routing x init combination answers every query identically
/// (results and NDC, bitwise) on both indexes.
void ExpectSameSearches(const LanIndex& a, const LanIndex& b,
                        const std::vector<Graph>& queries) {
  for (RoutingMethod routing : kAllRoutings) {
    for (InitMethod init : kAllInits) {
      SearchOptions options;
      options.k = 5;
      options.beam = 8;
      options.routing = routing;
      options.init = init;
      for (const Graph& query : queries) {
        SearchResult before = a.Search(query, options);
        SearchResult after = b.Search(query, options);
        ASSERT_TRUE(before.status.ok()) << before.status.ToString();
        ASSERT_TRUE(after.status.ok()) << after.status.ToString();
        EXPECT_EQ(before.results, after.results)
            << RoutingMethodName(routing) << "/" << InitMethodName(init);
        EXPECT_EQ(before.stats.ndc, after.stats.ndc)
            << RoutingMethodName(routing) << "/" << InitMethodName(init);
      }
    }
  }
}

/// Mutates online (3 inserts, 2 removes, one of them an inserted graph)
/// with Train before or after the inserts, snapshots the index, reopens
/// it in a fresh index, and requires bitwise-equal answers for every
/// routing x init ablation — also after one more Insert on both. The
/// snapshot must capture the whole mutable state (PG growth, tombstones,
/// epoch, grown clusters, the rank contexts of the trained prefix).
void CheckMutatedSnapshotRoundTrip(bool train_before_insert,
                                   const std::string& path) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(50), 41);
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  QueryWorkload workload = SampleWorkload(db, wopts, 43);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  if (train_before_insert) {
    ASSERT_TRUE(original.Train(workload.train).ok());
  }
  Rng rng(42);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        original.Insert(PerturbGraph(db.Get(i), 2, db.num_labels(), &rng))
            .ok());
  }
  ASSERT_TRUE(original.Remove(7).ok());
  ASSERT_TRUE(original.Remove(51).ok());  // one online insert tombstoned too
  if (!train_before_insert) {
    ASSERT_TRUE(original.Train(workload.train).ok());
  }

  ASSERT_TRUE(original.SaveSnapshot(path).ok());
  LanIndex reopened(TinyConfig());
  const Status opened = reopened.OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  EXPECT_TRUE(reopened.trained());
  EXPECT_EQ(reopened.epoch(), original.epoch());
  EXPECT_EQ(reopened.live_size(), original.live_size());
  EXPECT_EQ(reopened.tombstones(), original.tombstones());
  ExpectSameSearches(original, reopened, workload.test);

  // Both indexes keep accepting writes and stay in lockstep.
  Graph extra = PerturbGraph(db.Get(10), 2, db.num_labels(), &rng);
  auto a = original.Insert(extra);
  auto b = reopened.Insert(extra);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  ExpectSameSearches(original, reopened, workload.test);
}

TEST(MutableIndexPersistenceTest, InsertThenTrainReopensBitwiseEqual) {
  CheckMutatedSnapshotRoundTrip(/*train_before_insert=*/false,
                                testing::TempDir() +
                                    "insert_then_train.lansnap");
}

TEST(MutableIndexPersistenceTest, TrainThenInsertReopensBitwiseEqual) {
  // The rank model's context matrix covers only the trained prefix here;
  // inserted graphs get their contexts on the fly, before and after the
  // round trip.
  CheckMutatedSnapshotRoundTrip(/*train_before_insert=*/true,
                                testing::TempDir() +
                                    "train_then_insert.lansnap");
}

}  // namespace
}  // namespace lan
