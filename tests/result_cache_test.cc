// Tests for the answer cache: the ShardedLruCache store, the canonical
// keying input (Graph::ContentHash), the ResultCache epoch rule, and — the
// property the whole design exists to preserve — that cache-on searches
// are bitwise identical to cache-off searches across every routing/init
// combination, across Insert/Remove epoch advances and under concurrent
// mutation (ResultCacheConcurrencyTest runs under the asan/tsan presets
// via `ctest -L concurrency`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/shard_cache.h"
#include "graph/graph_generator.h"
#include "lan/evaluation.h"
#include "lan/lan_index.h"
#include "lan/workload.h"
#include "pg/result_cache.h"

namespace lan {
namespace {

// ---------------------------------------------------------------------------
// ShardedLruCache
// ---------------------------------------------------------------------------

CacheKey128 Key(uint64_t hi, uint64_t lo) { return CacheKey128{hi, lo}; }

/// A lookup with no epoch condition.
bool Find(ShardedLruCache<double>* cache, const CacheKey128& key,
          double* out) {
  return cache->FindIf(key, out, [](uint64_t) { return true; });
}

TEST(ShardedLruCacheTest, FindAfterPutRoundTrips) {
  ShardedLruCache<double> cache(1 << 16, 4);
  cache.Put(Key(1, 7), 3.5, sizeof(double), /*epoch=*/2);
  double value = 0.0;
  ASSERT_TRUE(Find(&cache, Key(1, 7), &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_FALSE(Find(&cache, Key(1, 8), &value));
  EXPECT_FALSE(Find(&cache, Key(2, 7), &value));
  const ShardCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsedUnderBytePressure) {
  // One shard, room for exactly three (8 + 64)-byte entries.
  const size_t entry = sizeof(double) +
                       ShardedLruCache<double>::kEntryOverheadBytes;
  ShardedLruCache<double> cache(3 * entry, 1);
  cache.Put(Key(1, 0), 1.0, sizeof(double), 0);
  cache.Put(Key(2, 0), 2.0, sizeof(double), 0);
  cache.Put(Key(3, 0), 3.0, sizeof(double), 0);
  double value = 0.0;
  ASSERT_TRUE(Find(&cache, Key(1, 0), &value));  // refresh 1: LRU is now 2
  cache.Put(Key(4, 0), 4.0, sizeof(double), 0);
  EXPECT_FALSE(Find(&cache, Key(2, 0), &value));
  EXPECT_TRUE(Find(&cache, Key(1, 0), &value));
  EXPECT_TRUE(Find(&cache, Key(3, 0), &value));
  EXPECT_TRUE(Find(&cache, Key(4, 0), &value));
  EXPECT_EQ(cache.Stats().evictions, 1);
  EXPECT_EQ(cache.Stats().entries, 3);
}

TEST(ShardedLruCacheTest, OversizedValueIsRejected) {
  ShardedLruCache<double> cache(128, 1);
  cache.Put(Key(1, 0), 1.0, /*value_bytes=*/4096, 0);
  double value = 0.0;
  EXPECT_FALSE(Find(&cache, Key(1, 0), &value));
  EXPECT_EQ(cache.Stats().rejected, 1);
  EXPECT_EQ(cache.Stats().inserts, 0);
}

TEST(ShardedLruCacheTest, FindIfErasesEntriesFailingThePredicate) {
  ShardedLruCache<double> cache(1 << 16, 1);
  cache.Put(Key(5, 5), 1.5, sizeof(double), /*epoch=*/3);
  double value = 0.0;
  EXPECT_FALSE(cache.FindIf(Key(5, 5), &value,
                            [](uint64_t epoch) { return epoch >= 4; }));
  EXPECT_EQ(cache.Stats().invalidations, 1);
  // The stale entry is physically gone, not just hidden.
  EXPECT_FALSE(Find(&cache, Key(5, 5), &value));
  EXPECT_EQ(cache.Stats().entries, 0);
}

TEST(ShardedLruCacheTest, ClearDropsEntriesAndKeepsCounters) {
  ShardedLruCache<double> cache(1 << 16, 2);
  cache.Put(Key(1, 1), 1.0, sizeof(double), 0);
  cache.Put(Key(2, 2), 2.0, sizeof(double), 0);
  cache.Clear();
  double value = 0.0;
  EXPECT_FALSE(Find(&cache, Key(1, 1), &value));
  const ShardCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.inserts, 2);  // history survives Clear
  EXPECT_EQ(stats.invalidations, 2);
}

// ---------------------------------------------------------------------------
// Canonical keying input
// ---------------------------------------------------------------------------

TEST(GraphContentHashTest, EqualGraphsShareHashAndPerturbationsChange) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(10), 11);
  for (GraphId id = 0; id < db.size(); ++id) {
    Graph copy = db.Get(id);
    EXPECT_EQ(copy.ContentHash(), db.Get(id).ContentHash());
  }
  Rng rng(12);
  int changed = 0;
  for (GraphId id = 0; id < db.size(); ++id) {
    Graph perturbed = PerturbGraph(db.Get(id), 1, db.num_labels(), &rng);
    if (!(perturbed == db.Get(id)) &&
        perturbed.ContentHash() != db.Get(id).ContentHash()) {
      ++changed;
    }
    if (perturbed == db.Get(id)) ++changed;  // no-op edit: hash must agree
  }
  EXPECT_EQ(changed, db.size());
}

// ---------------------------------------------------------------------------
// ResultCache: one answer per key, served at its epoch only
// ---------------------------------------------------------------------------

ResultCacheOptions SmallCacheOptions() {
  ResultCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = 1 << 20;
  return options;
}

TEST(ResultCacheTest, AnswerRoundTripAndClear) {
  ResultCache cache(SmallCacheOptions());
  const ResultCache::Answer answer = {{4, 1.5}, {9, 2.0}};
  cache.Put(Key(10, 3), /*epoch=*/0, answer);
  ResultCache::Answer out;
  ASSERT_TRUE(cache.Find(Key(10, 3), 0, &out));
  EXPECT_EQ(out, answer);
  // Either half of the key tells answers apart.
  EXPECT_FALSE(cache.Find(Key(11, 3), 0, &out));
  EXPECT_FALSE(cache.Find(Key(10, 4), 0, &out));
  EXPECT_EQ(cache.Stats().entries, 1);

  cache.Clear();
  EXPECT_FALSE(cache.Find(Key(10, 3), 0, &out));
  const ShardCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.invalidations, 1);
}

TEST(ResultCacheTest, ValidateRejectsBadKnobs) {
  ResultCacheOptions options = SmallCacheOptions();
  EXPECT_TRUE(options.Validate().ok());
  options.capacity_bytes = 0;
  EXPECT_FALSE(options.Validate().ok());
  // Disabled caches never validate their knobs (they are not constructed).
  options.enabled = false;
  EXPECT_TRUE(options.Validate().ok());
}

// ---------------------------------------------------------------------------
// Index-level equivalence: cache-on == cache-off, bitwise
// ---------------------------------------------------------------------------

LanConfig TinyConfig(bool cache_enabled) {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  // Approximate-only keeps the suite cheap; the default protocol is just as
  // deterministic (CacheEquivalenceDefaultProtocolTest).
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
  config.num_threads = 2;
  config.cache.enabled = cache_enabled;
  config.cache.capacity_bytes = 8 << 20;
  return config;
}

/// Cache-on and cache-off indexes over the same database, trained on the
/// same workload. Build/Train are deterministic functions of (db, config
/// seed), so any divergence between the two is the cache's fault.
class CacheEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = DatasetSpec::SynLike(60);
    db_ = new GraphDatabase(GenerateDatabase(spec, 51));
    WorkloadOptions wopts;
    wopts.num_queries = 20;  // 20% test split -> 4 distinct test queries
    workload_ = new QueryWorkload(SampleWorkload(*db_, wopts, 52));
    cached_ = new LanIndex(TinyConfig(/*cache_enabled=*/true));
    plain_ = new LanIndex(TinyConfig(/*cache_enabled=*/false));
    ASSERT_TRUE(cached_->Build(db_).ok());
    ASSERT_TRUE(plain_->Build(db_).ok());
    ASSERT_TRUE(cached_->Train(workload_->train).ok());
    ASSERT_TRUE(plain_->Train(workload_->train).ok());
  }

  static void TearDownTestSuite() {
    delete cached_;
    delete plain_;
    delete workload_;
    delete db_;
    cached_ = nullptr;
    plain_ = nullptr;
    workload_ = nullptr;
    db_ = nullptr;
  }

  static GraphDatabase* db_;
  static QueryWorkload* workload_;
  static LanIndex* cached_;
  static LanIndex* plain_;
};

GraphDatabase* CacheEquivalenceTest::db_ = nullptr;
QueryWorkload* CacheEquivalenceTest::workload_ = nullptr;
LanIndex* CacheEquivalenceTest::cached_ = nullptr;
LanIndex* CacheEquivalenceTest::plain_ = nullptr;

/// Every routing x init combination, twice per query (the second pass hits
/// the cache), returns bitwise the same results from `cached` as from
/// `plain`.
void ExpectBitwiseIdenticalAcrossAllCombos(const LanIndex& cached,
                                           const LanIndex& plain,
                                           const std::vector<Graph>& queries) {
  ASSERT_NE(cached.result_cache(), nullptr);
  EXPECT_EQ(plain.result_cache(), nullptr);
  for (RoutingMethod routing :
       {RoutingMethod::kLanRoute, RoutingMethod::kBaselineRoute,
        RoutingMethod::kOracleRoute}) {
    for (InitMethod init :
         {InitMethod::kLanIs, InitMethod::kHnswIs, InitMethod::kRandomIs}) {
      SearchOptions options;
      options.k = 4;
      options.beam = 8;
      options.routing = routing;
      options.init = init;
      for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
        for (const Graph& query : queries) {
          SearchResult with = cached.Search(query, options);
          SearchResult without = plain.Search(query, options);
          ASSERT_TRUE(with.status.ok());
          ASSERT_TRUE(without.status.ok());
          ASSERT_EQ(with.results.size(), without.results.size())
              << RoutingMethodName(routing) << "/" << InitMethodName(init);
          for (size_t i = 0; i < with.results.size(); ++i) {
            EXPECT_EQ(with.results[i].first, without.results[i].first);
            // Bitwise: EQ, not NEAR.
            EXPECT_EQ(with.results[i].second, without.results[i].second)
                << RoutingMethodName(routing) << "/" << InitMethodName(init);
          }
          // A miss runs the uncached search; a hit serves the stored
          // answer and runs nothing.
          if (pass == 1) {
            EXPECT_EQ(with.stats.cache_hits, 1);
          }
          if (with.stats.cache_hits == 0) {
            EXPECT_EQ(with.stats.routing_steps, without.stats.routing_steps);
            EXPECT_EQ(with.stats.ndc, without.stats.ndc);
          } else {
            EXPECT_EQ(with.stats.routing_steps, 0);
            EXPECT_EQ(with.stats.ndc, 0);
          }
        }
      }
    }
  }
  const ShardCacheStats stats = cached.result_cache()->Stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.inserts, 0);
}

TEST_F(CacheEquivalenceTest, BitwiseIdenticalAcrossAllCombos) {
  ExpectBitwiseIdenticalAcrossAllCombos(*cached_, *plain_, workload_->test);
}

/// The same identity under the query protocol LanIndex runs by default
/// (VJ, Hungarian, Beam4 and gated, expansion-capped A*).
TEST(CacheEquivalenceDefaultProtocolTest, BitwiseIdenticalAcrossAllCombos) {
  const GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(60), 51);
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  const QueryWorkload workload = SampleWorkload(db, wopts, 52);
  std::vector<std::unique_ptr<LanIndex>> indexes;
  for (bool cache_enabled : {true, false}) {
    LanConfig config = TinyConfig(cache_enabled);
    config.query_ged = GedOptions{};
    indexes.push_back(std::make_unique<LanIndex>(config));
    ASSERT_TRUE(indexes.back()->Build(&db).ok());
    ASSERT_TRUE(indexes.back()->Train(workload.train).ok());
  }
  ExpectBitwiseIdenticalAcrossAllCombos(*indexes[0], *indexes[1],
                                        workload.test);
}

TEST_F(CacheEquivalenceTest, RepeatedQueryShiftsNdcToCacheHits) {
  // A query content-identical to a previous one (fresh Graph object, same
  // canonical hash) is served its stored answer.
  const Graph& query = workload_->test[0];
  SearchOptions options;
  options.k = 4;
  SearchResult first = cached_->Search(query, options);
  Graph same = query;
  SearchResult second = cached_->Search(same, options);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.results, second.results);
  EXPECT_EQ(second.stats.cache_hits, 1);
  EXPECT_EQ(second.stats.ndc, 0);
}

TEST_F(CacheEquivalenceTest, TraceChargesHitsWithoutBreakingNdcInvariant) {
  const Graph& query = workload_->test[1];
  SearchOptions options;
  options.k = 4;
  (void)cached_->Search(query, options);  // warm the cache

  QueryTrace trace;
  SearchOptions traced = options;
  traced.trace = &trace;
  SearchResult result = cached_->Search(query, traced);
  ASSERT_TRUE(result.status.ok());
  // Exactly ndc kDistance events, exactly cache_hits kCacheHit events.
  EXPECT_EQ(trace.CountOf(TraceEventType::kDistance), result.stats.ndc);
  EXPECT_EQ(trace.CountOf(TraceEventType::kCacheHit),
            result.stats.cache_hits);
  EXPECT_EQ(result.stats.cache_hits, 1);
}

/// Counts `trace` events of `type` whose detail is `detail`.
int64_t CountDetail(const QueryTrace& trace, TraceEventType type,
                    const std::string& detail) {
  return std::count_if(trace.events().begin(), trace.events().end(),
                       [&](const TraceEvent& event) {
                         return event.type == type && event.detail != nullptr &&
                                detail == event.detail;
                       });
}

TEST_F(CacheEquivalenceTest, HotLanQueryRunsNoModel) {
  // A repeated LAN_Route + LAN_IS query is served its stored answer and
  // encodes nothing: no query CG, no cross row, no forward pass, and the
  // same answers as without a cache.
  SearchOptions options;
  options.k = 4;
  options.beam = 8;
  options.routing = RoutingMethod::kLanRoute;
  options.init = InitMethod::kLanIs;
  for (const Graph& query : workload_->test) {
    ASSERT_TRUE(cached_->Search(query, options).status.ok());  // warm
    QueryTrace trace;
    SearchOptions traced = options;
    traced.trace = &trace;
    traced.profile = true;
    const SearchResult hot = cached_->Search(query, traced);
    const SearchResult cold = plain_->Search(query, options);
    ASSERT_TRUE(hot.status.ok());
    ASSERT_TRUE(cold.status.ok());
    EXPECT_EQ(hot.stats.ndc, 0);
    EXPECT_EQ(hot.stats.model_inferences, 0);
    EXPECT_EQ(hot.stats.cross_encodings, 0);
    // Not even the query CG is built: no model-inference span opened.
    EXPECT_EQ(hot.stats.stages.CountOf(Stage::kModelInference), 0);
    ASSERT_EQ(hot.results.size(), cold.results.size());
    for (size_t i = 0; i < hot.results.size(); ++i) {
      EXPECT_EQ(hot.results[i].first, cold.results[i].first);
      EXPECT_EQ(hot.results[i].second, cold.results[i].second);  // bitwise
    }
    EXPECT_EQ(CountDetail(trace, TraceEventType::kCacheHit, "answer"), 1);
    EXPECT_EQ(trace.CountOf(TraceEventType::kModelInference), 0);
    EXPECT_EQ(trace.CountOf(TraceEventType::kRouteStep), 0);
  }
}

TEST_F(CacheEquivalenceTest, SearchBatchExportsCacheMetrics) {
  const std::vector<Graph> queries = {workload_->test[2], workload_->test[3]};
  SearchOptions options;
  options.k = 3;
  // The first call stores both answers; the second is served all of them.
  ASSERT_EQ(cached_->SearchBatch(queries, options).results.size(), 2u);
  BatchSearchResult batch = cached_->SearchBatch(queries, options);
  ASSERT_EQ(batch.results.size(), queries.size());
  const int64_t* hits = batch.stats.metrics.FindCounter("cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(*hits, 2);
  const double* capacity = batch.stats.metrics.FindGauge("cache.capacity_bytes");
  ASSERT_NE(capacity, nullptr);
  EXPECT_GT(*capacity, 0.0);
  EXPECT_EQ(batch.stats.totals.cache_hits, *hits);
}

TEST_F(CacheEquivalenceTest, EvalSweepCountsTheSameWorkAsUncached) {
  // A sweep runs every query once per beam; no point may count another
  // point's work as cache hits, so every point reports what the uncached
  // index reports. Clearing first keeps the test independent of which
  // searches the fixture's other tests already stored.
  cached_->result_cache()->Clear();
  const std::vector<Graph>& queries = workload_->test;
  const std::vector<KnnList> truths = BuildTruths(
      *db_, queries, 4, GedComputer(plain_->config().query_ged));
  const std::vector<int> beams = {6, 12};
  for (const auto& [routing, init] :
       {std::pair{RoutingMethod::kLanRoute, InitMethod::kLanIs},
        std::pair{RoutingMethod::kBaselineRoute, InitMethod::kHnswIs}}) {
    const MethodCurve with =
        SweepIndex(*cached_, routing, init, queries, truths, 4, beams, "with");
    const MethodCurve without = SweepIndex(*plain_, routing, init, queries,
                                           truths, 4, beams, "without");
    ASSERT_EQ(with.points.size(), without.points.size());
    for (size_t i = 0; i < with.points.size(); ++i) {
      const SweepPoint& a = with.points[i];
      const SweepPoint& b = without.points[i];
      EXPECT_EQ(a.avg_ndc, b.avg_ndc) << RoutingMethodName(routing) << " b="
                                      << a.beam;
      EXPECT_EQ(a.avg_steps, b.avg_steps) << a.beam;
      EXPECT_EQ(a.avg_inferences, b.avg_inferences) << a.beam;
      EXPECT_EQ(a.recall, b.recall) << a.beam;
      EXPECT_GT(b.avg_ndc, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation: epoch advance keeps cached results correct
// ---------------------------------------------------------------------------

LanConfig MutationConfig(bool cache_enabled) {
  LanConfig config = TinyConfig(cache_enabled);
  config.num_threads = 2;
  return config;
}

TEST(ResultCacheMutationTest, InsertRemoveKeepCachedSearchesIdentical) {
  GraphDatabase db_a = GenerateDatabase(DatasetSpec::SynLike(40), 61);
  GraphDatabase db_b = GenerateDatabase(DatasetSpec::SynLike(40), 61);
  LanIndex cached(MutationConfig(true));
  LanIndex plain(MutationConfig(false));
  ASSERT_TRUE(cached.Build(&db_a).ok());
  ASSERT_TRUE(plain.Build(&db_b).ok());

  SearchOptions options;
  options.k = 5;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;

  Rng rng(62);
  std::vector<Graph> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(PerturbGraph(db_a.Get(static_cast<GraphId>(i)), 2,
                                   db_a.num_labels(), &rng));
  }

  auto expect_identical = [&](const char* when) {
    for (const Graph& query : queries) {
      SearchResult with = cached.Search(query, options);
      SearchResult without = plain.Search(query, options);
      ASSERT_TRUE(with.status.ok()) << when;
      ASSERT_TRUE(without.status.ok()) << when;
      EXPECT_EQ(with.results, without.results) << when;
    }
  };

  // Populate the cache pre-mutation.
  expect_identical("before mutation");
  ASSERT_GT(cached.result_cache()->Stats().inserts, 0);

  // Same mutation sequence on both indexes; their RNG streams are seeded
  // identically so they stay structurally identical.
  Rng mrng(63);
  for (int m = 0; m < 6; ++m) {
    if (m % 3 == 2) {
      const GraphId victim = static_cast<GraphId>(m);  // distinct victims
      ASSERT_TRUE(cached.Remove(victim).ok());
      ASSERT_TRUE(plain.Remove(victim).ok());
    } else {
      Graph graph = PerturbGraph(
          db_a.Get(static_cast<GraphId>(mrng.NextBounded(20))), 2,
          db_a.num_labels(), &mrng);
      auto a = cached.Insert(graph);
      auto b = plain.Insert(std::move(graph));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(a.value(), b.value());
    }
    // The build-protocol GED behind Insert is not symmetric, so the
    // cached path must evaluate each pair in the order the uncached one
    // does, or the two PGs drift apart.
    const auto snap_with = cached.Snapshot();
    const auto snap_without = plain.Snapshot();
    const ProximityGraph& with_pg = snap_with->hnsw->BaseLayer();
    const ProximityGraph& without_pg = snap_without->hnsw->BaseLayer();
    ASSERT_EQ(with_pg.NumNodes(), without_pg.NumNodes());
    for (GraphId n = 0; n < with_pg.NumNodes(); ++n) {
      const auto a = with_pg.NeighborSpan(n);
      const auto b = without_pg.NeighborSpan(n);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "node " << n << " after mutation " << m;
    }
    // Queries whose results were cached at the previous epoch must not be
    // served stale entries for rewired graphs.
    expect_identical("after mutation");
  }
  EXPECT_GT(cached.epoch(), 0u);
  EXPECT_GT(cached.result_cache()->Stats().invalidations, 0);
}

TEST(ResultCacheMutationTest, InsertIntoScannedClusterRerunsNeighborhoodModel) {
  GraphDatabase db_a = GenerateDatabase(DatasetSpec::SynLike(60), 71);
  GraphDatabase db_b = GenerateDatabase(DatasetSpec::SynLike(60), 71);
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  const QueryWorkload workload = SampleWorkload(db_a, wopts, 72);
  LanIndex cached(MutationConfig(true));
  LanIndex plain(MutationConfig(false));
  ASSERT_TRUE(cached.Build(&db_a).ok());
  ASSERT_TRUE(plain.Build(&db_b).ok());
  ASSERT_TRUE(cached.Train(workload.train).ok());
  ASSERT_TRUE(plain.Train(workload.train).ok());

  // Baseline routing: M_nh is then the only model that encodes rows.
  SearchOptions options;
  options.k = 5;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kLanIs;
  const Graph& query = workload.test[0];
  QueryTrace cold_trace;
  SearchOptions traced = options;
  traced.trace = &cold_trace;
  ASSERT_TRUE(cached.Search(query, traced).status.ok());  // stores
  const SearchResult hot = cached.Search(query, options);
  ASSERT_TRUE(hot.status.ok());
  EXPECT_EQ(hot.stats.cache_hits, 1);
  EXPECT_EQ(hot.stats.cross_encodings, 0);
  std::set<int64_t> scanned;
  for (const TraceEvent& event : cold_trace.events()) {
    if (event.type == TraceEventType::kClusterScore) scanned.insert(event.id);
  }
  ASSERT_FALSE(scanned.empty());

  // A copy of a scanned cluster's member embeds like it, so it lands in a
  // scanned cluster and grows that cluster's member count.
  const size_t target = static_cast<size_t>(*scanned.begin());
  const GraphId member = cached.clusters().members[target].front();
  Graph copy = db_a.Get(member);
  auto a = cached.Insert(copy);
  auto b = plain.Insert(std::move(copy));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value(), b.value());
  ASSERT_EQ(scanned.count(cached.clusters().assignment[static_cast<size_t>(
                a.value())]),
            1u);

  QueryTrace trace;
  traced.trace = &trace;
  const SearchResult with = cached.Search(query, traced);
  const SearchResult without = plain.Search(query, options);
  ASSERT_TRUE(with.status.ok());
  ASSERT_TRUE(without.status.ok());
  EXPECT_EQ(with.results, without.results);
  // The stored answer belongs to the previous epoch, so the whole search
  // ran again, M_nh over the grown cluster included.
  EXPECT_EQ(with.stats.cache_hits, 0);
  EXPECT_GT(with.stats.cross_encodings, 0);
  EXPECT_EQ(with.stats.cross_encodings, without.stats.cross_encodings);
  EXPECT_EQ(CountDetail(trace, TraceEventType::kModelInference, "M_nh"), 1);
  EXPECT_EQ(trace.CountOf(TraceEventType::kCacheHit), 0);
}

TEST(ResultCacheMutationTest, PinnedEpochsNeverShareAnAnswer) {
  // The rule itself: an answer stored at epoch E is never served to a
  // query pinned at E + 1, nor one stored at E + 1 to a query pinned at E.
  // Clear is not involved, so this is what holds while a write races a
  // search that stores its answer late.
  ResultCache cache(SmallCacheOptions());
  const ResultCache::Answer old_answer = {{1, 2.0}};
  const ResultCache::Answer new_answer = {{3, 1.0}};
  ResultCache::Answer out;
  cache.Put(Key(7, 5), /*epoch=*/4, old_answer);
  EXPECT_FALSE(cache.Find(Key(7, 5), 5, &out));
  cache.Put(Key(7, 5), /*epoch=*/5, new_answer);
  EXPECT_FALSE(cache.Find(Key(7, 5), 4, &out));
  cache.Put(Key(7, 5), /*epoch=*/5, new_answer);
  ASSERT_TRUE(cache.Find(Key(7, 5), 5, &out));
  EXPECT_EQ(out, new_answer);

  // Through the index: a query pinned after an Insert recomputes instead of
  // being served the previous epoch's answer, and equals the uncached one.
  GraphDatabase db_a = GenerateDatabase(DatasetSpec::SynLike(60), 71);
  GraphDatabase db_b = GenerateDatabase(DatasetSpec::SynLike(60), 71);
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  const QueryWorkload workload = SampleWorkload(db_a, wopts, 72);
  LanIndex cached(MutationConfig(true));
  LanIndex plain(MutationConfig(false));
  ASSERT_TRUE(cached.Build(&db_a).ok());
  ASSERT_TRUE(plain.Build(&db_b).ok());
  ASSERT_TRUE(cached.Train(workload.train).ok());
  ASSERT_TRUE(plain.Train(workload.train).ok());
  SearchOptions options;
  options.k = 5;
  const Graph& query = workload.test[0];
  const auto expect_as_uncached = [&](bool expect_hit, const char* when) {
    const SearchResult with = cached.Search(query, options);
    const SearchResult without = plain.Search(query, options);
    ASSERT_TRUE(with.status.ok()) << when;
    EXPECT_EQ(with.epoch, without.epoch) << when;
    EXPECT_EQ(with.results, without.results) << when;
    EXPECT_EQ(with.stats.cache_hits, expect_hit ? 1 : 0) << when;
    EXPECT_EQ(with.stats.ndc, expect_hit ? 0 : without.stats.ndc) << when;
  };
  expect_as_uncached(false, "epoch 0 stores");
  expect_as_uncached(true, "epoch 0 hits");
  // A copy of the query's best answer joins its neighborhood.
  const GraphId best = plain.Search(query, options).results.front().first;
  ASSERT_TRUE(cached.Insert(db_a.Get(best)).ok());
  ASSERT_TRUE(plain.Insert(db_b.Get(best)).ok());
  expect_as_uncached(false, "epoch 1 recomputes");
  expect_as_uncached(true, "epoch 1 hits");
  ASSERT_TRUE(cached.Remove(best).ok());
  ASSERT_TRUE(plain.Remove(best).ok());
  expect_as_uncached(false, "epoch 2 recomputes");
  expect_as_uncached(true, "epoch 2 hits");
}

// ---------------------------------------------------------------------------
// Concurrency (ctest -L concurrency; run under asan/tsan presets)
// ---------------------------------------------------------------------------

TEST(ResultCacheConcurrencyTest, ConcurrentSearchesServeTrueDistances) {
  constexpr GraphId kInitial = 50;
  constexpr int kMutations = 30;
  constexpr int kSearchers = 4;

  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 71);
  GraphDatabase mirror_db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 71);
  LanIndex cached(MutationConfig(true));
  LanIndex plain(MutationConfig(false));
  ASSERT_TRUE(cached.Build(&db).ok());
  ASSERT_TRUE(plain.Build(&mirror_db).ok());
  // Trained, so one searcher runs LAN_Route + LAN_IS; every searcher's
  // answers are stored at whatever epoch it pinned.
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  const QueryWorkload workload = SampleWorkload(db, wopts, 74);
  ASSERT_TRUE(cached.Train(workload.train).ok());
  ASSERT_TRUE(plain.Train(workload.train).ok());

  std::vector<Graph> queries;
  Rng qgen(72);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(PerturbGraph(
        db.Get(static_cast<GraphId>(qgen.NextBounded(kInitial))), 2,
        db.num_labels(), &qgen));
  }
  // Database graphs never change after insertion (removal only
  // tombstones), so d(Q, G_id) is time-invariant: every distance a search
  // returns — cached or fresh — must equal an independent recomputation.
  GedOptions gopts;
  gopts.approximate_only = true;
  gopts.beam_width = 0;

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> searches{0};
  // removed_at[id]: the epoch Remove(id) published (max until then). The
  // writer records it after Remove returns, so a searcher can only see it
  // late, never early: an answer at an epoch >= removed_at[id] holding id
  // was served across a Remove.
  std::vector<std::atomic<uint64_t>> removed_at(kInitial + kMutations);
  for (auto& epoch : removed_at) epoch.store(UINT64_MAX);

  std::vector<std::thread> searchers;
  searchers.reserve(kSearchers);
  for (int t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      GedComputer ged(gopts);
      SearchOptions options;
      options.k = 5;
      options.routing = t % 2 == 0 ? RoutingMethod::kBaselineRoute
                        : t == 1   ? RoutingMethod::kOracleRoute
                                   : RoutingMethod::kLanRoute;
      options.init = t % 2 == 0 ? InitMethod::kHnswIs
                     : t == 1   ? InitMethod::kRandomIs
                                : InitMethod::kLanIs;
      size_t next = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const Graph& query = queries[next++ % queries.size()];
        SearchResult result = cached.Search(query, options);
        if (!result.status.ok()) {
          violations.fetch_add(1);
          continue;
        }
        for (const auto& [id, distance] : result.results) {
          const double truth = ged.Distance(query, cached.db().Get(id));
          if (distance != truth) violations.fetch_add(1);
          if (removed_at[static_cast<size_t>(id)].load() <= result.epoch) {
            violations.fetch_add(1);
          }
        }
        searches.fetch_add(1);
      }
    });
  }

  Rng wrng(73);
  std::vector<GraphId> live;
  for (GraphId id = 0; id < kInitial; ++id) live.push_back(id);
  int writer_failures = 0;
  for (int m = 0; m < kMutations; ++m) {
    if (m % 2 == 0) {
      const GraphId base =
          live[static_cast<size_t>(wrng.NextBounded(live.size()))];
      Graph graph = PerturbGraph(db.Get(base), 2, db.num_labels(), &wrng);
      auto a = cached.Insert(graph);
      auto b = plain.Insert(std::move(graph));
      if (!a.ok() || !b.ok() || a.value() != b.value()) {
        ++writer_failures;
        break;
      }
      live.push_back(a.value());
    } else {
      const size_t pick = static_cast<size_t>(wrng.NextBounded(live.size()));
      const GraphId id = live[pick];
      if (!cached.Remove(id).ok() || !plain.Remove(id).ok()) {
        ++writer_failures;
        break;
      }
      removed_at[static_cast<size_t>(id)].store(cached.epoch());
      live[pick] = live.back();
      live.pop_back();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : searchers) thread.join();

  ASSERT_EQ(writer_failures, 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(searches.load(), 0);

  // Quiesced: the cache-on index (with a now well-populated cache, some
  // of it stored at older epochs) must still agree exactly with its
  // never-cached twin.
  for (RoutingMethod routing :
       {RoutingMethod::kBaselineRoute, RoutingMethod::kLanRoute}) {
    SearchOptions options;
    options.k = 5;
    options.routing = routing;
    options.init = routing == RoutingMethod::kLanRoute ? InitMethod::kLanIs
                                                       : InitMethod::kHnswIs;
    for (const Graph& query : queries) {
      SearchResult with = cached.Search(query, options);
      SearchResult without = plain.Search(query, options);
      ASSERT_TRUE(with.status.ok());
      ASSERT_TRUE(without.status.ok());
      EXPECT_EQ(with.results, without.results);
    }
  }
}

}  // namespace
}  // namespace lan
