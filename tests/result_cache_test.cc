// Tests for the cross-query result cache: the ShardedLruCache store, the
// canonical keying input (Graph::ContentHash), the ResultCache
// epoch/watermark invalidation contract, DistanceOracle's reads through
// the cache, and — the property the whole design
// exists to preserve — that cache-on searches are bitwise identical to
// cache-off searches across every routing/init combination, including
// across Insert/Remove epoch advances and under concurrent mutation
// (ResultCacheConcurrencyTest runs under the asan/tsan presets via
// `ctest -L concurrency`).

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
#include "lan/lan_index.h"
#include "lan/learned_init.h"
#include "lan/workload.h"
#include "pg/distance.h"
#include "pg/result_cache.h"

namespace lan {
namespace {

// ---------------------------------------------------------------------------
// ShardedLruCache
// ---------------------------------------------------------------------------

CacheKey128 Key(uint64_t hi, uint64_t lo) { return CacheKey128{hi, lo}; }

TEST(ShardedLruCacheTest, FindAfterPutRoundTrips) {
  ShardedLruCache<double> cache(1 << 16, 4);
  cache.Put(Key(1, 7), 3.5, sizeof(double), /*epoch=*/2);
  double value = 0.0;
  ASSERT_TRUE(cache.Find(Key(1, 7), &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_FALSE(cache.Find(Key(1, 8), &value));
  EXPECT_FALSE(cache.Find(Key(2, 7), &value));
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
  ASSERT_TRUE(cache.Find(Key(1, 0), &value));  // refresh 1: LRU is now 2
  cache.Put(Key(4, 0), 4.0, sizeof(double), 0);
  EXPECT_FALSE(cache.Find(Key(2, 0), &value));
  EXPECT_TRUE(cache.Find(Key(1, 0), &value));
  EXPECT_TRUE(cache.Find(Key(3, 0), &value));
  EXPECT_TRUE(cache.Find(Key(4, 0), &value));
  EXPECT_EQ(cache.Stats().evictions, 1);
  EXPECT_EQ(cache.Stats().entries, 3);
}

TEST(ShardedLruCacheTest, OversizedValueIsRejected) {
  ShardedLruCache<double> cache(128, 1);
  cache.Put(Key(1, 0), 1.0, /*value_bytes=*/4096, 0);
  double value = 0.0;
  EXPECT_FALSE(cache.Find(Key(1, 0), &value));
  EXPECT_EQ(cache.Stats().rejected, 1);
  EXPECT_EQ(cache.Stats().inserts, 0);
}

TEST(ShardedLruCacheTest, EraseIfSweepsMatchingKeys) {
  ShardedLruCache<double> cache(1 << 16, 4);
  for (uint64_t q = 0; q < 4; ++q) {
    cache.Put(Key(q, /*lo=*/q % 2), static_cast<double>(q), sizeof(double), q);
  }
  // Sweep everything with lo == 1 (two entries).
  const int64_t removed = cache.EraseIf(
      [](const CacheKey128& key, uint64_t) { return key.lo == 1; });
  EXPECT_EQ(removed, 2);
  double value = 0.0;
  EXPECT_TRUE(cache.Find(Key(0, 0), &value));
  EXPECT_FALSE(cache.Find(Key(1, 1), &value));
  EXPECT_TRUE(cache.Find(Key(2, 0), &value));
  EXPECT_FALSE(cache.Find(Key(3, 1), &value));
  EXPECT_EQ(cache.Stats().invalidations, 2);
}

TEST(ShardedLruCacheTest, FindIfErasesEntriesFailingThePredicate) {
  ShardedLruCache<double> cache(1 << 16, 1);
  cache.Put(Key(5, 5), 1.5, sizeof(double), /*epoch=*/3);
  double value = 0.0;
  EXPECT_FALSE(cache.FindIf(Key(5, 5), &value,
                            [](uint64_t epoch) { return epoch >= 4; }));
  EXPECT_EQ(cache.Stats().invalidations, 1);
  // The stale entry is physically gone, not just hidden.
  EXPECT_FALSE(cache.Find(Key(5, 5), &value));
  EXPECT_EQ(cache.Stats().entries, 0);
}

TEST(ShardedLruCacheTest, ClearDropsEntriesAndKeepsCounters) {
  ShardedLruCache<double> cache(1 << 16, 2);
  cache.Put(Key(1, 1), 1.0, sizeof(double), 0);
  cache.Put(Key(2, 2), 2.0, sizeof(double), 0);
  cache.Clear();
  double value = 0.0;
  EXPECT_FALSE(cache.Find(Key(1, 1), &value));
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
// ResultCache: keying and the epoch/watermark contract
// ---------------------------------------------------------------------------

ResultCacheOptions SmallCacheOptions() {
  ResultCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = 1 << 20;
  return options;
}

TEST(ResultCacheTest, GedRoundTripAndKeySeparation) {
  ResultCache cache(SmallCacheOptions());
  cache.PutGed(/*query_hash=*/10, /*id=*/3, ResultKind::kExactGed,
               /*epoch=*/0, 7.5);
  double value = 0.0;
  ASSERT_TRUE(cache.FindGed(10, 3, ResultKind::kExactGed, 0, &value));
  EXPECT_DOUBLE_EQ(value, 7.5);
  // Different kind, query, or graph: distinct keys.
  EXPECT_FALSE(cache.FindGed(10, 3, ResultKind::kRankBatches, 0, &value));
  EXPECT_FALSE(cache.FindGed(11, 3, ResultKind::kExactGed, 0, &value));
  EXPECT_FALSE(cache.FindGed(10, 4, ResultKind::kExactGed, 0, &value));
}

TEST(ResultCacheTest, WatermarkInvalidationContract) {
  ResultCache cache(SmallCacheOptions());
  cache.PutGed(10, 3, ResultKind::kExactGed, /*epoch=*/0, 7.5);
  cache.PutGed(10, 4, ResultKind::kExactGed, /*epoch=*/0, 9.5);

  // Graph 3's neighborhood changes at epoch 1.
  cache.InvalidateGraph(3, /*epoch=*/1);

  double value = 0.0;
  // The pre-mutation entry is gone for everyone; the untouched graph
  // still serves.
  EXPECT_FALSE(cache.FindGed(10, 3, ResultKind::kExactGed, 1, &value));
  ASSERT_TRUE(cache.FindGed(10, 4, ResultKind::kExactGed, 1, &value));
  EXPECT_DOUBLE_EQ(value, 9.5);

  // A racing Put stamped below the watermark is refused.
  cache.PutGed(10, 3, ResultKind::kExactGed, /*epoch=*/0, 7.5);
  EXPECT_FALSE(cache.FindGed(10, 3, ResultKind::kExactGed, 1, &value));

  // A post-mutation recomputation is accepted and served to queries at
  // the new epoch...
  cache.PutGed(10, 3, ResultKind::kExactGed, /*epoch=*/1, 8.5);
  ASSERT_TRUE(cache.FindGed(10, 3, ResultKind::kExactGed, 1, &value));
  EXPECT_DOUBLE_EQ(value, 8.5);
  // ...but never to a query still pinned before the mutation.
  EXPECT_FALSE(cache.FindGed(10, 3, ResultKind::kExactGed, 0, &value));
}

TEST(ResultCacheTest, InvalidateGraphsSweepsOnlyTouchedIds) {
  ResultCache cache(SmallCacheOptions());
  for (GraphId id = 0; id < 6; ++id) {
    cache.PutGed(77, id, ResultKind::kExactGed, 0, static_cast<double>(id));
  }
  cache.InvalidateGraphs({1, 4}, /*epoch=*/2);
  double value = 0.0;
  for (GraphId id = 0; id < 6; ++id) {
    const bool expect_live = (id != 1 && id != 4);
    EXPECT_EQ(cache.FindGed(77, id, ResultKind::kExactGed, 2, &value),
              expect_live)
        << "graph " << id;
  }
}

/// Copies a cached score out through ResultCache::ReadScore.
bool FindScore(ResultCache* cache, uint64_t query_hash, GraphId id,
               ResultKind kind, uint64_t query_epoch, CachedScore* out) {
  return cache->ReadScore(query_hash, id, kind, query_epoch,
                          [out](const CachedScore& value) { *out = value; });
}

TEST(ResultCacheTest, ScoreRoundTripAndClear) {
  ResultCache cache(SmallCacheOptions());
  CachedScore score;
  score.floats = {1.5f, 2.5f};
  score.ids = {4, 5, 6};
  score.sizes = {1, 2};
  cache.PutScore(42, 9, ResultKind::kRankBatches, 0, score);
  CachedScore out;
  ASSERT_TRUE(FindScore(&cache, 42, 9, ResultKind::kRankBatches, 0, &out));
  EXPECT_EQ(out.floats, score.floats);
  EXPECT_EQ(out.ids, score.ids);
  EXPECT_EQ(out.sizes, score.sizes);

  cache.PutGed(42, 9, ResultKind::kExactGed, 0, 1.0);
  cache.Clear();
  double value = 0.0;
  EXPECT_FALSE(FindScore(&cache, 42, 9, ResultKind::kRankBatches, 0, &out));
  EXPECT_FALSE(cache.FindGed(42, 9, ResultKind::kExactGed, 0, &value));
  EXPECT_EQ(cache.Stats().entries, 0);
}

TEST(ResultCacheTest, QueryLevelScoreKindsDoNotShareEntries) {
  // kClusterCounts and kNeighborhood share the (query hash,
  // kInvalidGraphId) key; the kind keeps them apart.
  ResultCache cache(SmallCacheOptions());
  CachedScore counts;
  counts.floats = {0.5f, 3.0f};
  CachedScore kept;
  kept.ids = {7, 2};
  cache.PutScore(42, kInvalidGraphId, ResultKind::kClusterCounts, 0, counts);
  CachedScore out;
  EXPECT_FALSE(FindScore(&cache, 42, kInvalidGraphId,
                         ResultKind::kNeighborhood, 0, &out));
  cache.PutScore(42, kInvalidGraphId, ResultKind::kNeighborhood, 0, kept);
  ASSERT_TRUE(FindScore(&cache, 42, kInvalidGraphId,
                        ResultKind::kClusterCounts, 0, &out));
  EXPECT_EQ(out.floats, counts.floats);
  EXPECT_TRUE(out.ids.empty());
  ASSERT_TRUE(FindScore(&cache, 42, kInvalidGraphId,
                        ResultKind::kNeighborhood, 0, &out));
  EXPECT_TRUE(out.floats.empty());
  EXPECT_EQ(out.ids, kept.ids);
  EXPECT_STREQ(ResultKindName(ResultKind::kNeighborhood), "neighborhood");
  EXPECT_STREQ(ResultKindName(ResultKind::kClusterCounts), "cluster_counts");
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
// DistanceOracle over a ResultCache
// ---------------------------------------------------------------------------

TEST(DistanceOracleCacheTest, SecondOracleIsServedFromCache) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(6), 13);
  GedOptions gopts;
  gopts.approximate_only = true;
  gopts.beam_width = 0;
  GedComputer ged(gopts);
  ResultCache cache(SmallCacheOptions());

  const Graph& query = db.Get(0);
  QueryContext ctx;
  ctx.query_hash = query.ContentHash();
  ctx.epoch = 0;

  SearchStats first_stats;
  DistanceOracle first(&db, &query, &ged, &first_stats, nullptr, nullptr,
                       &cache, ctx);
  const double computed = first.Distance(3);
  EXPECT_EQ(computed, ged.Distance(query, db.Get(3)));
  EXPECT_EQ(first_stats.ndc, 1);
  EXPECT_EQ(first_stats.cache_hits, 0);

  // A later query with the same hash is served the stored value: charged
  // as a cache hit, not as NDC.
  SearchStats second_stats;
  DistanceOracle second(&db, &query, &ged, &second_stats, nullptr, nullptr,
                        &cache, ctx);
  EXPECT_EQ(second.Distance(3), computed);  // bitwise
  EXPECT_EQ(second_stats.ndc, 0);
  EXPECT_EQ(second_stats.cache_hits, 1);
  EXPECT_EQ(cache.Stats().hits, 1);
}

TEST(DistanceOracleCacheTest, ZeroQueryHashBypassesTheCache) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(6), 14);
  GedOptions gopts;
  gopts.approximate_only = true;
  GedComputer ged(gopts);
  ResultCache cache(SmallCacheOptions());

  QueryContext anonymous;  // query_hash == 0
  const Graph& query = db.Get(1);
  for (int pass = 0; pass < 2; ++pass) {
    SearchStats stats;
    DistanceOracle oracle(&db, &query, &ged, &stats, nullptr, nullptr, &cache,
                          anonymous);
    (void)oracle.Distance(2);
    EXPECT_EQ(stats.ndc, 1);
    EXPECT_EQ(stats.cache_hits, 0);

    EXPECT_FALSE(oracle.caches_scores());
    CachedScore score;
    score.floats = {1.0f};
    oracle.StoreScore(ResultKind::kClusterCounts, kInvalidGraphId, score);
    EXPECT_FALSE(oracle.ReadScore(ResultKind::kClusterCounts,
                                  kInvalidGraphId,
                                  [](const CachedScore&) {}));
  }
  EXPECT_EQ(cache.Stats().inserts, 0);
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
          // Control flow is value-driven, so the counters the cache must
          // not perturb stay equal; distance work only ever shifts from
          // ndc to cache_hits (score hits shift model inferences too, so
          // the sum is a lower bound rather than an equality).
          EXPECT_EQ(with.stats.routing_steps, without.stats.routing_steps);
          EXPECT_LE(with.stats.ndc, without.stats.ndc);
          EXPECT_GE(with.stats.ndc + with.stats.cache_hits,
                    without.stats.ndc);
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
  // canonical hash) reuses its GED results.
  const Graph& query = workload_->test[0];
  SearchOptions options;
  options.k = 4;
  SearchResult first = cached_->Search(query, options);
  Graph same = query;
  SearchResult second = cached_->Search(same, options);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.results, second.results);
  EXPECT_GT(second.stats.cache_hits, 0);
  EXPECT_LT(second.stats.ndc, first.stats.ndc + first.stats.cache_hits);
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
  EXPECT_GT(result.stats.cache_hits, 0);
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
  // With M_rk's batches, M_c's counts and M_nh's kept set all memoized, a
  // repeated LAN_Route + LAN_IS query encodes nothing: no query CG, no
  // cross row, no forward pass, and the same answers as without a cache.
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
    EXPECT_EQ(CountDetail(trace, TraceEventType::kCacheHit, "neighborhood"),
              1);
    EXPECT_EQ(CountDetail(trace, TraceEventType::kModelInference, "M_nh"), 0);
    EXPECT_EQ(trace.CountOf(TraceEventType::kModelInference), 0);
  }
}

TEST_F(CacheEquivalenceTest, SearchBatchExportsCacheMetrics) {
  // Duplicate queries inside one batch: the second occurrence hits.
  std::vector<Graph> queries;
  for (int i = 0; i < 2; ++i) {
    queries.push_back(workload_->test[2]);
    queries.push_back(workload_->test[3]);
  }
  SearchOptions options;
  options.k = 3;
  BatchSearchResult batch = cached_->SearchBatch(queries, options, 2);
  ASSERT_EQ(batch.results.size(), queries.size());
  const int64_t* hits = batch.stats.metrics.FindCounter("cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(*hits, 0);
  const double* capacity = batch.stats.metrics.FindGauge("cache.capacity_bytes");
  ASSERT_NE(capacity, nullptr);
  EXPECT_GT(*capacity, 0.0);
  EXPECT_EQ(batch.stats.totals.cache_hits, *hits);
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
  ASSERT_TRUE(cached.Search(query, options).status.ok());  // warm
  QueryTrace hot_trace;
  SearchOptions traced = options;
  traced.trace = &hot_trace;
  const SearchResult hot = cached.Search(query, traced);
  ASSERT_TRUE(hot.status.ok());
  EXPECT_EQ(hot.stats.cross_encodings, 0);
  std::set<int64_t> scanned;
  for (const TraceEvent& event : hot_trace.events()) {
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
  // Insert invalidated the stored kept set, so M_nh ran again.
  EXPECT_GT(with.stats.cross_encodings, 0);
  EXPECT_EQ(with.stats.cross_encodings, without.stats.cross_encodings);
  EXPECT_EQ(CountDetail(trace, TraceEventType::kModelInference, "M_nh"), 1);
  EXPECT_EQ(CountDetail(trace, TraceEventType::kCacheHit, "neighborhood"), 0);
}

/// One LanInitialSelector::Select of `index`'s models over `snap`'s
/// clusters, pinned at `snap`'s epoch, with the same Rng seed every time,
/// so two runs differ only through the memo.
struct SelectOutcome {
  GraphId start = kInvalidGraphId;
  std::vector<GraphId> kept;
  SearchStats stats;
};

SelectOutcome RunLanIs(const LanIndex& index, const IndexSnapshot& snap,
                       ResultCache* cache, const Graph& query) {
  SelectOutcome out;
  QueryContext ctx;
  ctx.query_hash = query.ContentHash();
  ctx.epoch = snap.epoch;
  const GedComputer ged(index.config().query_ged);
  DistanceOracle oracle(&index.db(), &query, &ged, &out.stats, nullptr,
                        nullptr, cache, ctx);
  LazyQueryCg query_cg = index.QueryCg(query);
  LanInitOptions options = index.config().init;
  options.threshold = index.neighborhood_model()->calibrated_threshold();
  LanInitialSelector selector(index.neighborhood_model(),
                              index.cluster_model(), snap.clusters.get(),
                              snap.cgs.get(), &query_cg,
                              &index.config().embedding,
                              index.config().use_compressed_gnn, options);
  Rng rng(7);
  out.start = selector.Select(&oracle, &rng);
  out.kept = selector.last_predicted_neighborhood();
  return out;
}

TEST(ResultCacheMutationTest, PinnedEpochsNeverShareAKeptSet) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(60), 71);
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  const QueryWorkload workload = SampleWorkload(db, wopts, 72);
  LanIndex index(MutationConfig(true));
  ASSERT_TRUE(index.Build(&db).ok());
  ASSERT_TRUE(index.Train(workload.train).ok());
  const Graph& query = workload.test[0];
  ResultCache* caching = index.result_cache();
  ResultCache* base = nullptr;  // the uncached reference

  // A query pinned before the Insert keeps the old member lists for its
  // whole life; its answers must never mix with the new epoch's.
  const auto old_snap = index.Snapshot();
  const SelectOutcome ref_old = RunLanIs(index, *old_snap, base, query);
  ASSERT_FALSE(ref_old.kept.empty());

  auto expect_as_uncached = [&](const IndexSnapshot& snap,
                                const SelectOutcome& ref, bool expect_hit,
                                const char* when) {
    const SelectOutcome got = RunLanIs(index, snap, caching, query);
    EXPECT_EQ(got.start, ref.start) << when;
    EXPECT_EQ(got.kept, ref.kept) << when;
    // A hit runs no M_nh row; a miss scores every scanned member again.
    if (expect_hit) {
      EXPECT_EQ(got.stats.cross_encodings, 0) << when;
    } else {
      EXPECT_EQ(got.stats.cross_encodings, ref.stats.cross_encodings) << when;
    }
  };
  expect_as_uncached(*old_snap, ref_old, false, "old epoch stores");
  expect_as_uncached(*old_snap, ref_old, true, "old epoch hits its entry");

  // A copy of a kept member embeds and scores like it: it lands in a
  // scanned cluster and joins the kept set.
  const GraphId kept = ref_old.kept.front();
  const auto inserted = index.Insert(db.Get(kept));
  ASSERT_TRUE(inserted.ok());
  const auto new_snap = index.Snapshot();
  ASSERT_EQ(new_snap->clusters->assignment[static_cast<size_t>(
                inserted.value())],
            old_snap->clusters->assignment[static_cast<size_t>(kept)]);
  const SelectOutcome ref_new = RunLanIs(index, *new_snap, base, query);
  ASSERT_NE(ref_old.kept, ref_new.kept);

  expect_as_uncached(*new_snap, ref_new, false, "new epoch after Insert");
  expect_as_uncached(*new_snap, ref_new, true, "new epoch hits its entry");
  expect_as_uncached(*old_snap, ref_old, false, "old epoch after new stored");
  // The old epoch's store was refused. Its rejected lookup also dropped
  // the new entry (FindIf erases what fails its predicate), so the new
  // epoch recomputes once and then hits again.
  expect_as_uncached(*new_snap, ref_new, false, "new epoch after old ran");
  expect_as_uncached(*new_snap, ref_new, true, "new epoch hits again");
  expect_as_uncached(*old_snap, ref_old, false, "old epoch stays a miss");
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
  // Trained, so one searcher runs LAN_Route + LAN_IS: its memoized M_rk
  // batches and kept sets are stored at whatever epoch it pinned.
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
