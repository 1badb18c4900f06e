// Steady-state allocation test for the query scratch path: after a
// warmup pass that grows every per-thread scratch buffer (SearchScratch,
// GedScratch) to the workload's high-water mark, repeating the same
// queries must perform ZERO heap allocations — the whole per-query hot
// path (distance oracle cache, candidate pool, beam router, np_route's
// batch arena, result assembly, approximate GED) runs out of reused
// storage.
//
// Counting works by replacing global operator new/delete with malloc/free
// wrappers that bump an atomic only while a test-controlled flag is set,
// so gtest bookkeeping and fixture setup outside the measured window are
// free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_lower_bounds.h"
#include "ged/ged_scratch.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them),
// so every allocation pairs with the matching replaced deallocation.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lan {
namespace {

TEST(SearchAllocTest, ZeroSteadyStateAllocationsPerQuery) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 17);

  LanConfig config;
  // Query-time GED on the cheap bipartite path (no beam refinement); the
  // approximate path is the one the scratch buffers cover.
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.num_threads = 1;
  LanIndex index(config);
  const GraphDatabase* cdb = &db;
  ASSERT_TRUE(index.Build(cdb).ok());

  // Baseline route + random init needs no trained models, so the measured
  // path is Build-only: oracle + beam router + candidate pool + GED.
  SearchOptions options;
  options.k = 5;
  options.beam = 8;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kRandomIs;

  std::vector<Graph> queries;
  queries.push_back(db.Get(1));
  queries.push_back(db.Get(7));
  queries.push_back(db.Get(13));

  // Warmup: two passes over the SAME query set that is measured below, so
  // every scratch buffer reaches its high-water mark for this workload.
  SearchResult result;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Graph& q : queries) {
      index.SearchInto(q, options, &result);
      ASSERT_TRUE(result.status.ok());
      ASSERT_FALSE(result.results.empty());
    }
  }

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (const Graph& q : queries) {
    index.SearchInto(q, options, &result);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "steady-state queries must not touch the heap";
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.results.empty());
}

TEST(SearchAllocTest, ZeroSteadyStateAllocationsWithShippedTiers) {
  // The shipped approximate tier set: VJ, Hungarian and Beam4. Also the
  // cheap lower bounds that gate the exact attempt.
  GraphDatabase db = GenerateDatabase(DatasetSpec::AidsLike(40), 23);

  LanConfig config;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 4;
  config.num_threads = 1;
  LanIndex index(config);
  const GraphDatabase* cdb = &db;
  ASSERT_TRUE(index.Build(cdb).ok());

  SearchOptions options;
  options.k = 5;
  options.beam = 8;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kRandomIs;

  std::vector<Graph> queries;
  queries.push_back(db.Get(2));
  queries.push_back(db.Get(11));
  queries.push_back(db.Get(29));

  SearchResult result;
  double bounds = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Graph& q : queries) {
      index.SearchInto(q, options, &result);
      ASSERT_TRUE(result.status.ok());
      ASSERT_FALSE(result.results.empty());
      for (GraphId id = 0; id < db.size(); ++id) {
        bounds += BestLowerBound(q, db.Get(id));
      }
    }
  }

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (const Graph& q : queries) {
    index.SearchInto(q, options, &result);
  }
  const int64_t search_allocs = g_alloc_count.load(std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);
  double measured_bounds = 0.0;
  for (const Graph& q : queries) {
    for (GraphId id = 0; id < db.size(); ++id) {
      measured_bounds += BestLowerBound(q, db.Get(id));
    }
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(search_allocs, 0)
      << "steady-state queries with Beam must not touch the heap";
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "warm lower bounds must not touch the heap";
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.results.empty());
  EXPECT_GT(measured_bounds, 0.0);
  EXPECT_EQ(2 * measured_bounds, bounds);
}

TEST(SearchAllocTest, ZeroSteadyStateAllocationsWithExactAttempts) {
  // The default protocol: VJ, Hungarian and Beam4, then an A* attempt
  // (10k expansions) wherever the bound gap is <= 3.
  // Queries are perturbed copies of database graphs, so some evaluated
  // pairs are close enough for the attempt to run.
  GraphDatabase db = GenerateDatabase(DatasetSpec::AidsLike(40), 31);

  LanConfig config;
  config.num_threads = 1;
  LanIndex index(config);
  const GraphDatabase* cdb = &db;
  ASSERT_TRUE(index.Build(cdb).ok());

  SearchOptions options;
  options.k = 5;
  options.beam = 8;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kRandomIs;

  Rng rng(37);
  std::vector<Graph> queries;
  for (GraphId id : {3, 17, 31}) {
    queries.push_back(PerturbGraph(db.Get(id), 2, db.num_labels(), &rng));
  }

  // Warmup: two passes over the measured queries; the first is traced, and
  // its evaluated pairs are replayed through the gap gate to show that the
  // measured window makes A* attempts.
  SearchResult result;
  int64_t attempts = 0;
  for (const Graph& q : queries) {
    QueryTrace trace;
    options.trace = &trace;
    index.SearchInto(q, options, &result);
    ASSERT_TRUE(result.status.ok());
    for (const TraceEvent& e : trace.events()) {
      if (e.type != TraceEventType::kDistance) continue;
      const Graph& g = db.Get(static_cast<GraphId>(e.id));
      const double best = std::min({BipartiteGedVj(q, g).distance,
                                    BipartiteGedHungarian(q, g).distance,
                                    BeamGed(q, g, 4).distance});
      if (best - BestLowerBound(q, g) <= 3.0) ++attempts;
    }
  }
  options.trace = nullptr;
  for (const Graph& q : queries) {
    index.SearchInto(q, options, &result);
    ASSERT_TRUE(result.status.ok());
  }
  ASSERT_GT(attempts, 0);

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (const Graph& q : queries) {
    index.SearchInto(q, options, &result);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "steady-state queries with A* attempts must not touch the heap";
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.results.empty());
  // The attempts ran on this thread and kept their arena.
  EXPECT_GT(ThreadGedScratch().astar_states.capacity(), 0u);
}

TEST(SearchAllocTest, PoolParallelForAllocatesNothing) {
  // A query fans its GED tiers and cross-encoding chunks out through
  // ThreadPool::ParallelFor; the pool itself must not touch the heap,
  // whether workers help, join late or are withdrawn. Counted on every
  // thread, workers included.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(7);
  const auto body = [&](size_t i) { hits[i].fetch_add(1); };
  ParallelFor(&pool, hits.size(), body);  // workers started and parked

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int call = 0; call < 200; ++call) {
    ParallelFor(&pool, call % 2 == 0 ? 3 : hits.size(), body);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "ParallelFor must not touch the heap";
  EXPECT_EQ(hits[0].load(), 201);
  EXPECT_EQ(hits[3].load(), 101);
}

TEST(SearchAllocTest, ZeroSteadyStateAllocationsWithLanRouteCacheHits) {
  // LAN_Route + LAN_IS (lanbench's searches) on a trained index, answer
  // cache on: a hot query is served its stored answer, copied into the
  // reused result storage. The first pass misses the cache; such cold
  // misses still allocate per-query state (the query's CG and encoder
  // cache, the ranker's memo) and are outside this test. The model passes
  // themselves are covered by ZeroSteadyStateAllocationsInModelPasses.
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(60), 41);
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  const QueryWorkload workload = SampleWorkload(db, wopts, 42);

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
  config.num_threads = 1;
  config.cache.enabled = true;
  config.cache.capacity_bytes = 8 << 20;
  LanIndex index(config);
  ASSERT_TRUE(index.Build(&db).ok());
  ASSERT_TRUE(index.Train(workload.train).ok());

  SearchOptions options;
  options.k = 5;
  options.beam = 8;
  options.routing = RoutingMethod::kLanRoute;
  options.init = InitMethod::kLanIs;

  // Warmup: a cold pass fills the cache; a traced hot pass shows that the
  // measured queries are cache hits that compute nothing.
  SearchResult result;
  for (const Graph& q : workload.test) {
    index.SearchInto(q, options, &result);
    ASSERT_TRUE(result.status.ok());
  }
  for (const Graph& q : workload.test) {
    QueryTrace trace;
    options.trace = &trace;
    index.SearchInto(q, options, &result);
    ASSERT_TRUE(result.status.ok());
    ASSERT_FALSE(result.results.empty());
    EXPECT_EQ(result.stats.ndc, 0);
    EXPECT_EQ(result.stats.model_inferences, 0);
    EXPECT_EQ(result.stats.cache_hits, 1);
    EXPECT_EQ(trace.CountOf(TraceEventType::kCacheHit), 1);
  }
  options.trace = nullptr;

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (const Graph& q : workload.test) {
    index.SearchInto(q, options, &result);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "hot LAN_Route + LAN_IS queries must not touch the heap";
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.results.empty());
}

TEST(SearchAllocTest, ZeroSteadyStateAllocationsInModelPasses) {
  // The query-time model passes at one worker: M_rk's cross rows and
  // batches (InferCross + PredictBatchesFromCross) and M_nh's cross rows
  // and probabilities (InferCross + PredictProbs), on CGs and raw graphs.
  // Their working storage is per thread and their outputs reuse the
  // caller's buffers, so a second, warm pass must not touch the heap.
  GraphDatabase db = GenerateDatabase(DatasetSpec::AidsLike(60), 43);
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  const QueryWorkload workload = SampleWorkload(db, wopts, 44);

  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {16, 16};
  config.scorer.mlp_hidden = 16;
  config.rank.epochs = 2;
  config.nh.epochs = 2;
  config.cluster.epochs = 5;
  config.max_rank_examples = 200;
  config.max_nh_examples = 200;
  config.neighborhood_knn = 10;
  config.embedding.dim = 16;
  config.num_threads = 1;
  LanIndex index(config);
  ASSERT_TRUE(index.Build(&db).ok());
  ASSERT_TRUE(index.Train(workload.train).ok());
  const NeighborRankModel& rank = *index.rank_model();
  const NeighborhoodModel& nh = *index.neighborhood_model();
  const std::vector<CompressedGnnGraph>& cgs = index.db_cgs();

  // Ten candidates (three chunks) and a routing node with a cached context.
  const GraphId node = 0;
  std::vector<GraphId> neighbors;
  std::vector<const CompressedGnnGraph*> cg_batch;
  std::vector<const Graph*> raw_batch;
  for (GraphId id = 1; id <= 10; ++id) {
    neighbors.push_back(id);
    cg_batch.push_back(&cgs[static_cast<size_t>(id)]);
    raw_batch.push_back(&db.Get(id));
  }
  const Graph& query = workload.test[0];
  LazyQueryCg cg_query(&query, static_cast<int>(config.scorer.gnn_dims.size()));
  LazyQueryCg raw_query(&query,
                        static_cast<int>(config.scorer.gnn_dims.size()));
  const QueryEncodingCache& cg_encoding =
      rank.scorer().EncodeQuery(&cg_query, /*compressed=*/true);
  const QueryEncodingCache& raw_encoding =
      rank.scorer().EncodeQuery(&raw_query, /*compressed=*/false);

  Matrix cross;
  RankedBatches batches;
  std::vector<float> probs;
  int64_t inferences = 0;
  size_t batch_count = 0;
  const auto pass = [&] {
    for (bool compressed : {true, false}) {
      if (compressed) {
        rank.scorer().InferCross(cg_batch, cg_encoding, &cross);
      } else {
        rank.scorer().InferCross(raw_batch, raw_encoding, &cross);
      }
      batches.Clear();
      rank.PredictBatchesFromCross(neighbors, cross, node,
                                   cgs[static_cast<size_t>(node)],
                                   &inferences, &batches);
      batch_count += batches.num_batches();
      if (compressed) {
        nh.scorer().InferCross(cg_batch, cg_encoding, &cross);
      } else {
        nh.scorer().InferCross(raw_batch, raw_encoding, &cross);
      }
      nh.PredictProbs(cross, &probs);
    }
  };
  pass();  // grows every per-thread buffer and the outputs

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  pass();
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "warm model passes must not touch the heap";
  EXPECT_EQ(inferences, 4 * static_cast<int64_t>(neighbors.size()));
  EXPECT_GT(batch_count, 0u);
  EXPECT_EQ(probs.size(), neighbors.size());
}

TEST(SearchAllocTest, RepeatedSearchIntoReusesResultStorage) {
  // The Search() wrapper still allocates (it returns a fresh SearchResult
  // by value); SearchInto into a reused SearchResult must not.
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(24), 29);
  LanConfig config;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.num_threads = 1;
  LanIndex index(config);
  const GraphDatabase* cdb = &db;
  ASSERT_TRUE(index.Build(cdb).ok());

  SearchOptions options;
  options.k = 3;
  options.beam = 4;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kRandomIs;

  const Graph query = db.Get(5);
  SearchResult a;
  index.SearchInto(query, options, &a);
  ASSERT_TRUE(a.status.ok());
  const KnnList first = a.results;

  index.SearchInto(query, options, &a);
  EXPECT_EQ(a.results, first) << "same query twice must be deterministic";

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  index.SearchInto(query, options, &a);
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(a.results, first);
}

}  // namespace
}  // namespace lan
