// Tests for the epoch-versioned mutable index: the golden HNSW topology
// contract (batch Build == insert loop, bit-for-bit), pool-independence of
// Build and Insert under an asymmetric distance, the completeness of HNSW
// Insert's rewired-row report, GraphDatabase append/tombstone
// semantics, LanIndex online Insert/Remove with epoch publication,
// tombstone-aware routing, and the online-insert recall acceptance bar
// against a from-scratch rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"
#include "lan/workload.h"
#include "pg/hnsw.h"

namespace lan {
namespace {

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

// ---------------------------------------------------------------------------
// Golden HNSW topology
// ---------------------------------------------------------------------------

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t TopologyHash(const HnswIndex& index) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv(h, static_cast<uint64_t>(index.EntryPoint()));
  h = Fnv(h, static_cast<uint64_t>(index.NumLayers()));
  const ProximityGraph& base = index.BaseLayer();
  h = Fnv(h, static_cast<uint64_t>(base.NumNodes()));
  for (GraphId id = 0; id < base.NumNodes(); ++id) {
    for (GraphId n : base.NeighborSpan(id)) {
      h = Fnv(h, static_cast<uint64_t>(n));
    }
    h = Fnv(h, 0xfffffffffULL);
  }
  return h;
}

std::vector<double> GoldenPoints() {
  Rng rng(123);
  std::vector<double> points;
  for (int i = 0; i < 120; ++i) points.push_back(rng.NextDouble() * 1000.0);
  return points;
}

HnswOptions GoldenOptions() {
  HnswOptions options;
  options.M = 4;
  options.ef_construction = 16;
  return options;
}

// The refactor's central promise: moving batch construction onto the
// shared per-node insertion step must not change the produced topology.
// These hashes were captured from the pre-refactor builder; a mismatch
// means construction semantics drifted (different graphs, different
// recall curves, invalidated tuning), not just an internal change.
TEST(HnswGoldenTopologyTest, BatchBuildReproducesPreRefactorTopology) {
  const std::vector<double> points = GoldenPoints();
  auto distance = [&points](GraphId a, GraphId b) {
    return std::abs(points[static_cast<size_t>(a)] -
                    points[static_cast<size_t>(b)]);
  };
  HnswIndex index =
      HnswIndex::BuildWithDistance(120, distance, GoldenOptions());
  EXPECT_EQ(TopologyHash(index), 0x72fc0fd77f61d7c9ULL);
}

TEST(HnswGoldenTopologyTest, BatchBuildIsLiterallyAnInsertLoop) {
  const std::vector<double> points = GoldenPoints();
  auto distance = [&points](GraphId a, GraphId b) {
    return std::abs(points[static_cast<size_t>(a)] -
                    points[static_cast<size_t>(b)]);
  };
  const HnswOptions options = GoldenOptions();
  HnswIndex batch = HnswIndex::BuildWithDistance(120, distance, options);
  HnswIndex grown;
  Rng rng(options.seed);  // the level stream batch Build draws from
  for (GraphId id = 0; id < 120; ++id) {
    ASSERT_TRUE(grown.Insert(id, distance, options, &rng).ok()) << id;
  }
  EXPECT_EQ(TopologyHash(grown), TopologyHash(batch));
  EXPECT_EQ(grown.NumLayers(), batch.NumLayers());
  EXPECT_EQ(grown.EntryPoint(), batch.EntryPoint());
}

// The golden tests' 1-D distance is symmetric, so they cannot tell which
// argument order a memoized pair was computed in. This distance can: d(a,
// b) scales |p_a - p_b| by a factor hashed from the ordered pair, as the
// build GED differs between (a, b) and (b, a). A pool only computes
// distances ahead, so with or without one every layer's rows and the
// entry point must match exactly.
TEST(HnswInsertTest, PoolKeepsTopologyUnderAsymmetricDistance) {
  const std::vector<double> points = GoldenPoints();
  auto distance = [&points](GraphId a, GraphId b) {
    const uint64_t h = Fnv(Fnv(0, static_cast<uint64_t>(a)),
                           static_cast<uint64_t>(b));
    const double skew = 1.0 + static_cast<double>(h % 1024) / 1024.0;
    return skew * std::abs(points[static_cast<size_t>(a)] -
                           points[static_cast<size_t>(b)]);
  };
  const HnswOptions options = GoldenOptions();
  const auto expect_same = [](const HnswIndex& serial,
                              const HnswIndex& pooled, GraphId after) {
    ASSERT_EQ(pooled.NumLayers(), serial.NumLayers()) << after;
    EXPECT_EQ(pooled.EntryPoint(), serial.EntryPoint()) << after;
    for (int l = 0; l < serial.NumLayers(); ++l) {
      for (GraphId id = 0; id < serial.NumNodes(); ++id) {
        const std::span<const GraphId> a = serial.CoreRow(l, id);
        const std::span<const GraphId> b = pooled.CoreRow(l, id);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "layer " << l << " row " << id << " after node " << after;
      }
    }
  };
  ThreadPool pool(4);
  HnswIndex serial = HnswIndex::BuildWithDistance(80, distance, options);
  HnswIndex pooled =
      HnswIndex::BuildWithDistance(80, distance, options, &pool);
  expect_same(serial, pooled, 79);
  Rng serial_rng(7);
  Rng pooled_rng(7);
  for (GraphId id = 80; id < 120; ++id) {
    ASSERT_TRUE(serial.Insert(id, distance, options, &serial_rng).ok());
    ASSERT_TRUE(
        pooled.Insert(id, distance, options, &pooled_rng, &pool).ok());
    expect_same(serial, pooled, id);
  }
}

// ---------------------------------------------------------------------------
// GraphDatabase append + tombstone semantics
// ---------------------------------------------------------------------------

Graph OneNodeGraph(int32_t label) {
  Graph g;
  g.AddNode(label);
  return g;
}

TEST(GraphDatabaseMutationTest, AddRemoveTombstoneSemantics) {
  GraphDatabase db(/*num_labels=*/3);
  for (int32_t i = 0; i < 5; ++i) {
    auto added = db.Add(OneNodeGraph(i % 3));
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(added.value(), i);
  }
  EXPECT_FALSE(db.Add(OneNodeGraph(3)).ok());  // label outside the alphabet
  EXPECT_EQ(db.size(), 5);
  EXPECT_EQ(db.NumLive(), 5);

  ASSERT_TRUE(db.Remove(2).ok());
  EXPECT_FALSE(db.IsLive(2));
  EXPECT_TRUE(db.IsLive(1));
  EXPECT_EQ(db.size(), 5);  // tombstoned, not reclaimed
  EXPECT_EQ(db.NumLive(), 4);
  EXPECT_EQ(db.NumRemoved(), 1);
  EXPECT_EQ(db.Get(2).NumNodes(), 1);  // data stays readable

  EXPECT_FALSE(db.Remove(2).ok());  // already removed
  EXPECT_FALSE(db.Remove(5).ok());  // out of range
  EXPECT_FALSE(db.Remove(-1).ok());
}

TEST(GraphDatabaseMutationTest, CopyAndMovePreserveMutationState) {
  GraphDatabase db(2);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(db.Add(OneNodeGraph(i % 2)).ok());
  ASSERT_TRUE(db.Remove(3).ok());

  GraphDatabase copy(db);
  EXPECT_EQ(copy.size(), 6);
  EXPECT_FALSE(copy.IsLive(3));
  EXPECT_EQ(copy.NumLive(), 5);
  // Independent after the copy.
  ASSERT_TRUE(copy.Remove(0).ok());
  EXPECT_TRUE(db.IsLive(0));

  GraphDatabase moved(std::move(copy));
  EXPECT_EQ(moved.size(), 6);
  EXPECT_FALSE(moved.IsLive(0));
  EXPECT_FALSE(moved.IsLive(3));
  EXPECT_EQ(moved.Get(1).NumNodes(), 1);

  GraphDatabase assigned(1);
  assigned = moved;
  EXPECT_EQ(assigned.size(), 6);
  EXPECT_EQ(assigned.NumRemoved(), 2);
  ASSERT_TRUE(assigned.Add(OneNodeGraph(1)).ok());
  EXPECT_EQ(assigned.size(), 7);
  EXPECT_EQ(moved.size(), 6);
}

TEST(GraphDatabaseMutationTest, TruncateDropsTailTombstones) {
  GraphDatabase db(2);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(db.Add(OneNodeGraph(0)).ok());
  ASSERT_TRUE(db.Remove(1).ok());
  ASSERT_TRUE(db.Remove(6).ok());
  ASSERT_TRUE(db.Truncate(4).ok());
  EXPECT_EQ(db.size(), 4);
  EXPECT_EQ(db.NumRemoved(), 1);  // #6 left with the tail, #1 remains
  EXPECT_FALSE(db.IsLive(1));
  EXPECT_FALSE(db.Truncate(5).ok());
  // Appends keep working after a truncate.
  auto added = db.Add(OneNodeGraph(1));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added.value(), 4);
}

TEST(GraphDatabaseMutationTest, SlotTableSurvivesGrowth) {
  // Push well past the initial slot capacity so the published pointer
  // table is regrown several times; every id must stay readable.
  GraphDatabase db(200);
  for (int32_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(db.Add(OneNodeGraph(i)).ok());
  }
  for (GraphId id = 0; id < 150; ++id) {
    EXPECT_EQ(db.Get(id).label(0), id);
  }
}

// ---------------------------------------------------------------------------
// LanIndex online Insert/Remove
// ---------------------------------------------------------------------------

SearchOptions BaselineOptions(int k) {
  SearchOptions options;
  options.k = k;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  return options;
}

TEST(MutableLanIndexTest, InsertRemoveLifecycle) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 51);
  LanIndex index(TinyConfig());
  ASSERT_TRUE(index.Build(&db).ok());
  EXPECT_EQ(index.epoch(), 0u);
  EXPECT_EQ(index.live_size(), 40);
  EXPECT_EQ(index.tombstones(), 0);

  Rng rng(52);
  Graph inserted = PerturbGraph(db.Get(7), 3, db.num_labels(), &rng);
  auto id = index.Insert(inserted);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 40);
  EXPECT_EQ(index.epoch(), 1u);
  EXPECT_EQ(index.live_size(), 41);
  EXPECT_EQ(db.size(), 41);
  // The index maintains its derived state for the new graph too.
  EXPECT_EQ(index.db_cgs().size(), 41u);
  EXPECT_EQ(index.clusters().assignment.size(), 41u);
  EXPECT_EQ(index.pg().NumNodes(), 41);

  // The inserted graph is immediately searchable (distance 0 to itself).
  SearchResult found = index.Search(inserted, BaselineOptions(5));
  ASSERT_TRUE(found.status.ok());
  EXPECT_EQ(found.epoch, 1u);
  bool has_inserted = false;
  for (const auto& [rid, d] : found.results) has_inserted |= (rid == 40);
  EXPECT_TRUE(has_inserted);

  ASSERT_TRUE(index.Remove(40).ok());
  EXPECT_EQ(index.epoch(), 2u);
  EXPECT_EQ(index.live_size(), 40);
  EXPECT_EQ(index.tombstones(), 1);
  SearchResult gone = index.Search(inserted, BaselineOptions(5));
  ASSERT_TRUE(gone.status.ok());
  EXPECT_EQ(gone.epoch, 2u);
  for (const auto& [rid, d] : gone.results) EXPECT_NE(rid, 40);

  EXPECT_FALSE(index.Remove(40).ok());  // already tombstoned
  EXPECT_FALSE(index.Remove(99).ok());  // out of range
}

TEST(MutableLanIndexTest, ImmutableBuildRejectsMutation) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(20), 53);
  LanIndex index(TinyConfig());
  const GraphDatabase* const_db = &db;
  ASSERT_TRUE(index.Build(const_db).ok());
  EXPECT_FALSE(index.Insert(db.Get(0)).ok());
  EXPECT_FALSE(index.Remove(0).ok());
}

TEST(MutableLanIndexTest, MutationsBeforeBuildFail) {
  LanIndex index(TinyConfig());
  EXPECT_EQ(index.Insert(Graph()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.Remove(0).code(), StatusCode::kFailedPrecondition);
}

TEST(MutableLanIndexTest, TombstonesAreTraversedButNeverReturned) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(50), 54);
  LanIndex index(TinyConfig());
  ASSERT_TRUE(index.Build(&db).ok());

  // Remove the query's exact match: routing must still pass through it
  // (it is the navigation optimum) yet never answer with it.
  const GraphId victim = 17;
  Graph query = db.Get(victim);
  ASSERT_TRUE(index.Remove(victim).ok());

  QueryTrace trace;
  SearchOptions options = BaselineOptions(5);
  options.trace = &trace;
  SearchResult result = index.Search(query, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.results.size(), 5u);
  for (const auto& [rid, d] : result.results) EXPECT_NE(rid, victim);
  bool traversed = false;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kDistance && event.id == victim) {
      traversed = true;
    }
  }
  EXPECT_TRUE(traversed);
}

TEST(MutableLanIndexTest, PinnedSnapshotOutlivesMutations) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(30), 55);
  LanIndex index(TinyConfig());
  ASSERT_TRUE(index.Build(&db).ok());

  std::shared_ptr<const IndexSnapshot> pinned = index.Snapshot();
  EXPECT_EQ(pinned->epoch, 0u);
  EXPECT_EQ(pinned->live_count, 30);

  Rng rng(56);
  ASSERT_TRUE(index.Insert(PerturbGraph(db.Get(0), 2, db.num_labels(), &rng))
                  .ok());
  ASSERT_TRUE(index.Remove(3).ok());

  // The pinned epoch still sees the pre-mutation world.
  EXPECT_EQ(pinned->epoch, 0u);
  EXPECT_EQ(pinned->num_graphs, 30);
  EXPECT_EQ(pinned->live_count, 30);
  EXPECT_NE((*pinned->live)[3], 0);
  EXPECT_EQ(pinned->hnsw->NumNodes(), 30);
  // While the current epoch moved on.
  const auto now = index.Snapshot();
  EXPECT_EQ(now->epoch, 2u);
  EXPECT_EQ(now->num_graphs, 31);
  EXPECT_EQ(now->live_count, 30);
  EXPECT_EQ((*now->live)[3], 0);
}

TEST(MutableLanIndexTest, TrainAfterInsertCoversInsertedGraphs) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 57);
  LanIndex index(TinyConfig());
  ASSERT_TRUE(index.Build(&db).ok());
  Rng rng(58);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        index.Insert(PerturbGraph(db.Get(i), 2, db.num_labels(), &rng)).ok());
  }
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  QueryWorkload workload = SampleWorkload(db, wopts, 59);
  ASSERT_TRUE(index.Train(workload.train).ok());
  SearchOptions learned;
  learned.k = 4;
  SearchResult result = index.Search(workload.test.front(), learned);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.results.size(), 4u);
}

// ---------------------------------------------------------------------------
// Online-insert recall vs from-scratch rebuild (acceptance bar)
// ---------------------------------------------------------------------------

TEST(OnlineInsertRecallTest, WithinOnePointOfFromScratchRebuild) {
  // 1000-graph database, 10% arriving online. np_route with the oracle
  // ranker (model-free skyline) must not lose recall to the incremental
  // construction path.
  const GraphId kTotal = 1000;
  const GraphId kPrebuilt = 900;
  GraphDatabase full = GenerateDatabase(DatasetSpec::SynLike(kTotal), 61);

  LanConfig config = TinyConfig();
  GedComputer ged(config.query_ged);

  GraphDatabase online_db(full.num_labels());
  for (GraphId id = 0; id < kPrebuilt; ++id) {
    ASSERT_TRUE(online_db.Add(full.Get(id)).ok());
  }
  LanIndex online(config);
  ASSERT_TRUE(online.Build(&online_db).ok());
  for (GraphId id = kPrebuilt; id < kTotal; ++id) {
    auto inserted = online.Insert(full.Get(id));
    ASSERT_TRUE(inserted.ok()) << id;
    ASSERT_EQ(inserted.value(), id);
  }
  EXPECT_EQ(online.live_size(), kTotal);

  LanIndex rebuilt(config);
  ASSERT_TRUE(rebuilt.Build(&full).ok());

  SearchOptions options;
  options.k = 10;
  options.beam = 32;
  options.routing = RoutingMethod::kOracleRoute;
  options.init = InitMethod::kHnswIs;

  const int kQueries = 20;
  Rng qrng(62);
  double online_recall = 0.0;
  double rebuilt_recall = 0.0;
  for (int q = 0; q < kQueries; ++q) {
    // Half the queries target the online-inserted tail.
    const GraphId target =
        (q % 2 == 0)
            ? static_cast<GraphId>(qrng.NextBounded(kTotal))
            : kPrebuilt + static_cast<GraphId>(qrng.NextBounded(
                              static_cast<uint64_t>(kTotal - kPrebuilt)));
    Graph query = PerturbGraph(full.Get(target), 2, full.num_labels(), &qrng);
    KnnList truth = ComputeGroundTruth(full, query, options.k, ged);
    SearchResult from_online = online.Search(query, options);
    SearchResult from_rebuilt = rebuilt.Search(query, options);
    ASSERT_TRUE(from_online.status.ok());
    ASSERT_TRUE(from_rebuilt.status.ok());
    online_recall += RecallAtK(from_online.results, truth, options.k);
    rebuilt_recall += RecallAtK(from_rebuilt.results, truth, options.k);
  }
  online_recall /= kQueries;
  rebuilt_recall /= kQueries;
  EXPECT_GE(rebuilt_recall, 0.8);
  EXPECT_GE(online_recall, rebuilt_recall - 0.01);  // within 1 point
}

}  // namespace
}  // namespace lan
