#include <gtest/gtest.h>

#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "pg/beam_search.h"
#include "pg/candidate_pool.h"
#include "pg/distance.h"
#include "pg/hnsw.h"
#include "pg/neighbor_ranker.h"
#include "pg/proximity_graph.h"

namespace lan {
namespace {

GedOptions FastGed() {
  GedOptions o;
  o.approximate_only = true;
  o.beam_width = 0;
  return o;
}

// ---------- ProximityGraph ----------

TEST(ProximityGraphTest, EdgesAndDegrees) {
  using Edges = std::vector<std::pair<GraphId, GraphId>>;
  // Repeated edges, in either direction, are idempotent; rows come out
  // symmetric and sorted.
  Result<ProximityGraph> built =
      ProximityGraph::FromEdges(4, Edges{{1, 2}, {0, 1}, {1, 0}, {0, 1}});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ProximityGraph& pg = *built;
  EXPECT_EQ(pg.NumNodes(), 4);
  EXPECT_EQ(pg.NumEdges(), 2);
  EXPECT_EQ(pg.Degree(1), 2);
  EXPECT_EQ(pg.Degree(3), 0);
  auto row = [&pg](GraphId id) {
    const std::span<const GraphId> span = pg.NeighborSpan(id);
    return std::vector<GraphId>(span.begin(), span.end());
  };
  EXPECT_EQ(row(0), (std::vector<GraphId>{1}));
  EXPECT_EQ(row(1), (std::vector<GraphId>{0, 2}));
  EXPECT_EQ(row(2), (std::vector<GraphId>{1}));
  EXPECT_FALSE(pg.IsConnected());  // node 3 is isolated

  EXPECT_EQ(ProximityGraph::FromEdges(4, Edges{{0, 0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ProximityGraph::FromEdges(4, Edges{{0, 9}}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ProximityGraph::FromEdges(4, Edges{{-1, 2}}).status().code(),
            StatusCode::kOutOfRange);

  Result<ProximityGraph> joined =
      ProximityGraph::FromEdges(4, Edges{{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined->IsConnected());
  EXPECT_EQ(ProximityGraph().NumNodes(), 0);
  EXPECT_TRUE(ProximityGraph().IsConnected());
}

// ---------- CandidatePool ----------

TEST(CandidatePoolTest, ResizeKeepsClosest) {
  RouteStateArray states;
  states.Reset(8);
  std::vector<PoolEntry> entries;
  CandidatePool pool(&states, &entries);
  pool.Add(0, 5.0);
  pool.Add(1, 1.0);
  pool.Add(2, 3.0);
  pool.Resize(2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(0));
}

TEST(CandidatePoolTest, TieBreakUnexploredFirst) {
  RouteStateArray states;
  states.Reset(8);
  states.MarkExplored(0, 0);
  std::vector<PoolEntry> entries;
  CandidatePool pool(&states, &entries);
  pool.Add(0, 2.0);  // explored
  pool.Add(1, 2.0);  // unexplored
  pool.Resize(1);
  EXPECT_TRUE(pool.Contains(1));
}

TEST(CandidatePoolTest, TieBreakRecentExploredFirst) {
  RouteStateArray states;
  states.Reset(8);
  states.MarkExplored(0, 0);
  states.MarkExplored(1, 5);
  std::vector<PoolEntry> entries;
  CandidatePool pool(&states, &entries);
  pool.Add(0, 2.0);
  pool.Add(1, 2.0);
  pool.Resize(1);
  EXPECT_TRUE(pool.Contains(1));  // explored later
}

TEST(CandidatePoolTest, BestUnexploredSkipsExplored) {
  RouteStateArray states;
  states.Reset(8);
  states.MarkExplored(3, 0);
  std::vector<PoolEntry> entries;
  CandidatePool pool(&states, &entries);
  pool.Add(3, 0.5);
  pool.Add(4, 2.0);
  EXPECT_EQ(pool.BestUnexplored(), 4);
  EXPECT_EQ(pool.Best(), 3);
  EXPECT_FALSE(pool.AllExplored());
  states.MarkExplored(4, 1);
  EXPECT_TRUE(pool.AllExplored());
  EXPECT_EQ(pool.BestUnexplored(), kInvalidGraphId);
}

TEST(CandidatePoolTest, BestUnexploredWithinGamma) {
  RouteStateArray states;
  states.Reset(8);
  std::vector<PoolEntry> entries;
  CandidatePool pool(&states, &entries);
  pool.Add(0, 5.0);
  pool.Add(1, 3.0);
  EXPECT_EQ(pool.BestUnexploredWithin(4.0), 1);
  EXPECT_EQ(pool.BestUnexploredWithin(2.0), kInvalidGraphId);
}

TEST(CandidatePoolTest, TopKSortsByDistanceThenId) {
  RouteStateArray states;
  states.Reset(8);
  std::vector<PoolEntry> entries;
  CandidatePool pool(&states, &entries);
  pool.Add(7, 2.0);
  pool.Add(3, 2.0);
  pool.Add(5, 1.0);
  auto top = pool.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 5);
  EXPECT_EQ(top[1].first, 3);
}

TEST(CandidatePoolTest, AddIsIdempotent) {
  RouteStateArray states;
  states.Reset(8);
  std::vector<PoolEntry> entries;
  CandidatePool pool(&states, &entries);
  pool.Add(0, 1.0);
  pool.Add(0, 1.0);
  EXPECT_EQ(pool.size(), 1u);
}

// ---------- SplitIntoBatches ----------

TEST(SplitIntoBatchesTest, TwentyPercent) {
  std::vector<GraphId> ranked = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  RankedBatches batches;
  SplitIntoBatches(ranked, 20, &batches);
  ASSERT_EQ(batches.num_batches(), 5u);
  for (size_t j = 0; j < 5; ++j) EXPECT_EQ(batches.Batch(j).size(), 2u);
  EXPECT_EQ(batches.Batch(0)[0], 0);
  EXPECT_EQ(batches.Batch(0)[1], 1);
  EXPECT_EQ(batches.Batch(4)[0], 8);
  EXPECT_EQ(batches.Batch(4)[1], 9);
}

TEST(SplitIntoBatchesTest, SmallListsGetSingletonBatches) {
  std::vector<GraphId> ranked = {4, 2};
  RankedBatches batches;
  SplitIntoBatches(ranked, 30, &batches);
  ASSERT_EQ(batches.num_batches(), 2u);  // ceil(2*0.3)=1 per batch
  EXPECT_EQ(batches.Batch(0)[0], 4);
}

TEST(SplitIntoBatchesTest, HundredPercentIsOneBatch) {
  std::vector<GraphId> ranked = {1, 2, 3};
  RankedBatches batches;
  SplitIntoBatches(ranked, 100, &batches);
  ASSERT_EQ(batches.num_batches(), 1u);
  EXPECT_EQ(batches.Batch(0).size(), 3u);
}

TEST(SplitIntoBatchesTest, AppendsAfterExistingBatches) {
  RankedBatches batches;
  batches.AppendBatch(std::vector<GraphId>{9});
  SplitIntoBatches(std::vector<GraphId>{5, 6, 7}, 50, &batches);
  ASSERT_EQ(batches.num_batches(), 3u);
  EXPECT_EQ(batches.Batch(0)[0], 9);
  EXPECT_EQ(batches.ids, (std::vector<GraphId>{9, 5, 6, 7}));
  EXPECT_EQ(batches.ends, (std::vector<uint32_t>{1, 3, 4}));
}

// ---------- Beam search on a known PG ----------

struct SmallWorld {
  GraphDatabase db{3};
  GedComputer ged{FastGed()};
  ProximityGraph pg;

  SmallWorld() {
    // 8 SYN-like graphs; fully connected PG so beam search with big beam
    // must find the exact NN.
    DatasetSpec spec = DatasetSpec::SynLike(1);
    spec.num_labels = 3;
    Rng rng(1);
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(db.Add(GenerateGraph(spec, &rng)).ok());
    }
    std::vector<std::pair<GraphId, GraphId>> edges;
    for (GraphId a = 0; a < db.size(); ++a) {
      for (GraphId b = a + 1; b < db.size(); ++b) edges.emplace_back(a, b);
    }
    pg = ProximityGraph::FromEdges(db.size(), edges).value();
  }
};

TEST(BeamSearchTest, FullyConnectedFindsExactKnn) {
  SmallWorld world;
  Rng rng(2);
  Graph query = PerturbGraph(world.db.Get(3), 2, 3, &rng);
  SearchStats stats;
  DistanceOracle oracle(&world.db, &query, &world.ged, &stats);
  RoutingResult result =
      BeamSearchRoute(world.pg, &oracle, /*init=*/0, /*beam=*/8, /*k=*/3);
  KnnList truth = ComputeGroundTruth(world.db, query, 3, world.ged);
  ASSERT_EQ(result.results.size(), 3u);
  EXPECT_DOUBLE_EQ(RecallAtK(result.results, truth, 3), 1.0);
  // All 8 distances computed exactly once.
  EXPECT_EQ(stats.ndc, 8);
  EXPECT_GE(stats.routing_steps, 1);
}

TEST(BeamSearchTest, StatsTrackDistanceTime) {
  SmallWorld world;
  Graph query = world.db.Get(0);
  SearchStats stats;
  StageProfile profile;
  DistanceOracle oracle(&world.db, &query, &world.ged, &stats);
  oracle.set_profile(&profile);
  BeamSearchRoute(world.pg, &oracle, 0, 4, 2);
  // GED time is charged to the kGed stage: one span per computed distance.
  ASSERT_GT(stats.ndc, 0);
  EXPECT_GT(profile.breakdown().SecondsOf(Stage::kGed), 0.0);
  EXPECT_EQ(profile.breakdown().CountOf(Stage::kGed), stats.ndc);
}

TEST(DistanceOracleTest, CachesAndCounts) {
  SmallWorld world;
  Graph query = world.db.Get(1);
  SearchStats stats;
  DistanceOracle oracle(&world.db, &query, &world.ged, &stats);
  EXPECT_FALSE(oracle.IsCached(2));
  const double d1 = oracle.Distance(2);
  EXPECT_TRUE(oracle.IsCached(2));
  const double d2 = oracle.Distance(2);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(stats.ndc, 1);
  EXPECT_DOUBLE_EQ(oracle.Distance(1), 0.0);
  EXPECT_EQ(stats.ndc, 2);
}

// ---------- OracleRanker ----------

TEST(OracleRankerTest, BatchesOrderedByTrueDistance) {
  SmallWorld world;
  Rng rng(4);
  Graph query = PerturbGraph(world.db.Get(5), 1, 3, &rng);
  OracleRanker ranker(&world.db, &world.ged, /*batch_percent=*/25);
  RankedBatches batches;
  ranker.RankNeighbors(world.pg, /*node=*/0, query, &batches);
  // Node 0 has 7 neighbors; batch size ceil(7*0.25)=2 -> 4 batches.
  ASSERT_EQ(batches.num_batches(), 4u);
  double prev_max = -1.0;
  for (size_t j = 0; j < batches.num_batches(); ++j) {
    double batch_min = 1e18, batch_max = -1.0;
    for (GraphId id : batches.Batch(j)) {
      const double d = world.ged.Distance(query, world.db.Get(id));
      batch_min = std::min(batch_min, d);
      batch_max = std::max(batch_max, d);
    }
    EXPECT_GE(batch_min + 1e-9, prev_max - 1e-9);
    prev_max = std::max(prev_max, batch_max);
  }
}

// ---------- HNSW ----------

TEST(HnswTest, BaseLayerCoversAllNodesAndIsSearchable) {
  DatasetSpec spec = DatasetSpec::SynLike(60);
  spec.num_labels = 4;
  GraphDatabase db = GenerateDatabase(spec, 5);
  GedComputer ged(FastGed());
  HnswOptions options;
  options.M = 4;
  options.ef_construction = 16;
  HnswIndex index = HnswIndex::Build(db, ged, options);
  EXPECT_EQ(index.BaseLayer().NumNodes(), db.size());
  EXPECT_GT(index.BaseLayer().NumEdges(), 0);
  EXPECT_GE(index.EntryPoint(), 0);

  // Search quality: decent recall on perturbed queries with a wide beam.
  Rng rng(6);
  double recall_sum = 0.0;
  const int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    Graph query = PerturbGraph(
        db.Get(static_cast<GraphId>(rng.NextBounded(60))), 1, 4, &rng);
    SearchStats stats;
    DistanceOracle oracle(&db, &query, &ged, &stats);
    RoutingResult result = index.Search(&oracle, /*ef=*/16, /*k=*/5);
    KnnList truth = ComputeGroundTruth(db, query, 5, ged);
    recall_sum += RecallAtK(result.results, truth, 5);
    EXPECT_LE(stats.ndc, db.size());
  }
  EXPECT_GE(recall_sum / kQueries, 0.7);
}

TEST(HnswTest, DescentReturnsValidNode) {
  DatasetSpec spec = DatasetSpec::SynLike(40);
  GraphDatabase db = GenerateDatabase(spec, 7);
  GedComputer ged(FastGed());
  HnswOptions options;
  options.M = 3;
  HnswIndex index = HnswIndex::Build(db, ged, options);
  Graph query = db.Get(11);
  SearchStats stats;
  DistanceOracle oracle(&db, &query, &ged, &stats);
  GraphId init = index.SelectInitialNode(&oracle);
  EXPECT_GE(init, 0);
  EXPECT_LT(init, db.size());
}

TEST(HnswTest, GenericBuilderWorksOnVectors) {
  // 1-D points 0..19 with |a-b| distance; NN structure is obvious.
  std::vector<double> points(20);
  for (size_t i = 0; i < points.size(); ++i) points[i] = static_cast<double>(i);
  HnswOptions options;
  options.M = 3;
  HnswIndex index = HnswIndex::BuildWithDistance(
      20,
      [&points](GraphId a, GraphId b) {
        return std::abs(points[static_cast<size_t>(a)] -
                        points[static_cast<size_t>(b)]);
      },
      options);
  // Query at 7.2: nearest is 7.
  auto result = BeamSearchRouteFn(
      index.BaseLayer(),
      [&points](GraphId id) {
        return std::abs(points[static_cast<size_t>(id)] - 7.2);
      },
      index.SelectInitialNodeFn([&points](GraphId id) {
        return std::abs(points[static_cast<size_t>(id)] - 7.2);
      }),
      /*beam=*/8, /*k=*/3);
  ASSERT_GE(result.results.size(), 1u);
  EXPECT_EQ(result.results[0].first, 7);
}

}  // namespace
}  // namespace lan
