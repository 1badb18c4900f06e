#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "gnn/cross_graph.h"
#include "gnn/gin.h"
#include "gnn/gnn_graph.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "pg/beam_search.h"
#include "pg/hnsw.h"

namespace lan {
namespace {

GedOptions FastGed() {
  GedOptions o;
  o.approximate_only = true;
  o.beam_width = 0;
  return o;
}

// ---------- Incremental HNSW insertion ----------

TEST(HnswInsertTest, FromEmptyOneByOne) {
  std::vector<double> points;
  HnswOptions options;
  options.M = 4;
  HnswIndex index;
  Rng rng(1);
  auto distance = [&points](GraphId a, GraphId b) {
    return std::abs(points[static_cast<size_t>(a)] -
                    points[static_cast<size_t>(b)]);
  };
  for (int i = 0; i < 40; ++i) {
    points.push_back(static_cast<double>((i * 7) % 40));
    ASSERT_TRUE(index.Insert(static_cast<GraphId>(i), distance, options, &rng)
                    .ok())
        << i;
  }
  EXPECT_EQ(index.BaseLayer().NumNodes(), 40);
  EXPECT_TRUE(index.BaseLayer().IsConnected());

  // Searchable: nearest point to 13.2 is the node with value 13.
  auto result = BeamSearchRouteFn(
      index.BaseLayer(),
      [&points](GraphId id) {
        return std::abs(points[static_cast<size_t>(id)] - 13.2);
      },
      index.SelectInitialNodeFn([&points](GraphId id) {
        return std::abs(points[static_cast<size_t>(id)] - 13.2);
      }),
      /*beam=*/8, /*k=*/1);
  ASSERT_FALSE(result.results.empty());
  EXPECT_NEAR(points[static_cast<size_t>(result.results[0].first)], 13.0,
              0.5);
}

TEST(HnswInsertTest, IncrementalExtensionOfBatchBuild) {
  DatasetSpec spec = DatasetSpec::SynLike(70);
  GraphDatabase db = GenerateDatabase(spec, 2);
  GedComputer ged(FastGed());

  // Batch-build over the first 50, then insert the remaining 20.
  GraphDatabase prefix(db.num_labels());
  for (GraphId i = 0; i < 50; ++i) ASSERT_TRUE(prefix.Add(db.Get(i)).ok());
  HnswOptions options;
  options.M = 4;
  options.ef_construction = 16;
  HnswIndex index = HnswIndex::Build(prefix, ged, options);
  auto distance = [&db, &ged](GraphId a, GraphId b) {
    return ged.Distance(db.Get(a), db.Get(b));
  };
  Rng rng(3);
  for (GraphId id = 50; id < 70; ++id) {
    ASSERT_TRUE(index.Insert(id, distance, options, &rng).ok());
  }
  EXPECT_EQ(index.BaseLayer().NumNodes(), 70);

  // Recall over queries near late-inserted graphs must be decent — the
  // inserts are genuinely reachable.
  double recall = 0.0;
  const int kQueries = 5;
  Rng qrng(4);
  for (int i = 0; i < kQueries; ++i) {
    const GraphId target = 50 + static_cast<GraphId>(qrng.NextBounded(20));
    Graph query = PerturbGraph(db.Get(target), 1, db.num_labels(), &qrng);
    SearchStats stats;
    DistanceOracle oracle(&db, &query, &ged, &stats);
    RoutingResult result = index.Search(&oracle, /*ef=*/16, /*k=*/5);
    KnnList truth = ComputeGroundTruth(db, query, 5, ged);
    recall += RecallAtK(result.results, truth, 5);
  }
  EXPECT_GE(recall / kQueries, 0.6);
}

TEST(HnswInsertTest, RejectsOutOfOrderIds) {
  HnswIndex index;
  Rng rng(5);
  auto distance = [](GraphId, GraphId) { return 1.0; };
  HnswOptions options;
  ASSERT_TRUE(index.Insert(0, distance, options, &rng).ok());
  EXPECT_FALSE(index.Insert(5, distance, options, &rng).ok());
  EXPECT_FALSE(index.Insert(0, distance, options, &rng).ok());
}

// ---------- HNSW base layer as a reference topology ----------

TEST(HnswBaseLayerTest, RoutesAsReferenceTopology) {
  DatasetSpec spec = DatasetSpec::SynLike(40);
  GraphDatabase db = GenerateDatabase(spec, 6);
  GedComputer ged(FastGed());
  HnswOptions options;
  options.M = 5;
  const HnswIndex hnsw = HnswIndex::Build(db, ged, options);
  const ProximityGraph& pg = hnsw.BaseLayer();
  Rng rng(7);
  double recall = 0.0;
  const int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    Graph query = PerturbGraph(
        db.Get(static_cast<GraphId>(rng.NextBounded(40))), 1,
        db.num_labels(), &rng);
    SearchStats stats;
    DistanceOracle oracle(&db, &query, &ged, &stats);
    RoutingResult result = BeamSearchRoute(pg, &oracle, 0, 12, 5);
    KnnList truth = ComputeGroundTruth(db, query, 5, ged);
    recall += RecallAtK(result.results, truth, 5);
  }
  EXPECT_GE(recall / kQueries, 0.7);
}

// ---------- Sampled aggregation (Sec. II-C contrast) ----------

TEST(SampledAggregationTest, NoSamplingNeededWhenDegreeSmall) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(0);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  Rng rng(8);
  SparseMatrix sampled = SampledAggregationOperator(g, /*sample_size=*/4, &rng);
  SparseMatrix full = GnnGraph(g, 1).AggregationOperator();
  Matrix h = Matrix::XavierUniform(4, 3, &rng);
  EXPECT_LT(Matrix::MaxAbsDiff(sampled.Apply(h), full.Apply(h)), 1e-6f);
}

TEST(SampledAggregationTest, ChangesOutputsUnlikeCg) {
  // The paper's Sec. II-C point: sampling accelerates but does not
  // preserve the computation; the CG accelerates AND preserves it.
  Graph star;
  star.AddNode(0);
  for (int i = 0; i < 10; ++i) {
    star.AddNode(1);
    ASSERT_TRUE(star.AddEdge(0, star.NumNodes() - 1).ok());
  }
  Rng rng(9);
  SparseMatrix sampled = SampledAggregationOperator(star, 3, &rng);
  SparseMatrix full = GnnGraph(star, 1).AggregationOperator();
  // Row 0 has 3 sampled entries + self vs 10 + self.
  int64_t row0_sampled = 0, row0_full = 0;
  for (const auto& e : sampled.entries) row0_sampled += (e.row == 0);
  for (const auto& e : full.entries) row0_full += (e.row == 0);
  EXPECT_EQ(row0_sampled, 4);
  EXPECT_EQ(row0_full, 11);

  // With DISTINCT leaf values the sampled aggregate differs from exact...
  Matrix h(star.NumNodes(), 1);
  for (int32_t i = 0; i < h.rows(); ++i) h.at(i, 0) = static_cast<float>(i);
  EXPECT_GT(std::abs(sampled.Apply(h).at(0, 0) - full.Apply(h).at(0, 0)),
            1e-3f);
  // ...but it is unbiased in expectation over many samples.
  double mean = 0.0;
  const int kSamples = 400;
  for (int s = 0; s < kSamples; ++s) {
    mean += SampledAggregationOperator(star, 3, &rng).Apply(h).at(0, 0);
  }
  mean /= kSamples;
  EXPECT_NEAR(mean, full.Apply(h).at(0, 0), 4.0);
}

}  // namespace
}  // namespace lan
