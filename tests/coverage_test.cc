#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "ged/edit_path.h"
#include "ged/ged_computer.h"
#include "ged/ged_exact.h"
#include "gnn/embedding.h"
#include "gnn/hag.h"
#include "graph/graph_generator.h"
#include "lan/evaluation.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"
#include "pg/hnsw.h"

namespace lan {
namespace {

GedOptions FastGed() {
  GedOptions o;
  o.approximate_only = true;
  o.beam_width = 0;
  return o;
}

// ---------- Naming / formatting helpers ----------

TEST(NamesTest, AllEnumsPrintable) {
  EXPECT_STREQ(GedMethodName(GedMethod::kExact), "Exact");
  EXPECT_STREQ(GedMethodName(GedMethod::kVj), "VJ");
  EXPECT_STREQ(GedMethodName(GedMethod::kHungarian), "Hung");
  EXPECT_STREQ(GedMethodName(GedMethod::kBeam), "Beam");
  EXPECT_STREQ(DatasetKindName(DatasetKind::kAidsLike), "AIDS");
  EXPECT_STREQ(DatasetKindName(DatasetKind::kSynLike), "SYN");
  EXPECT_STREQ(RoutingMethodName(RoutingMethod::kLanRoute), "LAN_Route");
  EXPECT_STREQ(InitMethodName(InitMethod::kRandomIs), "Rand_IS");
  Graph g;
  g.AddNode(0);
  EXPECT_EQ(g.ToString(), "Graph(n=1, m=0)");
}

// ---------- GedComputer provenance ----------

TEST(GedProvenanceTest, ExactFlagAndMethodConsistent) {
  GedOptions options;
  options.exact_max_expansions = 1'000'000;
  GedComputer ged(options);
  Graph a;
  a.AddNode(0);
  Graph b;
  b.AddNode(1);
  GedValue v = ged.Compute(a, b);
  EXPECT_TRUE(v.exact);
  EXPECT_EQ(v.method, GedMethod::kExact);
  EXPECT_DOUBLE_EQ(v.distance, 1.0);

  GedOptions approx = FastGed();
  GedComputer ged2(approx);
  GedValue v2 = ged2.Compute(a, b);
  EXPECT_FALSE(v2.exact);
  EXPECT_NE(v2.method, GedMethod::kExact);
}

// ---------- Fig. 2 exact edit path ----------

TEST(EditPathTest, Figure2OptimalPathHasFiveOps) {
  Graph g;  // star A(B,B,B)
  g.AddNode(0);
  for (int i = 0; i < 3; ++i) g.AddNode(1);
  for (NodeId v = 1; v <= 3; ++v) ASSERT_TRUE(g.AddEdge(0, v).ok());
  Graph q;  // path A-B-A
  q.AddNode(0);
  q.AddNode(1);
  q.AddNode(0);
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  ASSERT_TRUE(q.AddEdge(1, 2).ok());

  auto exact = ExactGed(g, q);
  ASSERT_TRUE(exact.ok());
  auto path = ExtractEditPath(g, q, exact->mapping);
  EXPECT_EQ(path.size(), 5u);  // Example 1: d(G, Q) = 5
  auto applied = ApplyEditPath(g, path);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(IsomorphicUpToRenumbering(*applied, q));
}

// ---------- HNSW diversity selection ----------

TEST(HnswHeuristicTest, DiversitySelectionSearchable) {
  DatasetSpec spec = DatasetSpec::SynLike(50);
  GraphDatabase db = GenerateDatabase(spec, 60);
  GedComputer ged(FastGed());
  HnswOptions options;
  options.M = 4;
  options.ef_construction = 16;
  HnswIndex index = HnswIndex::Build(db, ged, options);
  // Degree cap respected (undirected union can exceed the per-list cap,
  // but not the sum of both lists' caps).
  for (GraphId id = 0; id < db.size(); ++id) {
    EXPECT_LE(index.BaseLayer().Degree(id), 6 * options.M);
  }
  Rng rng(61);
  Graph query = PerturbGraph(db.Get(7), 1, db.num_labels(), &rng);
  SearchStats stats;
  DistanceOracle oracle(&db, &query, &ged, &stats);
  RoutingResult result = index.Search(&oracle, 12, 5);
  KnnList truth = ComputeGroundTruth(db, query, 5, ged);
  EXPECT_GE(RecallAtK(result.results, truth, 5), 0.6);
}

// ---------- HAG bookkeeping ----------

TEST(HagTest, AddCountsConsistentWithExecution) {
  Rng rng(62);
  DatasetSpec spec = DatasetSpec::AidsLike(1);
  Graph g = GenerateGraph(spec, &rng);
  HagPlan plan(g);
  EXPECT_GE(plan.NaiveNumAdds(), plan.NumAdds() - plan.NumSharedSums());
  // Execution still matches the naive aggregation (already covered for SYN
  // in gnn_test; here on a molecule-like graph).
  Matrix h = Matrix::XavierUniform(g.NumNodes(), 4, &rng);
  Matrix expected(g.NumNodes(), 4);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (int32_t j = 0; j < 4; ++j) expected.at(u, j) = h.at(u, j);
    for (NodeId v : g.Neighbors(u)) {
      for (int32_t j = 0; j < 4; ++j) expected.at(u, j) += h.at(v, j);
    }
  }
  EXPECT_LT(Matrix::MaxAbsDiff(plan.Aggregate(h), expected), 1e-4f);
}

// ---------- Embedding database ----------

TEST(EmbeddingTest, DatabaseEmbeddingAligned) {
  DatasetSpec spec = DatasetSpec::SynLike(15);
  GraphDatabase db = GenerateDatabase(spec, 63);
  EmbeddingOptions options;
  options.dim = 24;
  options.num_labels = db.num_labels();
  const EmbeddingMatrix embeddings = EmbedDatabase(db, options);
  ASSERT_EQ(embeddings.rows(), static_cast<int64_t>(db.size()));
  ASSERT_EQ(embeddings.dim(), options.dim);
  for (GraphId id = 0; id < db.size(); ++id) {
    const std::span<const float> row = embeddings.Row(id);
    EXPECT_EQ(std::vector<float>(row.begin(), row.end()),
              EmbedGraph(db.Get(id), options));
  }
}

// ---------- Curve printing smoke ----------

TEST(EvaluationPrintTest, CurvesPrintWithoutCrashing) {
  MethodCurve curve;
  curve.method = "smoke";
  SweepPoint p;
  p.beam = 8;
  p.recall = 0.5;
  p.qps = 1.25;
  curve.points.push_back(p);
  PrintCurveHeader(10);
  PrintCurve(curve, 10);
  SUCCEED();
}

// ---------- Generator determinism across kinds ----------

TEST(GeneratorTest, KindsProduceDistinctStructure) {
  Rng rng(64);
  Graph molecule = GenerateGraph(DatasetSpec::AidsLike(1), &rng);
  Graph cfg = GenerateGraph(DatasetSpec::LinuxLike(1), &rng);
  Graph syn = GenerateGraph(DatasetSpec::SynLike(1), &rng);
  // Molecules bounded by valence 4; SYN small and dense.
  for (NodeId v = 0; v < molecule.NumNodes(); ++v) {
    EXPECT_LE(molecule.Degree(v), 4);
  }
  EXPECT_LT(syn.NumNodes(), cfg.NumNodes());
  const double syn_density =
      static_cast<double>(syn.NumEdges()) / syn.NumNodes();
  const double cfg_density =
      static_cast<double>(cfg.NumEdges()) / cfg.NumNodes();
  EXPECT_GT(syn_density, cfg_density);
}

}  // namespace
}  // namespace lan
