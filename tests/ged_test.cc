#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_computer.h"
#include "ged/ged_exact.h"
#include "ged/ged_lower_bounds.h"
#include "ged/node_mapping.h"
#include "graph/graph_generator.h"

namespace lan {
namespace {

Graph MakePath(const std::vector<Label>& labels) {
  Graph g;
  for (Label l : labels) g.AddNode(l);
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    EXPECT_TRUE(g.AddEdge(v - 1, v).ok());
  }
  return g;
}

Graph Star(Label center, Label leaf, int leaves) {
  Graph g;
  g.AddNode(center);
  for (int i = 0; i < leaves; ++i) {
    g.AddNode(leaf);
    EXPECT_TRUE(g.AddEdge(0, g.NumNodes() - 1).ok());
  }
  return g;
}

double Exact(const Graph& a, const Graph& b) {
  ExactGedOptions options;
  options.max_expansions = 5'000'000;
  auto r = ExactGed(a, b, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->distance : -1.0;
}

// ---------- MapCost ----------

TEST(NodeMappingTest, IdentityMapCostZero) {
  Graph g = MakePath({0, 1, 2});
  NodeMapping id;
  id.image = {0, 1, 2};
  EXPECT_DOUBLE_EQ(MapCost(g, g, id), 0.0);
}

TEST(NodeMappingTest, RelabelCost) {
  Graph a = MakePath({0, 1});
  Graph b = MakePath({0, 2});
  NodeMapping m;
  m.image = {0, 1};
  EXPECT_DOUBLE_EQ(MapCost(a, b, m), 1.0);
}

TEST(NodeMappingTest, DeletionCountsNodeAndEdges) {
  Graph a = Star(0, 1, 3);  // 4 nodes, 3 edges
  Graph b;
  b.AddNode(0);
  NodeMapping m;
  m.image = {0, kEpsilon, kEpsilon, kEpsilon};
  // 3 node deletions + 3 edge deletions.
  EXPECT_DOUBLE_EQ(MapCost(a, b, m), 6.0);
}

TEST(NodeMappingTest, InsertionCountsUnmatched) {
  Graph a;
  a.AddNode(0);
  Graph b = MakePath({0, 1});
  NodeMapping m;
  m.image = {0};
  // 1 node insertion + 1 edge insertion.
  EXPECT_DOUBLE_EQ(MapCost(a, b, m), 2.0);
}

TEST(NodeMappingTest, ValidityChecks) {
  NodeMapping m;
  m.image = {0, 0};
  EXPECT_FALSE(m.IsValid(3));  // duplicate image
  m.image = {0, 5};
  EXPECT_FALSE(m.IsValid(3));  // out of range
  m.image = {kEpsilon, 1};
  EXPECT_TRUE(m.IsValid(3));
}

// ---------- Exact GED ----------

TEST(ExactGedTest, IdenticalGraphsZero) {
  Graph g = MakePath({0, 1, 2, 1});
  EXPECT_DOUBLE_EQ(Exact(g, g), 0.0);
}

TEST(ExactGedTest, SingleRelabel) {
  EXPECT_DOUBLE_EQ(Exact(MakePath({0, 1, 2}), MakePath({0, 1, 3})), 1.0);
}

TEST(ExactGedTest, SingleEdgeInsertion) {
  Graph path = MakePath({0, 0, 0});
  Graph triangle = path;
  ASSERT_TRUE(triangle.AddEdge(0, 2).ok());
  EXPECT_DOUBLE_EQ(Exact(path, triangle), 1.0);
}

TEST(ExactGedTest, NodeInsertionWithEdge) {
  EXPECT_DOUBLE_EQ(Exact(MakePath({0, 1}), MakePath({0, 1, 1})), 2.0);
}

TEST(ExactGedTest, PaperFigure2ExampleIsFive) {
  // Fig. 2: star A(B,B,B) vs path A-B-A; Example 1 states d(G,Q) = 5.
  Graph g = Star(/*center=*/0, /*leaf=*/1, /*leaves=*/3);
  Graph q;
  q.AddNode(0);  // A
  q.AddNode(1);  // B
  q.AddNode(0);  // A
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  ASSERT_TRUE(q.AddEdge(1, 2).ok());
  EXPECT_DOUBLE_EQ(Exact(g, q), 5.0);
}

TEST(ExactGedTest, SymmetricInArguments) {
  Rng rng(21);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 8;
  for (int i = 0; i < 5; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    EXPECT_DOUBLE_EQ(Exact(a, b), Exact(b, a));
  }
}

TEST(ExactGedTest, EmptyVersusGraph) {
  Graph empty;
  Graph g = MakePath({0, 1});
  auto r = ExactGed(empty, g);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->distance, 3.0);  // 2 node + 1 edge insertions
}

TEST(ExactGedTest, TimeoutReported) {
  // A pair whose proof takes more than 50 expansions: capped at 50, A*
  // reports Timeout, the same way on every run.
  Rng rng(5);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 10;
  spec.avg_edges = 14;
  Graph a = GenerateGraph(spec, &rng);
  Graph b = GenerateGraph(spec, &rng);
  ExactGedOptions generous;
  generous.max_expansions = 5'000'000;
  const auto proven = ExactGed(a, b, generous);
  ASSERT_TRUE(proven.ok()) << proven.status().ToString();
  ASSERT_GT(proven->expansions, 50);

  ExactGedOptions capped;
  capped.max_expansions = 50;
  const auto first = ExactGed(a, b, capped);
  const auto second = ExactGed(a, b, capped);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(second.status().ToString(), first.status().ToString());

  const auto again = ExactGed(a, b, generous);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->expansions, proven->expansions);
  EXPECT_EQ(again->distance, proven->distance);
}

TEST(ExactGedTest, MappingAchievesReportedDistance) {
  Rng rng(31);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 7;
  for (int i = 0; i < 10; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    auto r = ExactGed(a, b);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(MapCost(a, b, r->mapping), r->distance);
  }
}

TEST(ExactGedTest, UpperBoundPruningPreservesOptimum) {
  Rng rng(32);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 7;
  for (int i = 0; i < 10; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    const double base = Exact(a, b);
    ExactGedOptions options;
    options.upper_bound = BipartiteGedHungarian(a, b).distance;
    auto pruned = ExactGed(a, b, options);
    ASSERT_TRUE(pruned.ok());
    EXPECT_DOUBLE_EQ(pruned->distance, base);
  }
}

// ---------- Properties: metric, bounds ----------

class GedPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GedPropertyTest, ApproximationsAreUpperBoundsAndLowerBoundsHold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 3);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 7;
  spec.num_labels = 3;
  for (int i = 0; i < 8; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    const double exact = Exact(a, b);

    const double vj = BipartiteGedVj(a, b).distance;
    const double hung = BipartiteGedHungarian(a, b).distance;
    const double beam = BeamGed(a, b, 8).distance;
    EXPECT_GE(vj + 1e-9, exact);
    EXPECT_GE(hung + 1e-9, exact);
    EXPECT_GE(beam + 1e-9, exact);

    EXPECT_LE(LabelMultisetLowerBound(a, b), exact + 1e-9);
    EXPECT_LE(SizeLowerBound(a, b), exact + 1e-9);
    EXPECT_LE(DegreeLowerBound(a, b), exact + 1e-9);
    EXPECT_LE(BestLowerBound(a, b), exact + 1e-9);
  }
}

TEST_P(GedPropertyTest, TriangleInequality) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 11);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 5;
  spec.avg_edges = 5;
  spec.num_labels = 2;
  for (int i = 0; i < 4; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    Graph c = GenerateGraph(spec, &rng);
    const double ab = Exact(a, b);
    const double bc = Exact(b, c);
    const double ac = Exact(a, c);
    EXPECT_LE(ac, ab + bc + 1e-9);
  }
}

TEST_P(GedPropertyTest, PerturbationBoundsDistance) {
  // k edits can never move a graph further than k.
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 7);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 7;
  for (int i = 0; i < 6; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    const int edits = static_cast<int>(rng.NextInt(0, 3));
    Graph b = PerturbGraph(a, edits, spec.num_labels, &rng);
    // Node deletions also delete incident edges: each edit costs at most
    // 1 + max-degree operations.
    int32_t max_deg = 0;
    for (NodeId v = 0; v < a.NumNodes(); ++v) {
      max_deg = std::max(max_deg, a.Degree(v));
    }
    EXPECT_LE(Exact(a, b), static_cast<double>(edits) * (1.0 + max_deg));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GedPropertyTest, ::testing::Range(1, 6));

// ---------- GedComputer ----------

TEST(GedComputerTest, ExactWhenBudgetAllows) {
  GedOptions options;
  options.exact_max_expansions = 1'000'000;
  GedComputer ged(options);
  Graph a = MakePath({0, 1, 2});
  Graph b = MakePath({0, 1, 3});
  GedValue v = ged.Compute(a, b);
  EXPECT_TRUE(v.exact);
  EXPECT_EQ(v.method, GedMethod::kExact);
  EXPECT_DOUBLE_EQ(v.distance, 1.0);
}

TEST(GedComputerTest, ApproximateOnlySkipsExact) {
  GedOptions options;
  options.approximate_only = true;
  GedComputer ged(options);
  GedValue v = ged.Compute(MakePath({0, 1}), MakePath({0, 2}));
  EXPECT_FALSE(v.exact);
  EXPECT_GE(v.distance, 1.0);
}

TEST(GedComputerTest, ProtocolNeverBelowExact) {
  Rng rng(41);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 7;
  GedComputer fallback([] {
    GedOptions o;
    o.approximate_only = true;
    return o;
  }());
  for (int i = 0; i < 10; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    EXPECT_GE(fallback.Distance(a, b) + 1e-9, Exact(a, b));
  }
}

// GedComputer{} is the protocol lanbench pins: gap 3 and 10k expansions,
// with no wall-clock budget to set. On perturbed AIDS- and SYN-like pairs,
// some of which pass the gap gate and reach A*, it returns the same value,
// tier and exactness as those options spelled out.
TEST(GedComputerTest, DefaultIsThePinnedProtocol) {
  GedOptions pinned_options;
  pinned_options.skip_exact_gap = 3.0;
  pinned_options.exact_max_expansions = 10'000;
  const GedComputer pinned(pinned_options);
  const GedComputer by_default;
  for (const DatasetSpec& spec :
       {DatasetSpec::AidsLike(12), DatasetSpec::SynLike(12)}) {
    const GraphDatabase db = GenerateDatabase(spec, 61);
    Rng rng(62);
    int gated = 0;
    int exact = 0;
    for (GraphId qid = 0; qid < db.size(); qid += 3) {
      const Graph query = PerturbGraph(
          db.Get(qid), static_cast<int>(rng.NextInt(1, 3)), db.num_labels(),
          &rng);
      for (GraphId id = 0; id < db.size(); ++id) {
        const Graph& g = db.Get(id);
        const GedValue want = pinned.Compute(query, g);
        const GedValue got = by_default.Compute(query, g);
        const char* kind = DatasetKindName(spec.kind);
        EXPECT_EQ(got.distance, want.distance) << kind << " " << id;
        EXPECT_EQ(got.method, want.method) << kind << " " << id;
        EXPECT_EQ(got.exact, want.exact) << kind << " " << id;
        const double best =
            std::min({BipartiteGedVj(query, g).distance,
                      BipartiteGedHungarian(query, g).distance,
                      BeamGed(query, g, 4).distance});
        if (best - BestLowerBound(query, g) <= 3.0) ++gated;
        if (got.method == GedMethod::kExact) ++exact;
      }
    }
    EXPECT_GT(gated, 0) << DatasetKindName(spec.kind);
    EXPECT_GT(exact, 0) << DatasetKindName(spec.kind);
  }
}

TEST(GedComputerTest, DistanceOfSelfIsZero) {
  GedComputer ged;
  Rng rng(51);
  DatasetSpec spec = DatasetSpec::AidsLike(1);
  Graph g = GenerateGraph(spec, &rng);
  EXPECT_DOUBLE_EQ(ged.Distance(g, g), 0.0);
}

}  // namespace
}  // namespace lan
