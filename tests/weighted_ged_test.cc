#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "common/random.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_computer.h"
#include "ged/ged_exact.h"
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

double ExactWeighted(const Graph& a, const Graph& b, const GedCosts& costs) {
  ExactGedOptions options;
  options.max_expansions = 5'000'000;
  options.costs = costs;
  auto r = ExactGed(a, b, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->distance : -1.0;
}

/// Exhaustive reference: minimum weighted MapCost over every complete map
/// (injective with ε), for tiny graphs.
double BruteForceWeighted(const Graph& a, const Graph& b,
                          const GedCosts& costs) {
  double best = std::numeric_limits<double>::infinity();
  NodeMapping map;
  map.image.assign(static_cast<size_t>(a.NumNodes()), kEpsilon);
  std::vector<bool> used(static_cast<size_t>(b.NumNodes()), false);
  std::function<void(NodeId)> recurse = [&](NodeId u) {
    if (u == a.NumNodes()) {
      best = std::min(best, MapCost(a, b, map, costs));
      return;
    }
    map.image[static_cast<size_t>(u)] = kEpsilon;
    recurse(u + 1);
    for (NodeId v = 0; v < b.NumNodes(); ++v) {
      if (used[static_cast<size_t>(v)]) continue;
      used[static_cast<size_t>(v)] = true;
      map.image[static_cast<size_t>(u)] = v;
      recurse(u + 1);
      map.image[static_cast<size_t>(u)] = kEpsilon;
      used[static_cast<size_t>(v)] = false;
    }
  };
  recurse(0);
  return best;
}

// ---------- GedCosts ----------

TEST(GedCostsTest, UniformAndValidation) {
  GedCosts uniform = GedCosts::Uniform();
  EXPECT_TRUE(uniform.IsUniform());
  EXPECT_TRUE(uniform.Validate().ok());
  GedCosts weighted;
  weighted.node_relabel = 2.5;
  EXPECT_FALSE(weighted.IsUniform());
  EXPECT_TRUE(weighted.Validate().ok());
  GedCosts negative;
  negative.edge_insert = -1.0;
  EXPECT_FALSE(negative.Validate().ok());
  GedCosts degenerate;
  degenerate.node_insert = 0.0;
  EXPECT_FALSE(degenerate.Validate().ok());
}

TEST(GedCostsTest, SwappedExchangesInsertDelete) {
  GedCosts costs;
  costs.node_insert = 2.0;
  costs.node_delete = 3.0;
  costs.edge_insert = 4.0;
  costs.edge_delete = 5.0;
  GedCosts s = costs.Swapped();
  EXPECT_DOUBLE_EQ(s.node_insert, 3.0);
  EXPECT_DOUBLE_EQ(s.node_delete, 2.0);
  EXPECT_DOUBLE_EQ(s.edge_insert, 5.0);
  EXPECT_DOUBLE_EQ(s.edge_delete, 4.0);
  EXPECT_DOUBLE_EQ(s.node_relabel, costs.node_relabel);
}

// ---------- Weighted MapCost ----------

TEST(WeightedMapCostTest, ChargesPerOperationKind) {
  // Star(A; B,B,B) -> path A-B-A (the Fig. 2 pair): the uniform-optimal
  // path is 1 node deletion, 1 edge deletion, 3 relabels... for this map:
  Graph g;  // star
  g.AddNode(0);
  for (int i = 0; i < 3; ++i) g.AddNode(1);
  for (NodeId v = 1; v <= 3; ++v) ASSERT_TRUE(g.AddEdge(0, v).ok());
  Graph q = MakePath({0, 1, 0});
  NodeMapping map;
  map.image = {1, 0, 2, kEpsilon};  // v0->u1, v1->u0, v2->u2, v3 deleted
  // Uniform: relabel v0(A->B) + relabel v1(B->A) + relabel v2(B->A)
  //          + delete v3 + delete edge (v0,v3) = 5.
  EXPECT_DOUBLE_EQ(MapCost(g, q, map), 5.0);
  GedCosts costs;
  costs.node_relabel = 10.0;
  costs.node_delete = 2.0;
  costs.edge_delete = 3.0;
  EXPECT_DOUBLE_EQ(MapCost(g, q, map, costs), 3 * 10.0 + 2.0 + 3.0);
}

// ---------- Weighted exact GED ----------

TEST(WeightedExactGedTest, RelabelVsDeleteInsertTradeoff) {
  // A-B -> A-C: uniform optimum is one relabel (distance 1). When
  // relabeling costs more than delete+insert(+edges), the optimum flips to
  // replacing the node.
  Graph a = MakePath({0, 1});
  Graph b = MakePath({0, 2});
  EXPECT_DOUBLE_EQ(ExactWeighted(a, b, GedCosts::Uniform()), 1.0);

  GedCosts cheap_replace;
  cheap_replace.node_relabel = 10.0;  // replace: del B + del edge + ins C +
                                      // ins edge = 4 < 10
  EXPECT_DOUBLE_EQ(ExactWeighted(a, b, cheap_replace), 4.0);

  GedCosts cheap_relabel;
  cheap_relabel.node_relabel = 0.5;
  EXPECT_DOUBLE_EQ(ExactWeighted(a, b, cheap_relabel), 0.5);
}

class WeightedGedPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WeightedGedPropertyTest, ExactMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 19 + 7);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 4;
  spec.avg_edges = 4;
  spec.num_labels = 2;
  for (int i = 0; i < 6; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    if (a.NumNodes() > 5 || b.NumNodes() > 5) continue;  // brute-force limit
    GedCosts costs;
    costs.node_insert = 0.5 + rng.NextDouble() * 2;
    costs.node_delete = 0.5 + rng.NextDouble() * 2;
    costs.node_relabel = rng.NextDouble() * 3;
    costs.edge_insert = rng.NextDouble() * 2;
    costs.edge_delete = rng.NextDouble() * 2;
    const double exact = ExactWeighted(a, b, costs);
    const double brute = BruteForceWeighted(a, b, costs);
    EXPECT_NEAR(exact, brute, 1e-9) << "trial " << i;
  }
}

TEST_P(WeightedGedPropertyTest, ApproximationsRemainUpperBounds) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 23 + 11);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 7;
  for (int i = 0; i < 6; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    GedCosts costs;
    costs.node_relabel = 2.0;
    costs.edge_insert = 0.5;
    const double exact = ExactWeighted(a, b, costs);
    EXPECT_GE(BipartiteGedHungarian(a, b, costs).distance + 1e-9, exact);
    EXPECT_GE(BipartiteGedVj(a, b, costs).distance + 1e-9, exact);
    EXPECT_GE(BeamGed(a, b, 8, costs).distance + 1e-9, exact);
  }
}

TEST_P(WeightedGedPropertyTest, SymmetricCostsGiveSymmetricDistance) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 29 + 13);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 5;
  spec.avg_edges = 5;
  GedCosts costs;  // symmetric: insert == delete on nodes and edges
  costs.node_insert = costs.node_delete = 1.5;
  costs.edge_insert = costs.edge_delete = 0.75;
  costs.node_relabel = 1.25;
  for (int i = 0; i < 4; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    EXPECT_NEAR(ExactWeighted(a, b, costs), ExactWeighted(b, a, costs), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedGedPropertyTest, ::testing::Range(1, 5));

// ---------- GedComputer with costs ----------

TEST(WeightedGedComputerTest, ProtocolRespectsCosts) {
  GedOptions options;
  options.exact_max_expansions = 1'000'000;
  options.costs.node_relabel = 10.0;
  GedComputer ged(options);
  Graph a = MakePath({0, 1});
  Graph b = MakePath({0, 2});
  // The replace path costs 4 (see above); with relabel at 10 the protocol
  // must report 4, not 1.
  EXPECT_DOUBLE_EQ(ged.Distance(a, b), 4.0);
}

TEST(WeightedGedComputerTest, GapSkipStillSoundUnderWeights) {
  GedOptions options;
  options.skip_exact_gap = 2.0;
  options.costs.node_relabel = 0.25;  // min cost scales the LB
  GedComputer ged(options);
  Rng rng(3);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 5;
  spec.avg_edges = 5;
  Graph a = GenerateGraph(spec, &rng);
  Graph b = GenerateGraph(spec, &rng);
  // Whatever path is taken, the result is a valid upper bound of the
  // weighted optimum.
  GedCosts costs = options.costs;
  const double reported = ged.Distance(a, b);
  const double exact = ExactWeighted(a, b, costs);
  EXPECT_GE(reported + 1e-9, exact);
}

}  // namespace
}  // namespace lan
