#include <gtest/gtest.h>

#include "common/random.h"
#include "ged/ged_dfs.h"
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

ExactGedOptions Generous() {
  ExactGedOptions o;
  o.time_budget_seconds = 5.0;
  o.max_expansions = 5'000'000;
  return o;
}

// ---------- DF-GED ----------

TEST(DfsGedTest, KnownSmallCases) {
  auto dfs = [](const Graph& a, const Graph& b) {
    auto r = DfsGed(a, b, Generous());
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->distance : -1.0;
  };
  Graph g = MakePath({0, 1, 2});
  EXPECT_DOUBLE_EQ(dfs(g, g), 0.0);
  EXPECT_DOUBLE_EQ(dfs(g, MakePath({0, 1, 3})), 1.0);
  EXPECT_DOUBLE_EQ(dfs(MakePath({0, 1}), MakePath({0, 1, 1})), 2.0);
  Graph empty;
  EXPECT_DOUBLE_EQ(dfs(empty, MakePath({0, 1})), 3.0);
}

class DfsVsAStarTest : public ::testing::TestWithParam<int> {};

TEST_P(DfsVsAStarTest, AgreesWithAStarOnRandomPairs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 7;
  spec.num_labels = 3;
  for (int i = 0; i < 10; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    auto astar = ExactGed(a, b, Generous());
    auto dfs = DfsGed(a, b, Generous());
    ASSERT_TRUE(astar.ok());
    ASSERT_TRUE(dfs.ok());
    EXPECT_DOUBLE_EQ(dfs->distance, astar->distance) << "pair " << i;
    // DF-GED's incumbent map (when present) achieves the distance.
    if (!dfs->mapping.image.empty()) {
      EXPECT_DOUBLE_EQ(MapCost(a, b, dfs->mapping), dfs->distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsVsAStarTest, ::testing::Range(1, 6));

TEST(DfsGedTest, TimeoutReportedOnHardPair) {
  Rng rng(7);
  DatasetSpec spec = DatasetSpec::AidsLike(1);
  Graph a = GenerateGraph(spec, &rng);
  Graph b = GenerateGraph(spec, &rng);
  ExactGedOptions options;
  options.max_expansions = 100;
  options.time_budget_seconds = 0.0;
  auto r = DfsGed(a, b, options);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  }
}

TEST(DfsGedTest, CallerBoundTightensSearch) {
  Rng rng(8);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 7;
  Graph a = GenerateGraph(spec, &rng);
  Graph b = GenerateGraph(spec, &rng);
  auto unbounded = DfsGed(a, b, Generous());
  ASSERT_TRUE(unbounded.ok());
  ExactGedOptions bounded = Generous();
  bounded.upper_bound = unbounded->distance;
  auto r = DfsGed(a, b, bounded);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->distance, unbounded->distance);
  EXPECT_LE(r->expansions, unbounded->expansions);
}

}  // namespace
}  // namespace lan
