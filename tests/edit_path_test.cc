#include <gtest/gtest.h>

#include "common/random.h"
#include "ged/edit_path.h"
#include "ged/ged_bipartite.h"
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

// ---------- Edit path extraction / application ----------

TEST(EditPathTest, IdentityMapYieldsEmptyPath) {
  Graph g = MakePath({0, 1, 2});
  NodeMapping id;
  id.image = {0, 1, 2};
  EXPECT_TRUE(ExtractEditPath(g, g, id).empty());
}

TEST(EditPathTest, RelabelOnly) {
  Graph a = MakePath({0, 1});
  Graph b = MakePath({0, 2});
  NodeMapping m;
  m.image = {0, 1};
  auto path = ExtractEditPath(a, b, m);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].kind, EditOpKind::kRelabelNode);
  auto applied = ApplyEditPath(a, path);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied == b);
}

TEST(EditPathTest, PathLengthEqualsMapCost) {
  Rng rng(1);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.num_labels = 3;
  for (int i = 0; i < 20; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    const ApproxGedResult approx = BipartiteGedHungarian(a, b);
    auto path = ExtractEditPath(a, b, approx.mapping);
    EXPECT_DOUBLE_EQ(static_cast<double>(path.size()), approx.distance);
  }
}

class EditPathPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EditPathPropertyTest, ApplyingPathReproducesTarget) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 11 + 2);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 7;
  spec.avg_edges = 9;
  spec.num_labels = 3;
  for (int i = 0; i < 10; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    // Any valid map must produce a path that lands exactly on b (up to
    // renumbering); use the Hungarian map and, when feasible, the exact.
    const ApproxGedResult approx = BipartiteGedHungarian(a, b);
    auto path = ExtractEditPath(a, b, approx.mapping);
    auto applied = ApplyEditPath(a, path);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->NumNodes(), b.NumNodes());
    EXPECT_EQ(applied->NumEdges(), b.NumEdges());
    EXPECT_TRUE(IsomorphicUpToRenumbering(*applied, b)) << "trial " << i;
  }
}

TEST_P(EditPathPropertyTest, ExactPathIsShortest) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 5);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 5;
  spec.avg_edges = 5;
  spec.num_labels = 2;
  for (int i = 0; i < 5; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    auto exact = ExactGed(a, b);
    ASSERT_TRUE(exact.ok());
    auto path = ExtractEditPath(a, b, exact->mapping);
    EXPECT_DOUBLE_EQ(static_cast<double>(path.size()), exact->distance);
    auto applied = ApplyEditPath(a, path);
    ASSERT_TRUE(applied.ok());
    EXPECT_TRUE(IsomorphicUpToRenumbering(*applied, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditPathPropertyTest, ::testing::Range(1, 5));

TEST(EditPathTest, ApplyRejectsBadOps) {
  Graph g = MakePath({0, 1});
  EXPECT_FALSE(
      ApplyEditPath(g, {{EditOpKind::kDeleteEdge, 0, 5, 0}}).ok());
  EXPECT_FALSE(
      ApplyEditPath(g, {{EditOpKind::kRelabelNode, 9, 0, 1}}).ok());
  EXPECT_FALSE(ApplyEditPath(g, {{EditOpKind::kInsertEdge, 0, 1, 0}}).ok());
}

TEST(EditPathTest, OpNamesAndToString) {
  EditOp op{EditOpKind::kInsertNode, 0, 0, 3};
  EXPECT_EQ(op.ToString(), "ins-node(label 3)");
  EXPECT_STREQ(EditOpKindName(EditOpKind::kDeleteEdge), "del-edge");
}

// ---------- Isomorphism helper ----------

TEST(IsomorphismTest, DetectsRenumbering) {
  Graph a = MakePath({0, 1, 2});
  Graph b;  // same path, nodes listed in reverse
  b.AddNode(2);
  b.AddNode(1);
  b.AddNode(0);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  EXPECT_TRUE(IsomorphicUpToRenumbering(a, b));
}

TEST(IsomorphismTest, RejectsDifferentLabels) {
  EXPECT_FALSE(
      IsomorphicUpToRenumbering(MakePath({0, 1, 2}), MakePath({0, 1, 1})));
}

TEST(IsomorphismTest, RejectsDifferentStructure) {
  Graph path = MakePath({0, 0, 0});
  Graph triangle = path;
  ASSERT_TRUE(triangle.AddEdge(0, 2).ok());
  EXPECT_FALSE(IsomorphicUpToRenumbering(path, triangle));
}

}  // namespace
}  // namespace lan
