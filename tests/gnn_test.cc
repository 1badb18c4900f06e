#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "gnn/compressed_gnn_graph.h"
#include "gnn/cross_graph.h"
#include "gnn/embedding.h"
#include "gnn/embedding_matrix.h"
#include "gnn/gin.h"
#include "gnn/gnn_graph.h"
#include "gnn/hag.h"
#include "graph/graph_generator.h"
#include "graph/wl_labeling.h"

namespace lan {
namespace {

/// Fig. 2(a): star, v0 labeled A(=0), v1..v3 labeled B(=1).
Graph Figure2G() {
  Graph g;
  g.AddNode(0);
  for (int i = 0; i < 3; ++i) g.AddNode(1);
  for (NodeId v = 1; v <= 3; ++v) EXPECT_TRUE(g.AddEdge(0, v).ok());
  return g;
}

/// Fig. 2(b): path u0(A) - u1(B) - u2(A).
Graph Figure2Q() {
  Graph q;
  q.AddNode(0);
  q.AddNode(1);
  q.AddNode(0);
  EXPECT_TRUE(q.AddEdge(0, 1).ok());
  EXPECT_TRUE(q.AddEdge(1, 2).ok());
  return q;
}

// ---------- GNN-graph ----------

TEST(GnnGraphTest, Counts) {
  Graph g = Figure2G();  // 4 nodes, 3 edges
  GnnGraph gnn(g, 2);
  EXPECT_EQ(gnn.NumNodes(), 12);            // 3 levels x 4
  EXPECT_EQ(gnn.NumEdges(), 2 * (6 + 4));   // per transition: 2|E| + |V|
}

TEST(GnnGraphTest, AggregationOperatorSumsSelfPlusNeighbors) {
  Graph g = Figure2G();
  SparseMatrix s = GnnGraph(g, 1).AggregationOperator();
  Matrix h(4, 1);
  for (int i = 0; i < 4; ++i) h.at(i, 0) = static_cast<float>(i + 1);
  Matrix out = s.Apply(h);
  // v0: self(1) + v1(2)+v2(3)+v3(4) = 10; v1: 2 + 1 = 3.
  EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 3.0f);
}

// ---------- Compressed GNN-graph (Definition 2 / Algorithm 5) ----------

TEST(CompressedGnnGraphTest, Figure4Example) {
  // Example 4: both levels have two groups; weights w(g00,g10)=1,
  // w(g01,g10)=3 (v0's self + 3 B-neighbors)...
  CompressedGnnGraph cg = BuildCompressedGnnGraph(Figure2G(), 2);
  ASSERT_EQ(cg.num_layers, 2);
  EXPECT_EQ(cg.NumGroups(0), 2);
  EXPECT_EQ(cg.NumGroups(1), 2);
  EXPECT_EQ(cg.NumGroups(2), 2);

  // Identify the group of v0 at each level.
  const int32_t g0_v0 = cg.node_group[0][0];
  const int32_t g1_v0 = cg.node_group[1][0];
  EXPECT_EQ(cg.group_size[0][static_cast<size_t>(g0_v0)], 1);
  EXPECT_EQ(cg.group_size[0][static_cast<size_t>(1 - g0_v0)], 3);

  // Weights into v0's level-1 group.
  float w_from_v0_group = 0, w_from_leaf_group = 0;
  for (const auto& e : cg.aggregation[0].entries) {
    if (e.row == g1_v0) {
      if (e.col == g0_v0) {
        w_from_v0_group = e.weight;
      } else {
        w_from_leaf_group = e.weight;
      }
    }
  }
  EXPECT_FLOAT_EQ(w_from_v0_group, 1.0f);   // self edge
  EXPECT_FLOAT_EQ(w_from_leaf_group, 3.0f);  // three B neighbors
}

TEST(CompressedGnnGraphTest, QueryFromFigure4) {
  CompressedGnnGraph cg = BuildCompressedGnnGraph(Figure2Q(), 2);
  // Groups {u0,u2} (A ends) and {u1} (B middle), sizes 2 and 1.
  EXPECT_EQ(cg.NumGroups(0), 2);
  const int32_t ends = cg.node_group[0][0];
  EXPECT_EQ(cg.group_size[0][static_cast<size_t>(ends)], 2);
  auto weights = cg.TopLevelWeights();
  std::sort(weights.begin(), weights.end());
  EXPECT_EQ(weights, (std::vector<float>{1.0f, 2.0f}));
}

TEST(CompressedGnnGraphTest, CompressionNeverExpands) {
  // Corollary 1 structure side: |V(H*)| <= |V(H)| and |E(H*)| <= |E(H)|.
  Rng rng(12);
  DatasetSpec spec = DatasetSpec::AidsLike(1);
  for (int i = 0; i < 10; ++i) {
    Graph g = GenerateGraph(spec, &rng);
    const int layers = 2;
    GnnGraph gnn(g, layers);
    CompressedGnnGraph cg = BuildCompressedGnnGraph(g, layers);
    EXPECT_LE(cg.NumNodes(), gnn.NumNodes());
    EXPECT_LE(cg.NumEdges(), gnn.NumEdges());
    // Group sizes at each level sum to |V|.
    for (int l = 0; l <= layers; ++l) {
      int32_t total = 0;
      for (int32_t s : cg.group_size[static_cast<size_t>(l)]) total += s;
      EXPECT_EQ(total, g.NumNodes());
    }
  }
}

TEST(CompressedGnnGraphTest, GroupsMatchWlEquivalenceExactly) {
  // Theorem 4: grouping by WL labels is the optimum; check the CG groups
  // are precisely the WL classes.
  Rng rng(13);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  for (int i = 0; i < 10; ++i) {
    Graph g = GenerateGraph(spec, &rng);
    auto wl = ComputeWlLabels(g, 2);
    CompressedGnnGraph cg = BuildCompressedGnnGraph(g, 2);
    for (int l = 0; l <= 2; ++l) {
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          const bool same_wl = wl[static_cast<size_t>(l)][static_cast<size_t>(u)] ==
                               wl[static_cast<size_t>(l)][static_cast<size_t>(v)];
          const bool same_group =
              cg.node_group[static_cast<size_t>(l)][static_cast<size_t>(u)] ==
              cg.node_group[static_cast<size_t>(l)][static_cast<size_t>(v)];
          EXPECT_EQ(same_wl, same_group);
        }
      }
    }
  }
}

// ---------- GIN ----------

TEST(GinTest, WlEquivalentNodesShareEmbeddings) {
  Rng rng(14);
  ParamStore store;
  GinEncoder gin(2, {8, 8}, &store, &rng);
  Graph g = Figure2G();
  Tape tape;
  VarId nodes = gin.ForwardNodes(&tape, g);
  const Matrix& h = tape.value(nodes);
  // Leaves v1,v2,v3 are WL-equivalent.
  for (int32_t j = 0; j < h.cols(); ++j) {
    EXPECT_FLOAT_EQ(h.at(1, j), h.at(2, j));
    EXPECT_FLOAT_EQ(h.at(2, j), h.at(3, j));
  }
}

TEST(GinTest, CompressedEqualsRaw) {
  // GIN on the CG equals GIN on the raw graph (WL/GIN equivalence).
  Rng rng(15);
  ParamStore store;
  GinEncoder gin(5, {16, 16}, &store, &rng);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  Rng grng(16);
  for (int i = 0; i < 10; ++i) {
    Graph g = GenerateGraph(spec, &grng);
    CompressedGnnGraph cg = BuildCompressedGnnGraph(g, 2);
    Tape tape(/*inference_mode=*/true);
    const Matrix raw = tape.value(gin.ForwardGraph(&tape, g));
    const Matrix compressed =
        tape.value(gin.ForwardGraphCompressed(&tape, cg));
    EXPECT_LT(Matrix::MaxAbsDiff(raw, compressed), 1e-4f) << "graph " << i;
  }
}

// ---------- Cross-graph learning (Definitions 1 & 3, Theorem 2) ----------

TEST(CrossGraphTest, Theorem2CompressedEqualsRaw) {
  Rng rng(17);
  ParamStore store;
  CrossGraphEncoder cross(51, {16, 16}, &store, &rng);
  DatasetSpec spec = DatasetSpec::AidsLike(1);
  Rng grng(18);
  for (int i = 0; i < 8; ++i) {
    Graph g = GenerateGraph(spec, &grng);
    Graph q = GenerateGraph(spec, &grng);
    CompressedGnnGraph gcg = BuildCompressedGnnGraph(g, 2);
    CompressedGnnGraph qcg = BuildCompressedGnnGraph(q, 2);
    Tape tape(/*inference_mode=*/true);
    const Matrix raw = tape.value(cross.Forward(&tape, g, q));
    const Matrix compressed =
        tape.value(cross.ForwardCompressed(&tape, gcg, qcg));
    ASSERT_TRUE(raw.SameShape(compressed));
    EXPECT_LT(Matrix::MaxAbsDiff(raw, compressed), 1e-3f) << "pair " << i;
  }
}

TEST(CrossGraphTest, Figure2PairEquality) {
  Rng rng(19);
  ParamStore store;
  CrossGraphEncoder cross(2, {8, 8}, &store, &rng);
  Graph g = Figure2G();
  Graph q = Figure2Q();
  Tape tape(/*inference_mode=*/true);
  const Matrix raw = tape.value(cross.Forward(&tape, g, q));
  const Matrix compressed = tape.value(cross.ForwardCompressed(
      &tape, BuildCompressedGnnGraph(g, 2), BuildCompressedGnnGraph(q, 2)));
  EXPECT_LT(Matrix::MaxAbsDiff(raw, compressed), 1e-4f);
}

TEST(CrossGraphTest, CrossEmbeddingDependsOnBothSides) {
  Rng rng(20);
  ParamStore store;
  CrossGraphEncoder cross(3, {8}, &store, &rng);
  Graph g = Figure2G();
  Graph q1 = Figure2Q();
  Graph q2 = Figure2Q();
  q2.set_label(1, 0);  // relabel middle node
  Tape tape(/*inference_mode=*/true);
  const Matrix a = tape.value(cross.Forward(&tape, g, q1));
  const Matrix b = tape.value(cross.Forward(&tape, g, q2));
  EXPECT_GT(Matrix::MaxAbsDiff(a, b), 1e-6f);
}

TEST(CrossGraphTest, SymmetricPairYieldsMirroredEmbedding) {
  // h_{G,Q} = h_G || h_Q; swapping arguments swaps halves.
  Rng rng(21);
  ParamStore store;
  CrossGraphEncoder cross(2, {8}, &store, &rng);
  Graph g = Figure2G();
  Graph q = Figure2Q();
  Tape tape(/*inference_mode=*/true);
  const Matrix gq = tape.value(cross.Forward(&tape, g, q));
  const Matrix qg = tape.value(cross.Forward(&tape, q, g));
  const int32_t d = gq.cols() / 2;
  for (int32_t j = 0; j < d; ++j) {
    EXPECT_FLOAT_EQ(gq.at(0, j), qg.at(0, d + j));
    EXPECT_FLOAT_EQ(gq.at(0, d + j), qg.at(0, j));
  }
}

TEST(CrossGraphTest, GradientsFlowThroughCompressedPath) {
  Rng rng(22);
  ParamStore store;
  CrossGraphEncoder cross(2, {4}, &store, &rng);
  Graph g = Figure2G();
  Graph q = Figure2Q();
  Tape tape;
  VarId emb = cross.ForwardCompressed(&tape, BuildCompressedGnnGraph(g, 1),
                                      BuildCompressedGnnGraph(q, 1));
  Matrix target(1, 1, 1.0f);
  VarId loss = tape.MseLoss(tape.SumAll(emb), target);
  tape.Backward(loss);
  float grad_norm = 0.0f;
  for (const auto& p : store.params()) grad_norm += p->grad.Norm();
  EXPECT_GT(grad_norm, 0.0f);
}

TEST(CrossGraphTest, Corollary1OpCountsNeverExceedRaw) {
  // Theorem 3 / Corollary 1 as exact op counts, not wall time.
  Rng rng(26);
  for (DatasetSpec spec : {DatasetSpec::AidsLike(1), DatasetSpec::LinuxLike(1),
                           DatasetSpec::SynLike(1)}) {
    for (int i = 0; i < 5; ++i) {
      Graph g = GenerateGraph(spec, &rng);
      Graph q = GenerateGraph(spec, &rng);
      const CrossGraphComplexity raw = ComputeCrossComplexity(g, q, 2);
      const CrossGraphComplexity cg = ComputeCrossComplexity(
          BuildCompressedGnnGraph(g, 2), BuildCompressedGnnGraph(q, 2));
      EXPECT_LE(cg.node_terms, raw.node_terms + g.NumNodes() + q.NumNodes());
      EXPECT_LE(cg.edge_terms, raw.edge_terms);
      EXPECT_LE(cg.attention_pairs, raw.attention_pairs);
      EXPECT_LE(cg.Total(), raw.Total() + g.NumNodes() + q.NumNodes());
    }
  }
}

// ---------- HAG ----------

TEST(HagTest, AggregationMatchesNaive) {
  Rng rng(23);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  for (int i = 0; i < 10; ++i) {
    Graph g = GenerateGraph(spec, &rng);
    HagPlan plan(g);
    Matrix h = Matrix::XavierUniform(g.NumNodes(), 6, &rng);
    const Matrix via_hag = plan.Aggregate(h);
    const Matrix naive = GnnGraph(g, 1).AggregationOperator().Apply(h);
    EXPECT_LT(Matrix::MaxAbsDiff(via_hag, naive), 1e-4f);
  }
}

TEST(HagTest, ReducesAdditionsOnRedundantGraphs) {
  // A clique has maximal neighborhood overlap: HAG must find shared sums.
  Graph clique;
  for (int i = 0; i < 6; ++i) clique.AddNode(0);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) ASSERT_TRUE(clique.AddEdge(u, v).ok());
  }
  HagPlan plan(clique);
  EXPECT_GT(plan.NumSharedSums(), 0);
  EXPECT_LT(plan.NumAdds(), plan.NaiveNumAdds());
}

// ---------- Embeddings ----------

TEST(EmbeddingTest, DeterministicAndSensitive) {
  Rng rng(24);
  DatasetSpec spec = DatasetSpec::AidsLike(1);
  Graph g = GenerateGraph(spec, &rng);
  EmbeddingOptions options;
  options.dim = 32;
  options.num_labels = spec.num_labels;
  auto e1 = EmbedGraph(g, options);
  auto e2 = EmbedGraph(g, options);
  EXPECT_EQ(e1, e2);
  Graph p = PerturbGraph(g, 5, spec.num_labels, &rng);
  auto e3 = EmbedGraph(p, options);
  EXPECT_GT(SquaredL2(e1, e3), 0.0);
}

TEST(EmbeddingTest, CloserGraphsCloserInEmbedding) {
  // Coarse sanity: 1 edit should usually stay nearer than 15 edits.
  Rng rng(25);
  DatasetSpec spec = DatasetSpec::AidsLike(1);
  EmbeddingOptions options;
  options.dim = 64;
  options.num_labels = spec.num_labels;
  int wins = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    Graph g = GenerateGraph(spec, &rng);
    auto base = EmbedGraph(g, options);
    auto near = EmbedGraph(PerturbGraph(g, 1, spec.num_labels, &rng), options);
    auto far = EmbedGraph(PerturbGraph(g, 15, spec.num_labels, &rng), options);
    if (SquaredL2(base, near) < SquaredL2(base, far)) ++wins;
  }
  EXPECT_GE(wins, trials * 3 / 5);
}

// ---------- Embedding matrix ----------

TEST(EmbeddingMatrixTest, ReserveAdoptsDimAndChecksMismatch) {
  EmbeddingMatrix m;
  m.Reserve(100, 24);  // pre-dim reserve now sizes rows * dim, not rows * 0
  EXPECT_EQ(m.dim(), 24);
  EXPECT_EQ(m.rows(), 0);
  std::vector<float> row(24, 1.0f);
  m.AppendRow(row);
  EXPECT_EQ(m.dim(), 24);
  EXPECT_DEATH(m.Reserve(10, 8), "dim");
}

}  // namespace
}  // namespace lan
