// Runtime SIMD dispatch tests: every ISA level the host supports must
// agree with the scalar reference — bitwise for the elementwise kernels
// (whose SIMD variants are IEEE-exact by construction) and within a
// tolerance for the FMA/reduction kernels — both on raw kernel calls and
// through all three model heads (M_rk, M_nh, M_c). Within each level,
// every matmul output element must be that level's fixed chain, bitwise.
// Also covers the LAN_FORCE_SCALAR / --force-scalar pinning contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "gnn/compressed_gnn_graph.h"
#include "graph/graph_generator.h"
#include "lan/cluster_model.h"
#include "lan/neighborhood_model.h"
#include "lan/pair_scorer.h"
#include "lan/rank_model.h"
#include "nn/kernels.h"

namespace lan {
namespace {

constexpr float kTol = 2e-4f;
constexpr int kLayers = 2;

std::vector<SimdLevel> HostLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> out(n);
  for (float& x : out) x = rng->NextFloat(-1.0f, 1.0f);
  return out;
}

/// Restores full-speed dispatch after each test so test order can't leak
/// a pinned level into unrelated tests.
class KernelDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override { SetActiveSimdLevel(DetectedSimdLevel()); }
};

TEST_F(KernelDispatchTest, LevelClampingAndNames) {
  SetActiveSimdLevel(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
  SetActiveSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(KernelsFor(SimdLevel::kScalar).name, "scalar");
  // KernelsFor never fails: it demotes to the best available table.
  EXPECT_NE(KernelsFor(SimdLevel::kAvx512).name, nullptr);
}

TEST_F(KernelDispatchTest, ForceScalarEnvParsing) {
  ASSERT_EQ(setenv("LAN_FORCE_SCALAR", "1", 1), 0);
  EXPECT_TRUE(ForceScalarFromEnv());
  ASSERT_EQ(setenv("LAN_FORCE_SCALAR", "0", 1), 0);
  EXPECT_FALSE(ForceScalarFromEnv());
  ASSERT_EQ(setenv("LAN_FORCE_SCALAR", "", 1), 0);
  EXPECT_FALSE(ForceScalarFromEnv());
  ASSERT_EQ(unsetenv("LAN_FORCE_SCALAR"), 0);
  EXPECT_FALSE(ForceScalarFromEnv());
}

TEST_F(KernelDispatchTest, RawKernelsMatchScalar) {
  const int32_t m = 13, k = 37, n = 29;  // deliberately unaligned shapes
  Rng rng(101);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
  const std::vector<float> x = RandomVec(301, &rng);
  const std::vector<float> y = RandomVec(301, &rng);
  const KernelTable& scalar = ScalarKernels();

  std::vector<float> c_ref(static_cast<size_t>(m) * n, 0.25f);
  scalar.matmul_accumulate(a.data(), m, k, b.data(), n, c_ref.data());
  const float dot_ref = scalar.dot(x.data(), y.data(), 301);
  const double l2_ref = scalar.l2sq(x.data(), y.data(), 301);
  std::vector<float> axpy_ref = y;
  scalar.axpy(axpy_ref.data(), 0.75f, x.data(), 301);
  std::vector<float> scale_ref = x;
  scalar.scale(scale_ref.data(), -1.5f, 301);
  std::vector<float> relu_ref = x;
  relu_ref[0] = -0.0f;  // signed-zero semantics must match std::max
  scalar.relu(relu_ref.data(), 301);
  std::vector<float> sigmoid_ref = x;
  scalar.sigmoid(sigmoid_ref.data(), 301);
  std::vector<float> softmax_ref = a;
  scalar.softmax_rows(softmax_ref.data(), m, k);

  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    const KernelTable& kt = KernelsFor(level);

    // FMA/reduction kernels: tolerance equivalence.
    std::vector<float> c(static_cast<size_t>(m) * n, 0.25f);
    kt.matmul_accumulate(a.data(), m, k, b.data(), n, c.data());
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], c_ref[i], kTol) << "cell " << i;
    }
    EXPECT_NEAR(kt.dot(x.data(), y.data(), 301), dot_ref, kTol);
    EXPECT_NEAR(kt.l2sq(x.data(), y.data(), 301), l2_ref, 1e-5);
    std::vector<float> axpy = y;
    kt.axpy(axpy.data(), 0.75f, x.data(), 301);
    for (size_t i = 0; i < axpy.size(); ++i) {
      EXPECT_NEAR(axpy[i], axpy_ref[i], kTol);
    }

    // Elementwise kernels: bitwise equivalence at every level.
    std::vector<float> scaled = x;
    kt.scale(scaled.data(), -1.5f, 301);
    EXPECT_EQ(scaled, scale_ref);
    std::vector<float> relued = x;
    relued[0] = -0.0f;
    kt.relu(relued.data(), 301);
    EXPECT_EQ(relued, relu_ref);
    std::vector<float> sig = x;
    kt.sigmoid(sig.data(), 301);
    EXPECT_EQ(sig, sigmoid_ref);
    std::vector<float> soft = a;
    kt.softmax_rows(soft.data(), m, k);
    EXPECT_EQ(soft, softmax_ref);
  }
}

/// The scalar table's chain for C[i][j]: in the 8-column tiles, one
/// ascending unfused multiply-add per nonzero A entry from the initial C;
/// in the rightmost n % 8 columns, four interleaved partial sums plus a
/// remainder, added to C at the end.
float ScalarChain(const std::vector<float>& a, const std::vector<float>& b,
                  float c0, int32_t i, int32_t j, int32_t k, int32_t n) {
  const float* arow = a.data() + static_cast<size_t>(i) * k;
  if (j < n - n % 8) {
    float acc = c0;
    for (int32_t p = 0; p < k; ++p) {
      if (arow[p] == 0.0f) continue;
      acc += arow[p] * b[static_cast<size_t>(p) * n + j];
    }
    return acc;
  }
  float lanes[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  int32_t p = 0;
  for (; p + 4 <= k; p += 4) {
    for (int32_t q = 0; q < 4; ++q) {
      lanes[q] += arow[p + q] * b[static_cast<size_t>(p + q) * n + j];
    }
  }
  float rest = 0.0f;
  for (; p < k; ++p) rest += arow[p] * b[static_cast<size_t>(p) * n + j];
  return c0 + (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + rest);
}

/// The SIMD tables' chain for C[i][j]: one fused multiply-add per term, in
/// ascending p, from the initial C.
float FmaChain(const std::vector<float>& a, const std::vector<float>& b,
               float c0, int32_t i, int32_t j, int32_t k, int32_t n) {
  float acc = c0;
  for (int32_t p = 0; p < k; ++p) {
    acc = std::fma(a[static_cast<size_t>(i) * k + p],
                   b[static_cast<size_t>(p) * n + j], acc);
  }
  return acc;
}

TEST_F(KernelDispatchTest, MatMulAccumulateIsOneChainPerElement) {
  // Contract 4 of docs/kernels.md, checked on the raw kernel: every output
  // element is a fixed chain of its own row of A and column of B from its
  // initial C, whatever m is (including the n == 1 rows-in-lanes path).
  Rng rng(211);
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    const KernelTable& kt = KernelsFor(level);
    const bool fused = level != SimdLevel::kScalar;
    for (int32_t k : {1, 16, 48, 51, 64}) {
      for (int32_t n : {1, 2, 7, 15, 16, 17, 33}) {
        for (int32_t m = 1; m <= 40; ++m) {
          std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
          // One-hot and sparse rows make zeros common.
          for (size_t t = 0; t < a.size(); t += 3) a[t] = 0.0f;
          const std::vector<float> b =
              RandomVec(static_cast<size_t>(k) * n, &rng);
          const std::vector<float> c0 =
              RandomVec(static_cast<size_t>(m) * n, &rng);
          std::vector<float> c = c0;
          kt.matmul_accumulate(a.data(), m, k, b.data(), n, c.data());
          int mismatches = 0;
          for (int32_t i = 0; i < m; ++i) {
            for (int32_t j = 0; j < n; ++j) {
              const size_t cell = static_cast<size_t>(i) * n + j;
              const float want =
                  fused ? FmaChain(a, b, c0[cell], i, j, k, n)
                        : ScalarChain(a, b, c0[cell], i, j, k, n);
              if (std::memcmp(&want, &c[cell], sizeof(float)) != 0) {
                ++mismatches;
              }
            }
          }
          EXPECT_EQ(mismatches, 0) << "m=" << m << " k=" << k << " n=" << n;
        }
      }
    }
  }
}

TEST_F(KernelDispatchTest, ScalarTableIsDeterministic) {
  // Pinning scalar twice must yield bit-identical outputs (the
  // LAN_FORCE_SCALAR reproducibility contract at the kernel layer).
  Rng rng(55);
  const std::vector<float> a = RandomVec(24 * 16, &rng);
  const std::vector<float> b = RandomVec(16 * 8, &rng);
  SetActiveSimdLevel(SimdLevel::kScalar);
  std::vector<float> c1(24 * 8, 0.0f), c2(24 * 8, 0.0f);
  ActiveKernels().matmul_accumulate(a.data(), 24, 16, b.data(), 8, c1.data());
  SetActiveSimdLevel(DetectedSimdLevel());
  SetActiveSimdLevel(SimdLevel::kScalar);
  ActiveKernels().matmul_accumulate(a.data(), 24, 16, b.data(), 8, c2.data());
  EXPECT_EQ(c1, c2);
}

/// Shared fixture: a small database, its CGs, one query, and untrained
/// (seeded-random) models — dispatch equivalence doesn't need training,
/// only deterministic parameters.
class ModelHeadDispatchTest : public KernelDispatchTest {
 protected:
  void SetUp() override {
    db_ = GenerateDatabase(DatasetSpec::SynLike(12), 31);
    for (GraphId id = 0; id < db_.size(); ++id) {
      cgs_.push_back(BuildCompressedGnnGraph(db_.Get(id), kLayers));
    }
    query_cg_ = BuildCompressedGnnGraph(db_.Get(11), kLayers);
    for (GraphId id = 0; id < 8; ++id) candidates_.push_back(id);
  }

  std::vector<const CompressedGnnGraph*> CandidateCgs() const {
    std::vector<const CompressedGnnGraph*> out;
    for (GraphId id : candidates_) {
      out.push_back(&cgs_[static_cast<size_t>(id)]);
    }
    return out;
  }

  PairScorerOptions TinyScorer() const {
    PairScorerOptions o;
    o.gnn_dims = {8, 8};
    o.mlp_hidden = 8;
    return o;
  }

  /// M_rk's query-time path: cross rows, then the heads with routing node
  /// 10's context row.
  std::vector<std::vector<float>> RankProbs(
      const NeighborRankModel& model) const {
    const PairScorer& scorer = model.scorer();
    const Matrix context = scorer.ContextEmbedding(cgs_[10]);
    Matrix cross;
    scorer.InferCross(CandidateCgs(), scorer.EncodeQuery(query_cg_), &cross);
    std::vector<float> flat;
    scorer.InferHeads(cross,
                      {context.data(), static_cast<size_t>(context.cols())},
                      &flat);
    const size_t num_heads = static_cast<size_t>(scorer.num_heads());
    std::vector<std::vector<float>> rows(static_cast<size_t>(cross.rows()));
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].assign(flat.begin() + static_cast<ptrdiff_t>(i * num_heads),
                     flat.begin() +
                         static_cast<ptrdiff_t>((i + 1) * num_heads));
    }
    return rows;
  }

  GraphDatabase db_;
  std::vector<CompressedGnnGraph> cgs_;
  CompressedGnnGraph query_cg_;
  std::vector<GraphId> candidates_;
};

TEST_F(ModelHeadDispatchTest, RankModelHeadsMatchScalar) {
  // y = 20%: four heads over the cross row and the routing node's
  // context row.
  NeighborRankModel model(db_.num_labels(), TinyScorer(),
                          /*batch_percent=*/20);
  SetActiveSimdLevel(SimdLevel::kScalar);
  const std::vector<std::vector<float>> ref = RankProbs(model);
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    SetActiveSimdLevel(level);
    const std::vector<std::vector<float>> got = RankProbs(model);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i].size(), ref[i].size());
      for (size_t h = 0; h < ref[i].size(); ++h) {
        EXPECT_NEAR(got[i][h], ref[i][h], kTol) << "pair " << i << " head "
                                                << h;
      }
    }
  }
}

TEST_F(ModelHeadDispatchTest, NeighborhoodModelMatchesScalar) {
  NeighborhoodModel model(db_.num_labels(), TinyScorer());
  const PairScorer& scorer = model.scorer();
  const auto probs = [&] {
    Matrix cross;
    scorer.InferCross(CandidateCgs(), scorer.EncodeQuery(query_cg_), &cross);
    std::vector<float> out;
    model.PredictProbs(cross, &out);
    return out;
  };
  SetActiveSimdLevel(SimdLevel::kScalar);
  const std::vector<float> ref = probs();
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    SetActiveSimdLevel(level);
    const std::vector<float> got = probs();
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], kTol) << "candidate " << i;
    }
  }
}

TEST_F(ModelHeadDispatchTest, ClusterModelMatchesScalar) {
  const int32_t kDim = 8;
  ClusterModelOptions options;
  ClusterModel model(2 * kDim, options);
  Rng rng(7);
  std::vector<float> query_embedding(kDim);
  for (float& v : query_embedding) v = rng.NextFloat(-1.0f, 1.0f);
  EmbeddingMatrix centroids(12, kDim);
  for (int64_t c = 0; c < centroids.rows(); ++c) {
    float* row = centroids.MutableRow(c);
    for (int32_t j = 0; j < kDim; ++j) row[j] = rng.NextFloat(-1.0f, 1.0f);
  }
  SetActiveSimdLevel(SimdLevel::kScalar);
  const std::vector<float> ref = model.PredictCounts(query_embedding,
                                                     centroids);
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    SetActiveSimdLevel(level);
    const std::vector<float> got =
        model.PredictCounts(query_embedding, centroids);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], kTol) << "cluster " << i;
    }
  }
}

}  // namespace
}  // namespace lan
