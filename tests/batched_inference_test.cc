// Golden-equivalence tests for the batched query-time inference path: the
// stacked one-GEMM-per-layer forwards (PairScorer::InferCross + InferHeads
// and the models built on them) must reproduce the taped per-pair forward
// (TapedProbs) on all three learned models (M_rk, M_nh, M_c), on both raw
// and compressed graphs, and be bit-for-bit deterministic. Taped and
// batched agree exactly at the scalar level (within kTol at the others),
// and at every level a candidate's cross row and head probabilities do not
// depend on which batch computed them (docs/kernels.md, contract 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "gnn/compressed_gnn_graph.h"
#include "graph/graph_generator.h"
#include "lan/cluster_model.h"
#include "lan/lan_index.h"
#include "lan/neighborhood_model.h"
#include "lan/pair_scorer.h"
#include "lan/rank_model.h"
#include "lan/workload.h"
#include "taped_reference.h"

namespace lan {
namespace {

constexpr float kTol = 1e-4f;
constexpr int kLayers = 2;

PairScorerOptions TinyScorer() {
  PairScorerOptions o;
  o.gnn_dims = {8, 8};
  o.mlp_hidden = 8;
  return o;
}

/// The cross rows of `gs` against the query `cache` was built from.
template <typename G>
Matrix CrossRows(const PairScorer& scorer, const std::vector<const G*>& gs,
                 const QueryEncodingCache& cache) {
  Matrix cross;
  scorer.InferCross(gs, cache, &cross);
  return cross;
}

/// InferHeads' probabilities, one vector of num_heads per cross row.
std::vector<std::vector<float>> HeadRows(const PairScorer& scorer,
                                         const Matrix& cross,
                                         std::span<const float> context_row) {
  std::vector<float> flat;
  scorer.InferHeads(cross, context_row, &flat);
  const size_t num_heads = static_cast<size_t>(scorer.num_heads());
  std::vector<std::vector<float>> rows(static_cast<size_t>(cross.rows()));
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].assign(flat.begin() + static_cast<ptrdiff_t>(i * num_heads),
                   flat.begin() + static_cast<ptrdiff_t>((i + 1) * num_heads));
  }
  return rows;
}

/// Batched head probabilities of `gs` against the query `cache` was built
/// from; `context` (a CG) supplies the context row of a context scorer.
template <typename G>
std::vector<std::vector<float>> BatchedProbs(
    const PairScorer& scorer, const std::vector<const G*>& gs,
    const QueryEncodingCache& cache,
    const CompressedGnnGraph* context = nullptr) {
  const Matrix cross = CrossRows(scorer, gs, cache);
  if (context == nullptr) return HeadRows(scorer, cross, {});
  const Matrix row = scorer.ContextEmbedding(*context);
  return HeadRows(scorer, cross,
                  {row.data(), static_cast<size_t>(row.cols())});
}

void ExpectNearRows(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t h = 0; h < want.size(); ++h) EXPECT_NEAR(got[h], want[h], kTol);
}

/// Shared fixture data: a small database, its CGs, and one query.
class BatchedInferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = GenerateDatabase(DatasetSpec::SynLike(12), 31);
    for (GraphId id = 0; id < db_.size(); ++id) {
      cgs_.push_back(BuildCompressedGnnGraph(db_.Get(id), kLayers));
    }
    query_ = db_.Get(11);
    query_cg_ = BuildCompressedGnnGraph(query_, kLayers);
    for (GraphId id = 0; id < 8; ++id) candidates_.push_back(id);
  }

  std::vector<const CompressedGnnGraph*> CandidateCgs() const {
    std::vector<const CompressedGnnGraph*> out;
    for (GraphId id : candidates_) {
      out.push_back(&cgs_[static_cast<size_t>(id)]);
    }
    return out;
  }

  std::vector<const Graph*> CandidateGraphs() const {
    std::vector<const Graph*> out;
    for (GraphId id : candidates_) out.push_back(&db_.Get(id));
    return out;
  }

  const CompressedGnnGraph& Cg(GraphId id) const {
    return cgs_[static_cast<size_t>(id)];
  }

  GraphDatabase db_;
  std::vector<CompressedGnnGraph> cgs_;
  Graph query_;
  CompressedGnnGraph query_cg_;
  std::vector<GraphId> candidates_;
};

TEST_F(BatchedInferenceTest, CompressedBatchMatchesTapedNoContext) {
  PairScorer scorer(db_.num_labels(), TinyScorer(), /*num_heads=*/3,
                    /*context=*/false);
  const std::vector<std::vector<float>> batched =
      BatchedProbs(scorer, CandidateCgs(), scorer.EncodeQuery(query_cg_));
  ASSERT_EQ(batched.size(), candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    ExpectNearRows(batched[i],
                   TapedProbs(scorer, Cg(candidates_[i]), query_cg_));
  }
}

TEST_F(BatchedInferenceTest, CompressedBatchMatchesTapedWithContextRow) {
  PairScorer scorer(db_.num_labels(), TinyScorer(), /*num_heads=*/4,
                    /*context=*/true);
  const std::vector<std::vector<float>> batched = BatchedProbs(
      scorer, CandidateCgs(), scorer.EncodeQuery(query_cg_), &cgs_[9]);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    ExpectNearRows(batched[i],
                   TapedProbs(scorer, Cg(candidates_[i]), query_cg_, &cgs_[9]));
  }
}

TEST_F(BatchedInferenceTest, RawBatchMatchesTaped) {
  PairScorer scorer(db_.num_labels(), TinyScorer(), /*num_heads=*/3,
                    /*context=*/false);
  const std::vector<std::vector<float>> batched =
      BatchedProbs(scorer, CandidateGraphs(), scorer.EncodeQuery(query_));
  for (size_t i = 0; i < candidates_.size(); ++i) {
    ExpectNearRows(batched[i],
                   TapedProbs(scorer, db_.Get(candidates_[i]), query_));
  }
}

TEST_F(BatchedInferenceTest, RawBatchWithCgContextRowMatchesTapedRaw) {
  // The no-CG ablation's M_rk: raw cross rows, the context row from the
  // routing node's CG (Theorem 2 makes it the raw graph's embedding).
  PairScorer scorer(db_.num_labels(), TinyScorer(), /*num_heads=*/4,
                    /*context=*/true);
  const std::vector<std::vector<float>> batched = BatchedProbs(
      scorer, CandidateGraphs(), scorer.EncodeQuery(query_), &cgs_[9]);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    ExpectNearRows(batched[i], TapedProbs(scorer, db_.Get(candidates_[i]),
                                          query_, &db_.Get(9)));
  }
}

TEST_F(BatchedInferenceTest, RawAndCompressedBatchesAgree) {
  // Theorem 2 carried over to the batched path: CG and raw scoring of the
  // same pairs produce the same probabilities.
  PairScorer scorer(db_.num_labels(), TinyScorer(), /*num_heads=*/2,
                    /*context=*/false);
  const std::vector<std::vector<float>> cg_probs =
      BatchedProbs(scorer, CandidateCgs(), scorer.EncodeQuery(query_cg_));
  const std::vector<std::vector<float>> raw_probs =
      BatchedProbs(scorer, CandidateGraphs(), scorer.EncodeQuery(query_));
  for (size_t i = 0; i < candidates_.size(); ++i) {
    ExpectNearRows(cg_probs[i], raw_probs[i]);
  }
}

TEST_F(BatchedInferenceTest, BatchedInferenceIsBitwiseDeterministic) {
  PairScorer scorer(db_.num_labels(), TinyScorer(), /*num_heads=*/4,
                    /*context=*/true);
  const QueryEncodingCache cache = scorer.EncodeQuery(query_cg_);
  const std::vector<std::vector<float>> a =
      BatchedProbs(scorer, CandidateCgs(), cache, &cgs_[9]);
  const std::vector<std::vector<float>> b =
      BatchedProbs(scorer, CandidateCgs(), cache, &cgs_[9]);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t h = 0; h < a[i].size(); ++h) {
      EXPECT_EQ(a[i][h], b[i][h]);  // exact, not approximate
    }
  }
}

TEST_F(BatchedInferenceTest, ScalarTapedEqualsBatchedExactly) {
  // The scalar table is the reference: there, the taped forward and the
  // stacked batch perform the same operations in the same order.
  const SimdLevel saved = ActiveSimdLevel();
  SetActiveSimdLevel(SimdLevel::kScalar);
  PairScorer with_context(db_.num_labels(), TinyScorer(), /*num_heads=*/4,
                          /*context=*/true);
  PairScorer no_context(db_.num_labels(), TinyScorer(), /*num_heads=*/4,
                        /*context=*/false);
  const std::vector<std::vector<float>> cg_batched =
      BatchedProbs(with_context, CandidateCgs(),
                   with_context.EncodeQuery(query_cg_), &cgs_[9]);
  const std::vector<std::vector<float>> raw_batched = BatchedProbs(
      no_context, CandidateGraphs(), no_context.EncodeQuery(query_));
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const GraphId id = candidates_[i];
    EXPECT_EQ(cg_batched[i],
              TapedProbs(with_context, Cg(id), query_cg_, &cgs_[9]));
    EXPECT_EQ(raw_batched[i], TapedProbs(no_context, db_.Get(id), query_));
  }
  SetActiveSimdLevel(saved);
}

/// For every contiguous sub-batch of `gs` (sizes 1..N, forward and
/// reversed), each candidate's cross row and head probabilities must equal
/// its row of the full batch bit for bit.
template <typename G>
void ExpectSubBatchInvariance(const PairScorer& scorer,
                              const std::vector<const G*>& gs,
                              const QueryEncodingCache& query,
                              std::span<const float> context_row) {
  const Matrix full_cross = CrossRows(scorer, gs, query);
  const std::vector<std::vector<float>> full_probs =
      HeadRows(scorer, full_cross, context_row);
  const int32_t dim = scorer.cross_dim();
  const size_t n = gs.size();
  int64_t checked = 0;
  for (size_t size = 1; size <= n; ++size) {
    for (size_t begin = 0; begin + size <= n; ++begin) {
      for (bool reversed : {false, true}) {
        std::vector<size_t> order;
        for (size_t j = begin; j < begin + size; ++j) order.push_back(j);
        if (reversed) std::reverse(order.begin(), order.end());
        std::vector<const G*> sub;
        for (size_t j : order) sub.push_back(gs[j]);
        const Matrix cross = CrossRows(scorer, sub, query);
        const std::vector<std::vector<float>> probs =
            HeadRows(scorer, cross, context_row);
        for (size_t r = 0; r < order.size(); ++r) {
          const size_t j = order[r];
          for (int32_t c = 0; c < dim; ++c) {
            ASSERT_EQ(cross.at(static_cast<int32_t>(r), c),
                      full_cross.at(static_cast<int32_t>(j), c))
                << "candidate " << j << " in sub-batch [" << begin << ", "
                << begin + size << ") reversed=" << reversed;
          }
          ASSERT_EQ(probs[r], full_probs[j])
              << "candidate " << j << " in sub-batch [" << begin << ", "
              << begin + size << ") reversed=" << reversed;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, static_cast<int64_t>(n * (n + 1) * (n + 2) / 3));
}

TEST_F(BatchedInferenceTest, RowsAreInvariantToBatchCompositionAtEveryLevel) {
  // M_rk's shape: several heads over h_{G',Q} || h_ctx(G).
  PairScorer scorer(db_.num_labels(), TinyScorer(), /*num_heads=*/4,
                    /*context=*/true);
  const Matrix context = scorer.ContextEmbedding(cgs_[9]);
  const std::span<const float> context_row(
      context.data(), static_cast<size_t>(context.cols()));
  // 11 candidates: spans several kInferChunkSize chunks and a ragged tail.
  std::vector<const CompressedGnnGraph*> cg_cands;
  std::vector<const Graph*> raw_cands;
  for (GraphId id = 0; id < 11; ++id) {
    cg_cands.push_back(&cgs_[static_cast<size_t>(id)]);
    raw_cands.push_back(&db_.Get(id));
  }
  const SimdLevel saved = ActiveSimdLevel();
  for (int level = 0; level <= static_cast<int>(DetectedSimdLevel());
       ++level) {
    SetActiveSimdLevel(static_cast<SimdLevel>(level));
    SCOPED_TRACE(SimdLevelName(ActiveSimdLevel()));
    ExpectSubBatchInvariance(scorer, cg_cands, scorer.EncodeQuery(query_cg_),
                             context_row);
    ExpectSubBatchInvariance(scorer, raw_cands, scorer.EncodeQuery(query_),
                             context_row);
  }
  SetActiveSimdLevel(saved);
}

TEST_F(BatchedInferenceTest, NeighborhoodModelMatchesTaped) {
  NeighborhoodModel model(db_.num_labels(), TinyScorer());
  const PairScorer& scorer = model.scorer();
  std::vector<float> batched, batched_raw;
  model.PredictProbs(
      CrossRows(scorer, CandidateCgs(), scorer.EncodeQuery(query_cg_)),
      &batched);
  model.PredictProbs(
      CrossRows(scorer, CandidateGraphs(), scorer.EncodeQuery(query_)),
      &batched_raw);
  ASSERT_EQ(batched.size(), candidates_.size());
  ASSERT_EQ(batched_raw.size(), candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    EXPECT_NEAR(batched[i],
                TapedProbs(scorer, Cg(candidates_[i]), query_cg_)[0], kTol);
    EXPECT_NEAR(batched_raw[i],
                TapedProbs(scorer, db_.Get(candidates_[i]), query_)[0], kTol);
  }
}

TEST_F(BatchedInferenceTest, RankModelEncodesUncachedContextFromCg) {
  // A routing node without a cached context row (inserted after training)
  // is encoded from its CG, which yields the cached row's bits.
  NeighborRankModel cached(db_.num_labels(), TinyScorer(),
                           /*batch_percent=*/25);
  NeighborRankModel uncached(db_.num_labels(), TinyScorer(),
                             /*batch_percent=*/25);
  cached.PrecomputeContexts(cgs_);
  int64_t inferences_a = 0;
  int64_t inferences_b = 0;
  RankedBatches from_cache;
  RankedBatches from_cg;
  cached.PredictBatches(candidates_, cgs_, /*node=*/10,
                        cached.scorer().EncodeQuery(query_cg_), &inferences_a,
                        &from_cache);
  uncached.PredictBatches(candidates_, cgs_, /*node=*/10,
                          uncached.scorer().EncodeQuery(query_cg_),
                          &inferences_b, &from_cg);
  EXPECT_EQ(inferences_a, static_cast<int64_t>(candidates_.size()));
  EXPECT_EQ(inferences_a, inferences_b);
  EXPECT_EQ(from_cache, from_cg);
}

TEST(ClusterModelBatchTest, BatchedCountsMatchReference) {
  const int32_t kEmbeddingDim = 6;
  const int32_t kCentroidDim = 6;
  ClusterModel model(kEmbeddingDim + kCentroidDim, ClusterModelOptions{});
  Rng rng(99);
  std::vector<float> query_embedding(kEmbeddingDim);
  for (float& x : query_embedding) x = rng.NextFloat(-1.0f, 1.0f);
  EmbeddingMatrix centroids(7, kCentroidDim);
  for (int64_t c = 0; c < centroids.rows(); ++c) {
    float* row = centroids.MutableRow(c);
    for (int32_t j = 0; j < kCentroidDim; ++j) {
      row[j] = rng.NextFloat(-1.0f, 1.0f);
    }
  }
  const std::vector<float> batched =
      model.PredictCounts(query_embedding, centroids);
  const std::vector<float> reference =
      model.PredictCountsReference(query_embedding, centroids);
  ASSERT_EQ(batched.size(), reference.size());
  for (size_t c = 0; c < reference.size(); ++c) {
    EXPECT_NEAR(batched[c], reference[c], kTol);
  }
  EXPECT_TRUE(model.PredictCounts(query_embedding, {}).empty());
}

/// SearchBatch on a 2-worker pool returns each query's sequential Search
/// results and work counters, with `protocol` as the query distance.
void ExpectSearchBatchMatchesSequentialSearch(const GedOptions& protocol) {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged = protocol;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.rank.epochs = 2;
  config.nh.epochs = 2;
  config.cluster.epochs = 5;
  config.max_rank_examples = 150;
  config.max_nh_examples = 150;
  config.neighborhood_knn = 5;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 2;

  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 41);
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  QueryWorkload workload = SampleWorkload(db, wopts, 42);
  LanIndex index(config);
  ASSERT_TRUE(index.Build(&db).ok());
  ASSERT_TRUE(index.Train(workload.train).ok());

  SearchOptions sopts;
  sopts.k = 3;
  const std::vector<SearchResult> batch =
      index.SearchBatch(workload.test, sopts).results;
  ASSERT_EQ(batch.size(), workload.test.size());
  for (size_t i = 0; i < workload.test.size(); ++i) {
    const SearchResult sequential = index.Search(workload.test[i], sopts);
    ASSERT_EQ(batch[i].results.size(), sequential.results.size());
    for (size_t j = 0; j < sequential.results.size(); ++j) {
      EXPECT_EQ(batch[i].results[j].first, sequential.results[j].first);
      EXPECT_DOUBLE_EQ(batch[i].results[j].second,
                       sequential.results[j].second);
    }
    EXPECT_EQ(batch[i].stats.ndc, sequential.stats.ndc);
    EXPECT_EQ(batch[i].stats.model_inferences,
              sequential.stats.model_inferences);
    EXPECT_EQ(batch[i].stats.cross_encodings,
              sequential.stats.cross_encodings);
  }
}

TEST(BatchedSearchTest, SearchBatchMatchesSequentialSearch) {
  GedOptions approximate;
  approximate.approximate_only = true;
  approximate.beam_width = 0;
  ExpectSearchBatchMatchesSequentialSearch(approximate);
}

/// Under the protocol LanIndex queries with by default (VJ, Hungarian,
/// Beam4 and gated, expansion-capped A*).
TEST(BatchedSearchTest, SearchBatchMatchesSequentialSearchDefaultProtocol) {
  ExpectSearchBatchMatchesSequentialSearch(GedOptions{});
}

}  // namespace
}  // namespace lan
