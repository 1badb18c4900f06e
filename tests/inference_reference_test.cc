// Bitwise reference test for the query-time inference path. The batched
// cross-graph forward (PairScorer::InferCross) and the heads
// (PairScorer::InferHeads) were rewritten to run from per-thread scratch,
// to share one softmax and message row among attention rows with equal
// self scores, to treat the first layer's one-hot rows as lookups and
// exact zero skips, and to balance their chunks. The contract is that
// every cross row and every head probability keeps its bits. The
// straightforward formulation they replaced (a stacked candidate batch of
// dense matrices, one softmax row per attention row, one Mlp forward per
// head) lives only here, as the reference, and both are compared at every
// SIMD level the host supports, on CGs and raw graphs, for 1 to 13
// candidates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "gnn/compressed_gnn_graph.h"
#include "gnn/gnn_graph.h"
#include "graph/graph_generator.h"
#include "lan/pair_scorer.h"

namespace lan {
namespace {

constexpr int kLayers = 2;

// ---------- Reference: the stacked forward over dense matrices ----------

/// The encoder and head parameters of a PairScorer, in creation order:
/// per layer W, a1, a2; then the context GIN's layers; then per head the
/// (weight, bias) of each MLP layer.
struct Params {
  std::vector<const Matrix*> w, a1, a2;
  std::vector<std::vector<const Matrix*>> head_w, head_b;
};

Params ParamsOf(const PairScorer& scorer) {
  const auto& all = scorer.params().params();
  const size_t layers = scorer.options().gnn_dims.size();
  Params p;
  for (size_t l = 0; l < layers; ++l) {
    p.w.push_back(&all[3 * l]->value);
    p.a1.push_back(&all[3 * l + 1]->value);
    p.a2.push_back(&all[3 * l + 2]->value);
  }
  size_t next = 3 * layers + (scorer.has_context() ? layers : 0);
  for (int h = 0; h < scorer.num_heads(); ++h) {
    p.head_w.push_back({&all[next]->value, &all[next + 2]->value});
    p.head_b.push_back({&all[next + 1]->value, &all[next + 3]->value});
    next += 4;
  }
  EXPECT_EQ(next, all.size());
  return p;
}

struct RefBatch {
  std::vector<std::vector<int32_t>> offsets;
  Matrix one_hot;
  std::vector<const SparseMatrix*> aggregation;
  std::vector<const SparseMatrix*> lift;
  std::vector<std::vector<float>> log_multiplicity;
  std::vector<std::vector<float>> readout;
  std::vector<SparseMatrix> raw_aggregation;
};

void RefApplySparseOffset(const SparseMatrix& s, const Matrix& x,
                          int32_t src_off, Matrix* out, int32_t dst_off) {
  const int32_t cols = x.cols();
  for (const SparseMatrix::Entry& e : s.entries) {
    const float* xrow =
        x.data() + static_cast<size_t>(e.col + src_off) * cols;
    float* orow = out->data() + static_cast<size_t>(e.row + dst_off) * cols;
    for (int32_t j = 0; j < cols; ++j) orow[j] += e.weight * xrow[j];
  }
}

void RefReplicateSegment(Matrix* m, int64_t seg, int32_t copies) {
  for (int32_t i = 1; i < copies; ++i) {
    std::copy(m->data(), m->data() + seg, m->data() + i * seg);
  }
}

Matrix RefInferStacked(const Params& p, int32_t input_dim,
                       const RefBatch& cand, const QueryEncodingCache& query) {
  const int L = static_cast<int>(p.w.size());
  const int32_t num_cands = static_cast<int32_t>(cand.offsets[0].size()) - 1;
  const int32_t cross_dim = 2 * p.w.back()->cols();
  Matrix hg = cand.one_hot;
  const int32_t mq0 = query.rows_per_level[0];
  Matrix hq(num_cands * mq0, input_dim);
  for (int32_t i = 0; i < num_cands; ++i) {
    std::copy(query.one_hot.data(),
              query.one_hot.data() + static_cast<size_t>(mq0) * input_dim,
              hq.data() + static_cast<size_t>(i) * mq0 * input_dim);
  }
  std::vector<float> logits_buf;
  std::vector<float> mu_buf;
  for (int l = 0; l < L; ++l) {
    const size_t ls = static_cast<size_t>(l);
    const Matrix& w_proj = *p.w[ls];
    const Matrix& a1 = *p.a1[ls];
    const Matrix& a2 = *p.a2[ls];
    const int32_t d_in = hg.cols();
    const int32_t mq_in = query.rows_per_level[ls];
    const int32_t mq_out = query.rows_per_level[ls + 1];
    const std::vector<int32_t>& go_in = cand.offsets[ls];
    const std::vector<int32_t>& go_out = cand.offsets[ls + 1];
    const bool uniform_q = (l == 0);
    Matrix hg_lifted;
    Matrix hq_lifted;
    if (query.compressed) {
      hg_lifted = Matrix(go_out[static_cast<size_t>(num_cands)], d_in);
      hq_lifted = Matrix(num_cands * mq_out, d_in);
      for (int32_t i = 0; i < num_cands; ++i) {
        RefApplySparseOffset(*cand.lift[static_cast<size_t>(i) * L + ls], hg,
                             go_in[static_cast<size_t>(i)], &hg_lifted,
                             go_out[static_cast<size_t>(i)]);
      }
      if (uniform_q) {
        RefApplySparseOffset(query.lift[ls], hq, 0, &hq_lifted, 0);
        RefReplicateSegment(&hq_lifted, static_cast<int64_t>(mq_out) * d_in,
                            num_cands);
      } else {
        for (int32_t i = 0; i < num_cands; ++i) {
          RefApplySparseOffset(query.lift[ls], hq, i * mq_in, &hq_lifted,
                               i * mq_out);
        }
      }
    }
    const Matrix& hg_rows = query.compressed ? hg_lifted : hg;
    const Matrix& hq_rows = query.compressed ? hq_lifted : hq;
    const Matrix s_self_g = MatMulValues(hg_rows, a1);
    const Matrix s_other_g = MatMulValues(hg, a2);
    const Matrix s_self_q = MatMulValues(hq_rows, a1);
    const Matrix s_other_q = MatMulValues(hq, a2);
    Matrix xg(go_out[static_cast<size_t>(num_cands)], d_in);
    Matrix xq(num_cands * mq_out, d_in);
    for (int32_t i = 0; i < num_cands; ++i) {
      RefApplySparseOffset(*cand.aggregation[static_cast<size_t>(i) * L + ls],
                           hg, go_in[static_cast<size_t>(i)], &xg,
                           go_out[static_cast<size_t>(i)]);
    }
    if (uniform_q) {
      RefApplySparseOffset(query.aggregation[ls], hq, 0, &xq, 0);
      RefReplicateSegment(&xq, static_cast<int64_t>(mq_out) * d_in,
                          num_cands);
    } else {
      for (int32_t i = 0; i < num_cands; ++i) {
        RefApplySparseOffset(query.aggregation[ls], hq, i * mq_in, &xq,
                             i * mq_out);
      }
    }
    const std::vector<float>* q_log_w =
        query.compressed ? &query.log_multiplicity[ls] : nullptr;
    if (uniform_q) {
      const int32_t total_g = go_out[static_cast<size_t>(num_cands)];
      logits_buf.resize(static_cast<size_t>(total_g) * mq_in);
      for (int32_t r = 0; r < total_g; ++r) {
        float* lrow = logits_buf.data() + static_cast<size_t>(r) * mq_in;
        const float sr = s_self_g.at(r, 0);
        for (int32_t c = 0; c < mq_in; ++c) {
          float e = sr + s_other_q.at(c, 0);
          if (q_log_w != nullptr) e += (*q_log_w)[static_cast<size_t>(c)];
          lrow[c] = e;
        }
      }
      SoftmaxRowsInPlace(logits_buf.data(), total_g, mq_in);
      mu_buf.assign(static_cast<size_t>(total_g) * d_in, 0.0f);
      MatMulAccumulate(logits_buf.data(), total_g, mq_in, hq.data(), d_in,
                       mu_buf.data());
      for (size_t t = 0; t < mu_buf.size(); ++t) xg.data()[t] += mu_buf[t];
    }
    for (int32_t i = 0; i < num_cands; ++i) {
      const int32_t g_in = go_in[static_cast<size_t>(i)];
      const int32_t g_out = go_out[static_cast<size_t>(i)];
      const int32_t ng_in = go_in[static_cast<size_t>(i) + 1] - g_in;
      const int32_t ng_out = go_out[static_cast<size_t>(i) + 1] - g_out;
      if (!uniform_q) {
        logits_buf.resize(static_cast<size_t>(ng_out) * mq_in);
        for (int32_t r = 0; r < ng_out; ++r) {
          float* lrow = logits_buf.data() + static_cast<size_t>(r) * mq_in;
          const float sr = s_self_g.at(g_out + r, 0);
          for (int32_t c = 0; c < mq_in; ++c) {
            float e = sr + s_other_q.at(i * mq_in + c, 0);
            if (q_log_w != nullptr) e += (*q_log_w)[static_cast<size_t>(c)];
            lrow[c] = e;
          }
        }
        SoftmaxRowsInPlace(logits_buf.data(), ng_out, mq_in);
        mu_buf.assign(static_cast<size_t>(ng_out) * d_in, 0.0f);
        MatMulAccumulate(logits_buf.data(), ng_out, mq_in,
                         hq.data() + static_cast<size_t>(i) * mq_in * d_in,
                         d_in, mu_buf.data());
        float* dst = xg.data() + static_cast<size_t>(g_out) * d_in;
        for (size_t t = 0; t < mu_buf.size(); ++t) dst[t] += mu_buf[t];
      }
      const std::vector<float>* g_log_w =
          query.compressed
              ? &cand.log_multiplicity[static_cast<size_t>(i) * L + ls]
              : nullptr;
      logits_buf.resize(static_cast<size_t>(mq_out) * ng_in);
      for (int32_t r = 0; r < mq_out; ++r) {
        float* lrow = logits_buf.data() + static_cast<size_t>(r) * ng_in;
        const float sr = s_self_q.at(i * mq_out + r, 0);
        for (int32_t c = 0; c < ng_in; ++c) {
          float e = sr + s_other_g.at(g_in + c, 0);
          if (g_log_w != nullptr) e += (*g_log_w)[static_cast<size_t>(c)];
          lrow[c] = e;
        }
      }
      SoftmaxRowsInPlace(logits_buf.data(), mq_out, ng_in);
      mu_buf.assign(static_cast<size_t>(mq_out) * d_in, 0.0f);
      MatMulAccumulate(logits_buf.data(), mq_out, ng_in,
                       hg.data() + static_cast<size_t>(g_in) * d_in, d_in,
                       mu_buf.data());
      float* dst = xq.data() + static_cast<size_t>(i) * mq_out * d_in;
      for (size_t t = 0; t < mu_buf.size(); ++t) dst[t] += mu_buf[t];
    }
    Matrix hg_next = MatMulValues(xg, w_proj);
    ReluInPlace(&hg_next);
    Matrix hq_next = MatMulValues(xq, w_proj);
    ReluInPlace(&hq_next);
    hg = std::move(hg_next);
    hq = std::move(hq_next);
  }
  const int32_t d_out = hg.cols();
  const int32_t mq_top = query.rows_per_level[static_cast<size_t>(L)];
  const std::vector<int32_t>& go_top = cand.offsets[static_cast<size_t>(L)];
  Matrix out(num_cands, cross_dim);
  for (int32_t i = 0; i < num_cands; ++i) {
    const int32_t g_off = go_top[static_cast<size_t>(i)];
    const int32_t g_rows = go_top[static_cast<size_t>(i) + 1] - g_off;
    float* row = out.data() + static_cast<size_t>(i) * cross_dim;
    WeightedMeanRowsInto(hg.data() + static_cast<size_t>(g_off) * d_out,
                         g_rows, d_out,
                         cand.readout[static_cast<size_t>(i)].data(), row);
    WeightedMeanRowsInto(
        hq.data() + static_cast<size_t>(i) * mq_top * d_out, mq_top, d_out,
        query.readout_weights.data(), row + d_out);
  }
  return out;
}

RefBatch RefCgBatch(std::span<const CompressedGnnGraph* const> gs, int L,
                    int32_t input_dim) {
  RefBatch cand;
  cand.offsets.assign(static_cast<size_t>(L) + 1,
                      std::vector<int32_t>(gs.size() + 1, 0));
  std::vector<int32_t> labels;
  for (size_t i = 0; i < gs.size(); ++i) {
    const CompressedGnnGraph& cg = *gs[i];
    for (int l = 0; l <= L; ++l) {
      cand.offsets[static_cast<size_t>(l)][i + 1] =
          cand.offsets[static_cast<size_t>(l)][i] + cg.NumGroups(l);
    }
    labels.insert(labels.end(), cg.level0_group_labels.begin(),
                  cg.level0_group_labels.end());
    for (int l = 0; l < L; ++l) {
      const size_t ls = static_cast<size_t>(l);
      cand.aggregation.push_back(&cg.aggregation[ls]);
      cand.lift.push_back(&cg.LiftOperator(l + 1));
      std::vector<float> log_w;
      for (int32_t size : cg.group_size[ls]) {
        log_w.push_back(std::log(static_cast<float>(size)));
      }
      cand.log_multiplicity.push_back(std::move(log_w));
    }
    cand.readout.push_back(cg.TopLevelWeights());
  }
  cand.one_hot = Matrix::OneHotRows(labels, input_dim);
  return cand;
}

RefBatch RefRawBatch(std::span<const Graph* const> gs, int L,
                     int32_t input_dim) {
  RefBatch cand;
  cand.offsets.assign(static_cast<size_t>(L) + 1,
                      std::vector<int32_t>(gs.size() + 1, 0));
  std::vector<int32_t> labels;
  cand.raw_aggregation.reserve(gs.size());
  for (size_t i = 0; i < gs.size(); ++i) {
    const Graph& g = *gs[i];
    for (int l = 0; l <= L; ++l) {
      cand.offsets[static_cast<size_t>(l)][i + 1] =
          cand.offsets[static_cast<size_t>(l)][i] + g.NumNodes();
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) labels.push_back(g.label(v));
    cand.raw_aggregation.push_back(GnnGraph(g, L).AggregationOperator());
    cand.readout.emplace_back(static_cast<size_t>(g.NumNodes()), 1.0f);
  }
  for (size_t i = 0; i < gs.size(); ++i) {
    for (int l = 0; l < L; ++l) {
      cand.aggregation.push_back(&cand.raw_aggregation[i]);
    }
  }
  cand.one_hot = Matrix::OneHotRows(labels, input_dim);
  return cand;
}

/// The reference cross rows: chunks of four, each one stacked forward.
template <typename G>
Matrix RefInferCross(const Params& p, int32_t input_dim,
                     const std::vector<const G*>& gs,
                     const QueryEncodingCache& query) {
  const int L = static_cast<int>(p.w.size());
  const int32_t cross_dim = 2 * p.w.back()->cols();
  Matrix out(static_cast<int32_t>(gs.size()), cross_dim);
  for (size_t begin = 0; begin < gs.size(); begin += 4) {
    const size_t end = std::min(gs.size(), begin + 4);
    const std::span<const G* const> chunk(gs.data() + begin, end - begin);
    RefBatch batch;
    if constexpr (std::is_same_v<G, CompressedGnnGraph>) {
      batch = RefCgBatch(chunk, L, input_dim);
    } else {
      batch = RefRawBatch(chunk, L, input_dim);
    }
    const Matrix part = RefInferStacked(p, input_dim, batch, query);
    std::copy(part.data(), part.data() + part.size(),
              out.data() + begin * static_cast<size_t>(cross_dim));
  }
  return out;
}

/// The reference heads: the context row appended, then one Mlp forward
/// (Linear::InferForward layers with ReLU between) per head.
std::vector<float> RefInferHeads(const Params& p, const Matrix& cross,
                                 std::span<const float> context_row) {
  const int32_t num_cands = cross.rows();
  Matrix features = cross;
  if (!context_row.empty()) {
    const int32_t ctx = static_cast<int32_t>(context_row.size());
    features = Matrix(num_cands, cross.cols() + ctx);
    for (int32_t i = 0; i < num_cands; ++i) {
      for (int32_t j = 0; j < cross.cols(); ++j) {
        features.at(i, j) = cross.at(i, j);
      }
      for (int32_t j = 0; j < ctx; ++j) {
        features.at(i, cross.cols() + j) = context_row[static_cast<size_t>(j)];
      }
    }
  }
  const size_t heads = p.head_w.size();
  std::vector<float> probs(static_cast<size_t>(num_cands) * heads);
  for (size_t h = 0; h < heads; ++h) {
    Matrix x = features;
    for (size_t li = 0; li < p.head_w[h].size(); ++li) {
      if (li > 0) ReluInPlace(&x);
      Matrix y = MatMulValues(x, *p.head_w[h][li]);
      const Matrix& b = *p.head_b[h][li];
      for (int32_t i = 0; i < y.rows(); ++i) {
        for (int32_t j = 0; j < y.cols(); ++j) y.at(i, j) += b.at(0, j);
      }
      x = std::move(y);
    }
    for (int32_t i = 0; i < num_cands; ++i) {
      probs[static_cast<size_t>(i) * heads + h] =
          1.0f / (1.0f + std::exp(-x.at(i, 0)));
    }
  }
  return probs;
}

// ---------- Fixtures ----------

std::vector<SimdLevel> HostLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= DetectedSimdLevel()) levels.push_back(level);
  }
  return levels;
}

bool SameBits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

struct Family {
  std::string name;
  DatasetSpec spec;
};

class InferenceReferenceTest : public ::testing::Test {
 protected:
  void TearDown() override { SetActiveSimdLevel(DetectedSimdLevel()); }
};

TEST_F(InferenceReferenceTest, CrossRowsAndHeadsMatchReferenceBitForBit) {
  const Family families[] = {{"aids", DatasetSpec::AidsLike(16)},
                             {"syn", DatasetSpec::SynLike(16)}};
  ThreadPool pool(3);
  int compared = 0;
  for (const Family& family : families) {
    GraphDatabase db = GenerateDatabase(family.spec, 61);
    std::vector<CompressedGnnGraph> cgs;
    for (GraphId id = 0; id < db.size(); ++id) {
      cgs.push_back(BuildCompressedGnnGraph(db.Get(id), kLayers));
    }
    const Graph& query = db.Get(15);
    PairScorerOptions options;
    options.gnn_dims = {16, 16};
    options.mlp_hidden = 64;
    // M_rk's shape (context row, 4 heads) and M_nh's (one head).
    for (bool context : {true, false}) {
      PairScorer scorer(db.num_labels(), options, context ? 4 : 1, context);
      const Params params = ParamsOf(scorer);
      const QueryEncodingCache cg_query = scorer.EncodeQuery(cgs[15]);
      const QueryEncodingCache raw_query = scorer.EncodeQuery(query);
      Matrix ctx;
      if (context) ctx = scorer.ContextEmbedding(cgs[14]);
      const std::span<const float> ctx_row(
          ctx.data(), static_cast<size_t>(ctx.cols()));
      for (SimdLevel level : HostLevels()) {
        SetActiveSimdLevel(level);
        for (int n = 1; n <= 13; ++n) {
          SCOPED_TRACE(family.name + " " + SimdLevelName(level) + " n=" +
                       std::to_string(n) + (context ? " ctx" : ""));
          std::vector<const CompressedGnnGraph*> cg_batch;
          std::vector<const Graph*> raw_batch;
          for (int i = 0; i < n; ++i) {
            cg_batch.push_back(&cgs[static_cast<size_t>(i)]);
            raw_batch.push_back(&db.Get(i));
          }
          const Matrix want_cg =
              RefInferCross(params, db.num_labels(), cg_batch, cg_query);
          const Matrix want_raw =
              RefInferCross(params, db.num_labels(), raw_batch, raw_query);
          Matrix got_cg, got_raw, pooled;
          scorer.InferCross(cg_batch, cg_query, &got_cg);
          scorer.InferCross(raw_batch, raw_query, &got_raw);
          ASSERT_TRUE(got_cg.SameShape(want_cg));
          ASSERT_TRUE(got_raw.SameShape(want_raw));
          EXPECT_TRUE(SameBits(got_cg.data(), want_cg.data(),
                               static_cast<size_t>(want_cg.size())));
          EXPECT_TRUE(SameBits(got_raw.data(), want_raw.data(),
                               static_cast<size_t>(want_raw.size())));
          scorer.InferCross(cg_batch, cg_query, &pooled, &pool);
          EXPECT_TRUE(SameBits(pooled.data(), want_cg.data(),
                               static_cast<size_t>(want_cg.size())));

          std::vector<float> got_probs;
          for (const Matrix* cross : {&got_cg, &got_raw}) {
            const std::vector<float> want_probs =
                RefInferHeads(params, *cross, ctx_row);
            scorer.InferHeads(*cross, ctx_row, &got_probs);
            ASSERT_EQ(got_probs.size(), want_probs.size());
            EXPECT_TRUE(SameBits(got_probs.data(), want_probs.data(),
                                 want_probs.size()));
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 2 * 2 * 13 * static_cast<int>(HostLevels().size()));
}

}  // namespace
}  // namespace lan
