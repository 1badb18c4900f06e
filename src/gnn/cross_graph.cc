#include "gnn/cross_graph.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "gnn/gnn_graph.h"

namespace lan {

CrossGraphComplexity ComputeCrossComplexity(const Graph& g, const Graph& q,
                                            int num_layers) {
  // Definition 1 over L layers: every level replicates V and E; attention
  // touches every (u in G, v in Q) pair per layer, both directions.
  CrossGraphComplexity c;
  const int64_t nodes = g.NumNodes() + q.NumNodes();
  const int64_t edges =
      (2 * g.NumEdges() + g.NumNodes()) + (2 * q.NumEdges() + q.NumNodes());
  c.node_terms = static_cast<int64_t>(num_layers) * nodes;
  c.edge_terms = static_cast<int64_t>(num_layers) * edges;
  c.attention_pairs = static_cast<int64_t>(num_layers) * 2 *
                      static_cast<int64_t>(g.NumNodes()) * q.NumNodes();
  return c;
}

CrossGraphComplexity ComputeCrossComplexity(const CompressedGnnGraph& g,
                                            const CompressedGnnGraph& q) {
  // Theorem 3: O(|V(H*)| + |E(H*)| + sum_l |V_l(G*)| |V_l(Q*)|).
  CrossGraphComplexity c;
  c.node_terms = g.NumNodes() + q.NumNodes();
  c.edge_terms = g.NumEdges() + q.NumEdges();
  for (int l = 1; l <= g.num_layers; ++l) {
    c.attention_pairs += 2 * static_cast<int64_t>(g.NumGroups(l - 1)) *
                         q.NumGroups(l - 1);
  }
  return c;
}

CrossGraphEncoder::CrossGraphEncoder(int32_t input_dim,
                                     std::vector<int32_t> layer_dims,
                                     ParamStore* store, Rng* rng)
    : input_dim_(input_dim), layer_dims_(std::move(layer_dims)) {
  LAN_CHECK_GT(input_dim_, 0);
  LAN_CHECK(!layer_dims_.empty());
  int32_t in = input_dim_;
  for (int32_t out : layer_dims_) {
    weights_.push_back(store->Create(Matrix::XavierUniform(in, out, rng)));
    attn_self_.push_back(store->Create(Matrix::XavierUniform(in, 1, rng)));
    attn_other_.push_back(store->Create(Matrix::XavierUniform(in, 1, rng)));
    in = out;
  }
}

Matrix CrossGraphEncoder::OneHot(const Graph& g) const {
  std::vector<int32_t> ids;
  ids.reserve(static_cast<size_t>(g.NumNodes()));
  for (NodeId v = 0; v < g.NumNodes(); ++v) ids.push_back(g.label(v));
  return Matrix::OneHotRows(ids, input_dim_);
}

Matrix CrossGraphEncoder::OneHot(const CompressedGnnGraph& cg) const {
  std::vector<int32_t> ids(cg.level0_group_labels.begin(),
                           cg.level0_group_labels.end());
  return Matrix::OneHotRows(ids, input_dim_);
}

VarId CrossGraphEncoder::LayerOneSide(
    Tape* tape, VarId h_self, VarId h_other, const SparseMatrix& agg,
    int layer, const std::vector<float>* other_weights,
    const SparseMatrix* lift_self) const {
  const size_t l = static_cast<size_t>(layer);
  // Attention logits e_{u,v} = a1 . h_u + a2 . h_v decompose into an outer
  // sum of two matrix-vector products. On CGs the previous-level group
  // embeddings are lifted to the (finer) current-level groups first, so
  // the attention term lines up row-wise with the aggregation term.
  VarId h_self_rows =
      lift_self != nullptr ? tape->SparseApply(*lift_self, h_self) : h_self;
  VarId s_self = tape->MatMul(h_self_rows, tape->Param(attn_self_[l]));
  VarId s_other = tape->MatMul(h_other, tape->Param(attn_other_[l]));
  VarId logits = tape->OuterSum(s_self, s_other);
  if (other_weights != nullptr) {
    // Definition 3: multiplicities |q| fold into the softmax as log-weights.
    Matrix log_w(1, static_cast<int32_t>(other_weights->size()));
    for (size_t j = 0; j < other_weights->size(); ++j) {
      LAN_CHECK_GT((*other_weights)[j], 0.0f);
      log_w.at(0, static_cast<int32_t>(j)) = std::log((*other_weights)[j]);
    }
    logits = tape->AddConstRowBroadcast(logits, log_w);
  }
  VarId alpha = tape->SoftmaxRows(logits);
  VarId mu = tape->MatMul(alpha, h_other);
  VarId t = tape->SparseApply(agg, h_self);
  VarId x = tape->Add(t, mu);
  return tape->Relu(tape->MatMul(x, tape->Param(weights_[l])));
}

VarId CrossGraphEncoder::Forward(Tape* tape, const Graph& g,
                                 const Graph& q) const {
  const GnnGraph gg(g, num_layers());
  const GnnGraph gq(q, num_layers());
  return ForwardWithAggregators(tape, g, gg.AggregationOperator(), q,
                                gq.AggregationOperator());
}

VarId CrossGraphEncoder::ForwardWithAggregators(Tape* tape, const Graph& g,
                                                const SparseMatrix& agg_g,
                                                const Graph& q,
                                                const SparseMatrix& agg_q) const {
  LAN_CHECK_GT(g.NumNodes(), 0);
  LAN_CHECK_GT(q.NumNodes(), 0);
  VarId hg = tape->Input(OneHot(g));
  VarId hq = tape->Input(OneHot(q));
  for (int l = 0; l < num_layers(); ++l) {
    VarId hg_next = LayerOneSide(tape, hg, hq, agg_g, l, nullptr, nullptr);
    VarId hq_next = LayerOneSide(tape, hq, hg, agg_q, l, nullptr, nullptr);
    hg = hg_next;
    hq = hq_next;
  }
  VarId readout_g = tape->MeanRows(hg);
  VarId readout_q = tape->MeanRows(hq);
  return tape->ConcatCols(readout_g, readout_q);
}

namespace {

/// Applies `s` to rows [src_off, src_off + s.cols) of `x`, accumulating
/// into rows [dst_off, dst_off + s.rows) of `out` (zero-initialized by the
/// caller). Entry order matches SparseMatrix::Apply, so the destination
/// segment equals s.Apply(segment) bit for bit.
void ApplySparseOffset(const SparseMatrix& s, const Matrix& x, int32_t src_off,
                       Matrix* out, int32_t dst_off) {
  const int32_t cols = x.cols();
  for (const SparseMatrix::Entry& e : s.entries) {
    const float* xrow =
        x.data() + static_cast<size_t>(e.col + src_off) * cols;
    float* orow = out->data() + static_cast<size_t>(e.row + dst_off) * cols;
    for (int32_t j = 0; j < cols; ++j) orow[j] += e.weight * xrow[j];
  }
}

/// Copies the first `seg` floats of `m` over segments 1..copies-1.
void ReplicateSegment(Matrix* m, int64_t seg, int32_t copies) {
  for (int32_t i = 1; i < copies; ++i) {
    std::copy(m->data(), m->data() + seg, m->data() + i * seg);
  }
}

// Large batches are scored in independent chunks so the stacked per-layer
// matrices stay cache-resident (a 32-candidate batch at 128-dim layers
// streams ~700 KB per layer, well past L2). Every candidate's rows depend
// only on its own segment and the query, so chunking leaves each output
// row bitwise unchanged, and the chunks may run on `pool` concurrently:
// each writes only its own rows of the output.
constexpr size_t kInferChunkSize = 4;

template <typename G>
Matrix InferInChunks(const CrossGraphEncoder& encoder,
                     const std::vector<const G*>& gs,
                     const QueryEncodingCache& query, ThreadPool* pool) {
  Matrix out(static_cast<int32_t>(gs.size()), encoder.cross_dim());
  const size_t chunks = (gs.size() + kInferChunkSize - 1) / kInferChunkSize;
  ParallelFor(pool, chunks, [&](size_t c) {
    const size_t begin = c * kInferChunkSize;
    const size_t end = std::min(gs.size(), begin + kInferChunkSize);
    const std::vector<const G*> chunk(gs.begin() + static_cast<int64_t>(begin),
                                      gs.begin() + static_cast<int64_t>(end));
    const Matrix part = encoder.InferCrossEmbeddings(chunk, query);
    std::copy(part.data(), part.data() + part.size(),
              out.data() + begin * static_cast<size_t>(encoder.cross_dim()));
  });
  return out;
}

}  // namespace

/// Stacked layout of the candidate side of a batch: all candidates'
/// level-l rows concatenated, with per-candidate segment offsets so the
/// block-diagonal attention can address each pair.
struct CrossGraphEncoder::CandidateBatch {
  /// offsets[l][i]..offsets[l][i+1] = stacked row range of candidate i at
  /// level l (raw graphs: identical at every level).
  std::vector<std::vector<int32_t>> offsets;
  /// Stacked level-0 one-hot rows of all candidates.
  Matrix one_hot;
  /// Per (candidate, layer) operators, flattened as [i * L + l]. `lift` is
  /// empty for raw graphs, as is `log_multiplicity`.
  std::vector<const SparseMatrix*> aggregation;
  std::vector<const SparseMatrix*> lift;
  std::vector<std::vector<float>> log_multiplicity;
  /// Per-candidate readout weights (CG: group sizes; raw: all ones).
  std::vector<std::vector<float>> readout;
  /// Raw path only: owns the per-candidate GnnGraph operators.
  std::vector<SparseMatrix> raw_aggregation;
};

QueryEncodingCache CrossGraphEncoder::EncodeQuery(
    const CompressedGnnGraph& q) const {
  LAN_CHECK_EQ(q.num_layers, num_layers());
  QueryEncodingCache cache;
  cache.compressed = true;
  cache.num_layers = num_layers();
  cache.one_hot = OneHot(q);
  for (int l = 0; l <= num_layers(); ++l) {
    cache.rows_per_level.push_back(q.NumGroups(l));
  }
  for (int l = 0; l < num_layers(); ++l) {
    const size_t ls = static_cast<size_t>(l);
    cache.aggregation.push_back(q.aggregation[ls]);
    cache.lift.push_back(q.LiftOperator(l + 1));
    std::vector<float> log_w;
    log_w.reserve(q.group_size[ls].size());
    for (int32_t size : q.group_size[ls]) {
      const float w = static_cast<float>(size);
      LAN_CHECK_GT(w, 0.0f);
      log_w.push_back(std::log(w));
    }
    cache.log_multiplicity.push_back(std::move(log_w));
  }
  cache.readout_weights = q.TopLevelWeights();
  return cache;
}

QueryEncodingCache CrossGraphEncoder::EncodeQuery(const Graph& q) const {
  LAN_CHECK_GT(q.NumNodes(), 0);
  QueryEncodingCache cache;
  cache.compressed = false;
  cache.num_layers = num_layers();
  cache.one_hot = OneHot(q);
  cache.rows_per_level.assign(static_cast<size_t>(num_layers()) + 1,
                              q.NumNodes());
  const GnnGraph gq(q, num_layers());
  const SparseMatrix agg = gq.AggregationOperator();
  cache.aggregation.assign(static_cast<size_t>(num_layers()), agg);
  cache.readout_weights.assign(static_cast<size_t>(q.NumNodes()), 1.0f);
  return cache;
}

Matrix CrossGraphEncoder::InferStacked(const CandidateBatch& cand,
                                       const QueryEncodingCache& query) const {
  const int L = num_layers();
  LAN_CHECK_EQ(query.num_layers, L);
  const int32_t num_cands = static_cast<int32_t>(cand.offsets[0].size()) - 1;
  if (num_cands == 0) return Matrix(0, cross_dim());

  // Stacked embeddings: hg holds every candidate's rows back to back; hq
  // holds one copy of the query rows per candidate (the query side of each
  // pair diverges after the first layer because attention is pairwise).
  Matrix hg = cand.one_hot;
  const int32_t mq0 = query.rows_per_level[0];
  Matrix hq(num_cands * mq0, input_dim_);
  for (int32_t i = 0; i < num_cands; ++i) {
    std::copy(query.one_hot.data(),
              query.one_hot.data() + static_cast<size_t>(mq0) * input_dim_,
              hq.data() + static_cast<size_t>(i) * mq0 * input_dim_);
  }

  // Reused across candidates/layers: attention logits (fully overwritten
  // each use) and zero-seeded message accumulators.
  std::vector<float> logits_buf;
  std::vector<float> mu_buf;
  for (int l = 0; l < L; ++l) {
    const size_t ls = static_cast<size_t>(l);
    const Matrix& w_proj = weights_[ls]->value;
    const Matrix& a1 = attn_self_[ls]->value;
    const Matrix& a2 = attn_other_[ls]->value;
    const int32_t d_in = hg.cols();
    const int32_t mq_in = query.rows_per_level[ls];
    const int32_t mq_out = query.rows_per_level[ls + 1];
    const std::vector<int32_t>& go_in = cand.offsets[ls];
    const std::vector<int32_t>& go_out = cand.offsets[ls + 1];

    // At the first layer every query segment is still the same copy of the
    // query's rows, so query-side work is done once and replicated, and
    // the candidate-side attention of all pairs shares one attended matrix
    // (one stacked GEMM instead of one small GEMM per candidate). The
    // copies are bitwise, so results are unchanged.
    const bool uniform_q = (l == 0);

    // Lift both sides' previous-level rows to the current level so the
    // attention term lines up row-wise with the aggregation term (raw
    // graphs keep their rows: the lift is the identity).
    Matrix hg_lifted;
    Matrix hq_lifted;
    if (query.compressed) {
      hg_lifted = Matrix(go_out[static_cast<size_t>(num_cands)], d_in);
      hq_lifted = Matrix(num_cands * mq_out, d_in);
      for (int32_t i = 0; i < num_cands; ++i) {
        ApplySparseOffset(*cand.lift[static_cast<size_t>(i) * L + ls], hg,
                          go_in[static_cast<size_t>(i)], &hg_lifted,
                          go_out[static_cast<size_t>(i)]);
      }
      if (uniform_q) {
        ApplySparseOffset(query.lift[ls], hq, 0, &hq_lifted, 0);
        ReplicateSegment(&hq_lifted, static_cast<int64_t>(mq_out) * d_in,
                         num_cands);
      } else {
        for (int32_t i = 0; i < num_cands; ++i) {
          ApplySparseOffset(query.lift[ls], hq, i * mq_in, &hq_lifted,
                            i * mq_out);
        }
      }
    }
    const Matrix& hg_rows = query.compressed ? hg_lifted : hg;
    const Matrix& hq_rows = query.compressed ? hq_lifted : hq;

    // All four attention score vectors in one GEMM each over the whole
    // stacked batch (the per-pair path does 4 tiny GEMVs per candidate).
    const Matrix s_self_g = MatMulValues(hg_rows, a1);
    const Matrix s_other_g = MatMulValues(hg, a2);
    const Matrix s_self_q = MatMulValues(hq_rows, a1);
    const Matrix s_other_q = MatMulValues(hq, a2);

    // Aggregation terms t = agg h_self, written segment-wise into the x
    // buffers that later accumulate the attention messages.
    Matrix xg(go_out[static_cast<size_t>(num_cands)], d_in);
    Matrix xq(num_cands * mq_out, d_in);
    for (int32_t i = 0; i < num_cands; ++i) {
      ApplySparseOffset(*cand.aggregation[static_cast<size_t>(i) * L + ls],
                        hg, go_in[static_cast<size_t>(i)], &xg,
                        go_out[static_cast<size_t>(i)]);
    }
    if (uniform_q) {
      ApplySparseOffset(query.aggregation[ls], hq, 0, &xq, 0);
      ReplicateSegment(&xq, static_cast<int64_t>(mq_out) * d_in, num_cands);
    } else {
      for (int32_t i = 0; i < num_cands; ++i) {
        ApplySparseOffset(query.aggregation[ls], hq, i * mq_in, &xq,
                          i * mq_out);
      }
    }

    const std::vector<float>* q_log_w =
        query.compressed ? &query.log_multiplicity[ls] : nullptr;

    // G side with a uniform query: every candidate row attends over the
    // same query matrix, so all pairs' logits stack into one softmax and
    // one GEMM against the query's (segment-0) rows.
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
      float* dst = xg.data();
      const int64_t count = static_cast<int64_t>(total_g) * d_in;
      for (int64_t t = 0; t < count; ++t) dst[t] += mu_buf[static_cast<size_t>(t)];
    }

    // Block-diagonal attention: logits, softmax, and message per pair.
    for (int32_t i = 0; i < num_cands; ++i) {
      const int32_t g_in = go_in[static_cast<size_t>(i)];
      const int32_t g_out = go_out[static_cast<size_t>(i)];
      const int32_t ng_in = go_in[static_cast<size_t>(i) + 1] - g_in;
      const int32_t ng_out = go_out[static_cast<size_t>(i) + 1] - g_out;

      // G side: candidate rows attend over the query's level-l groups.
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
        const int64_t count = static_cast<int64_t>(ng_out) * d_in;
        for (int64_t t = 0; t < count; ++t) {
          dst[t] += mu_buf[static_cast<size_t>(t)];
        }
      }

      // Q side: query rows attend over the candidate's level-l groups.
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
      const int64_t count = static_cast<int64_t>(mq_out) * d_in;
      for (int64_t t = 0; t < count; ++t) {
        dst[t] += mu_buf[static_cast<size_t>(t)];
      }
    }

    // One projection GEMM per side over the whole stacked batch.
    Matrix hg_next = MatMulValues(xg, w_proj);
    ReluInPlace(&hg_next);
    Matrix hq_next = MatMulValues(xq, w_proj);
    ReluInPlace(&hq_next);
    hg = std::move(hg_next);
    hq = std::move(hq_next);
  }

  // Readout: weighted mean per segment, concatenated as h_G || h_Q.
  const int32_t d_out = hg.cols();
  const int32_t mq_top = query.rows_per_level[static_cast<size_t>(L)];
  const std::vector<int32_t>& go_top = cand.offsets[static_cast<size_t>(L)];
  Matrix out(num_cands, cross_dim());
  for (int32_t i = 0; i < num_cands; ++i) {
    const int32_t g_off = go_top[static_cast<size_t>(i)];
    const int32_t g_rows = go_top[static_cast<size_t>(i) + 1] - g_off;
    float* row = out.data() + static_cast<size_t>(i) * cross_dim();
    WeightedMeanRowsInto(hg.data() + static_cast<size_t>(g_off) * d_out,
                         g_rows, d_out,
                         cand.readout[static_cast<size_t>(i)].data(), row);
    WeightedMeanRowsInto(
        hq.data() + static_cast<size_t>(i) * mq_top * d_out, mq_top, d_out,
        query.readout_weights.data(), row + d_out);
  }
  return out;
}

Matrix CrossGraphEncoder::InferCrossEmbeddings(
    const std::vector<const CompressedGnnGraph*>& gs,
    const QueryEncodingCache& query, ThreadPool* pool) const {
  LAN_CHECK(query.compressed);
  if (gs.size() > kInferChunkSize) {
    return InferInChunks(*this, gs, query, pool);
  }
  const int L = num_layers();
  CandidateBatch cand;
  cand.offsets.assign(static_cast<size_t>(L) + 1,
                      std::vector<int32_t>(gs.size() + 1, 0));
  std::vector<int32_t> level0_labels;
  cand.aggregation.reserve(gs.size() * static_cast<size_t>(L));
  cand.lift.reserve(gs.size() * static_cast<size_t>(L));
  cand.log_multiplicity.reserve(gs.size() * static_cast<size_t>(L));
  cand.readout.reserve(gs.size());
  for (size_t i = 0; i < gs.size(); ++i) {
    const CompressedGnnGraph& cg = *gs[i];
    LAN_CHECK_EQ(cg.num_layers, L);
    for (int l = 0; l <= L; ++l) {
      cand.offsets[static_cast<size_t>(l)][i + 1] =
          cand.offsets[static_cast<size_t>(l)][i] + cg.NumGroups(l);
    }
    level0_labels.insert(level0_labels.end(), cg.level0_group_labels.begin(),
                         cg.level0_group_labels.end());
    for (int l = 0; l < L; ++l) {
      const size_t ls = static_cast<size_t>(l);
      cand.aggregation.push_back(&cg.aggregation[ls]);
      cand.lift.push_back(&cg.LiftOperator(l + 1));
      std::vector<float> log_w;
      log_w.reserve(cg.group_size[ls].size());
      for (int32_t size : cg.group_size[ls]) {
        const float w = static_cast<float>(size);
        LAN_CHECK_GT(w, 0.0f);
        log_w.push_back(std::log(w));
      }
      cand.log_multiplicity.push_back(std::move(log_w));
    }
    cand.readout.push_back(cg.TopLevelWeights());
  }
  cand.one_hot = Matrix::OneHotRows(level0_labels, input_dim_);
  return InferStacked(cand, query);
}

Matrix CrossGraphEncoder::InferCrossEmbeddings(
    const std::vector<const Graph*>& gs, const QueryEncodingCache& query,
    ThreadPool* pool) const {
  LAN_CHECK(!query.compressed);
  if (gs.size() > kInferChunkSize) {
    return InferInChunks(*this, gs, query, pool);
  }
  const int L = num_layers();
  CandidateBatch cand;
  cand.offsets.assign(static_cast<size_t>(L) + 1,
                      std::vector<int32_t>(gs.size() + 1, 0));
  std::vector<int32_t> level0_labels;
  cand.raw_aggregation.reserve(gs.size());
  cand.aggregation.reserve(gs.size() * static_cast<size_t>(L));
  cand.readout.reserve(gs.size());
  for (size_t i = 0; i < gs.size(); ++i) {
    const Graph& g = *gs[i];
    LAN_CHECK_GT(g.NumNodes(), 0);
    for (int l = 0; l <= L; ++l) {
      cand.offsets[static_cast<size_t>(l)][i + 1] =
          cand.offsets[static_cast<size_t>(l)][i] + g.NumNodes();
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      level0_labels.push_back(g.label(v));
    }
    cand.raw_aggregation.push_back(GnnGraph(g, L).AggregationOperator());
    cand.readout.emplace_back(static_cast<size_t>(g.NumNodes()), 1.0f);
  }
  // Pointer setup after raw_aggregation stops growing (no reallocation).
  for (size_t i = 0; i < gs.size(); ++i) {
    for (int l = 0; l < L; ++l) {
      cand.aggregation.push_back(&cand.raw_aggregation[i]);
    }
  }
  cand.one_hot = Matrix::OneHotRows(level0_labels, input_dim_);
  return InferStacked(cand, query);
}

VarId CrossGraphEncoder::ForwardCompressed(Tape* tape,
                                           const CompressedGnnGraph& g,
                                           const CompressedGnnGraph& q) const {
  LAN_CHECK_EQ(g.num_layers, num_layers());
  LAN_CHECK_EQ(q.num_layers, num_layers());
  VarId hg = tape->Input(OneHot(g));
  VarId hq = tape->Input(OneHot(q));
  for (int l = 0; l < num_layers(); ++l) {
    const size_t ls = static_cast<size_t>(l);
    // Multiplicities of the attended (level l) groups on each side.
    std::vector<float> wg(g.group_size[ls].begin(), g.group_size[ls].end());
    std::vector<float> wq(q.group_size[ls].begin(), q.group_size[ls].end());
    const SparseMatrix& lift_g = g.LiftOperator(l + 1);
    const SparseMatrix& lift_q = q.LiftOperator(l + 1);
    VarId hg_next =
        LayerOneSide(tape, hg, hq, g.aggregation[ls], l, &wq, &lift_g);
    VarId hq_next =
        LayerOneSide(tape, hq, hg, q.aggregation[ls], l, &wg, &lift_q);
    hg = hg_next;
    hq = hq_next;
  }
  VarId readout_g = tape->WeightedMeanRows(hg, g.TopLevelWeights());
  VarId readout_q = tape->WeightedMeanRows(hq, q.TopLevelWeights());
  return tape->ConcatCols(readout_g, readout_q);
}

}  // namespace lan
