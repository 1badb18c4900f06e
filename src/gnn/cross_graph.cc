#include "gnn/cross_graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "gnn/gnn_graph.h"
#include "nn/kernels.h"

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

/// Applies `s` to rows [src_off, src_off + s.cols) of the `cols`-wide
/// row-major `x`, accumulating into rows [dst_off, dst_off + s.rows) of
/// `out` (zero-initialized by the caller). Entry order matches
/// SparseMatrix::Apply, so the destination segment equals
/// s.Apply(segment) bit for bit.
void ApplySparseOffset(const SparseMatrix& s, const float* x, int32_t cols,
                       int32_t src_off, float* out, int32_t dst_off) {
  for (const SparseMatrix::Entry& e : s.entries) {
    const float* xrow = x + static_cast<size_t>(e.col + src_off) * cols;
    float* orow = out + static_cast<size_t>(e.row + dst_off) * cols;
    for (int32_t j = 0; j < cols; ++j) orow[j] += e.weight * xrow[j];
  }
}

/// ApplySparseOffset on one-hot rows, given as their labels: every other
/// column of a source row is an exact zero, whose product adds nothing to
/// a destination entry that is never -0, so only the label column moves.
void ApplySparseOneHot(const SparseMatrix& s, const int32_t* labels,
                       int32_t cols, int32_t src_off, float* out,
                       int32_t dst_off) {
  for (const SparseMatrix::Entry& e : s.entries) {
    float* orow = out + static_cast<size_t>(e.row + dst_off) * cols;
    orow[labels[e.col + src_off]] += e.weight * 1.0f;
  }
}

/// The candidate-type-specific parts of the stacked forward.
int32_t Rows(const CompressedGnnGraph& cg, int level) {
  return cg.NumGroups(level);
}
int32_t Rows(const Graph& g, int /*level*/) { return g.NumNodes(); }

std::span<const Label> Level0Labels(const CompressedGnnGraph& cg) {
  return cg.level0_group_labels;
}
std::span<const Label> Level0Labels(const Graph& g) { return g.labels(); }

void CheckCandidate(const CompressedGnnGraph& cg, int num_layers) {
  LAN_CHECK_EQ(cg.num_layers, num_layers);
  LAN_CHECK_EQ(cg.log_group_size.size(), static_cast<size_t>(num_layers));
}
void CheckCandidate(const Graph& g, int /*num_layers*/) {
  LAN_CHECK_GT(g.NumNodes(), 0);
}

/// t = agg h_self for one candidate at layer l (one-hot rows when
/// `labels` is given).
void Aggregate(const CompressedGnnGraph& cg, int l, const float* x,
               const int32_t* labels, int32_t cols, int32_t src_off,
               float* out, int32_t dst_off) {
  const SparseMatrix& agg = cg.aggregation[static_cast<size_t>(l)];
  if (labels != nullptr) {
    ApplySparseOneHot(agg, labels, cols, src_off, out, dst_off);
  } else {
    ApplySparseOffset(agg, x, cols, src_off, out, dst_off);
  }
}
void Aggregate(const Graph& g, int l, const float* x, const int32_t* labels,
               int32_t cols, int32_t src_off, float* out, int32_t dst_off) {
  const GnnGraph gg(g, l + 1);
  if (labels != nullptr) {
    gg.ApplyAggregationOneHot(labels, cols, src_off, out, dst_off);
  } else {
    gg.ApplyAggregation(x, cols, src_off, out, dst_off);
  }
}

const float* LogWeights(const CompressedGnnGraph& cg, int l) {
  return cg.log_group_size[static_cast<size_t>(l)].data();
}
const float* LogWeights(const Graph& /*g*/, int /*l*/) { return nullptr; }

/// Per-thread working storage of the stacked forward: one chunk's
/// embeddings, scores, aggregation and attention buffers. It grows to the
/// largest chunk its thread has run, so a warm thread allocates nothing.
struct InferScratch {
  /// offsets[l * (num_cands + 1) + i] = first stacked row of candidate i
  /// at level l.
  std::vector<int32_t> offsets;
  std::vector<int32_t> labels_g;
  std::vector<float> hg, hq, next_g, next_q, lifted_g, lifted_q;
  std::vector<float> s_self_g, s_other_g, s_self_q, s_other_q;
  std::vector<float> xg, xq, logits, mu, ones;
  /// The distinct self scores of one attention block and each row's index
  /// among them.
  std::vector<float> distinct;
  std::vector<int32_t> distinct_of;
};

InferScratch& ThreadInferScratch() {
  static thread_local InferScratch scratch;
  return scratch;
}

float* Zeroed(std::vector<float>* v, size_t n) {
  v->assign(n, 0.0f);
  return v->data();
}

/// `rows` x 1 scores of row-major rows x k against the k x 1 vector `a`
/// (the n == 1 product of MatMulValues).
float* Scores(const float* x, int32_t rows, int32_t k, const Matrix& a,
              std::vector<float>* out) {
  float* s = Zeroed(out, static_cast<size_t>(rows));
  MatMulAccumulate(x, rows, k, a.data(), 1, s);
  return s;
}

/// The same scores for one-hot rows given by their labels: the product's
/// chain adds exact zeros around the single 1 * a[label] term, which
/// `0.0f + a[label]` reproduces (finite weights).
float* OneHotScores(const int32_t* labels, int32_t rows, const Matrix& a,
                    std::vector<float>* out) {
  out->resize(static_cast<size_t>(rows));
  float* s = out->data();
  for (int32_t r = 0; r < rows; ++r) s[r] = 0.0f + a.data()[labels[r]];
  return s;
}

/// One attention block: each of `rows` self rows attends over the same
/// `cols` other rows (`values`, cols x d), and x_r += sum_c alpha_rc
/// values_c. The logits of a row depend on its self score alone, so rows
/// with bitwise-equal self scores share one softmax and one message row
/// (each message element is one chain of its softmax row; contract 4).
void Attend(const float* self, int32_t rows, const float* other, int32_t cols,
            const float* log_w, const float* values, int32_t d, float* x,
            InferScratch* s) {
  std::vector<float>& distinct = s->distinct;
  std::vector<int32_t>& distinct_of = s->distinct_of;
  distinct.clear();
  distinct_of.resize(static_cast<size_t>(rows));
  for (int32_t r = 0; r < rows; ++r) {
    uint32_t bits;
    std::memcpy(&bits, &self[r], sizeof(bits));
    int32_t u = 0;
    for (; u < static_cast<int32_t>(distinct.size()); ++u) {
      uint32_t seen;
      std::memcpy(&seen, &distinct[static_cast<size_t>(u)], sizeof(seen));
      if (seen == bits) break;
    }
    if (u == static_cast<int32_t>(distinct.size())) distinct.push_back(self[r]);
    distinct_of[static_cast<size_t>(r)] = u;
  }
  const int32_t nd = static_cast<int32_t>(distinct.size());
  s->logits.resize(static_cast<size_t>(nd) * cols);
  for (int32_t u = 0; u < nd; ++u) {
    float* lrow = s->logits.data() + static_cast<size_t>(u) * cols;
    const float sr = distinct[static_cast<size_t>(u)];
    for (int32_t c = 0; c < cols; ++c) {
      float e = sr + other[c];
      if (log_w != nullptr) e += log_w[c];
      lrow[c] = e;
    }
  }
  SoftmaxRowsInPlace(s->logits.data(), nd, cols);
  float* mu = Zeroed(&s->mu, static_cast<size_t>(nd) * d);
  MatMulAccumulate(s->logits.data(), nd, cols, values, d, mu);
  for (int32_t r = 0; r < rows; ++r) {
    const float* src =
        mu + static_cast<size_t>(distinct_of[static_cast<size_t>(r)]) * d;
    float* dst = x + static_cast<size_t>(r) * d;
    for (int32_t t = 0; t < d; ++t) dst[t] += src[t];
  }
}

// Large batches are scored in independent chunks so the stacked per-layer
// matrices stay cache-resident (a 32-candidate batch at 128-dim layers
// streams ~700 KB per layer, well past L2). Every candidate's rows depend
// only on its own segment and the query, so chunking leaves each output
// row bitwise unchanged, and the chunks may run on `pool` concurrently:
// each writes only its own rows of the output.
constexpr size_t kInferChunkSize = 4;

}  // namespace

template <typename G>
void CrossGraphEncoder::InferInChunks(const std::vector<const G*>& gs,
                                      const QueryEncodingCache& query,
                                      Matrix* out, ThreadPool* pool) const {
  const size_t n = gs.size();
  out->Reset(static_cast<int32_t>(n), cross_dim());
  if (n == 0) return;
  // ceil(n / 4) chunks, as even as they go (sizes differ by at most one).
  const size_t chunks = (n + kInferChunkSize - 1) / kInferChunkSize;
  const auto run = [&](size_t c) {
    const size_t begin = c * n / chunks;
    const size_t end = (c + 1) * n / chunks;
    InferStacked<G>(std::span<const G* const>(gs.data() + begin, end - begin),
                    query,
                    out->data() + begin * static_cast<size_t>(cross_dim()));
  };
  if (chunks == 1) {
    run(0);
  } else {
    ParallelFor(pool, chunks, run);
  }
}

template <typename G>
void CrossGraphEncoder::InferStacked(std::span<const G* const> gs,
                                     const QueryEncodingCache& query,
                                     float* out) const {
  // CGs (Definition 3) or raw graphs (Definition 1); the public entry
  // points check that the query cache is of the same kind.
  constexpr bool kCompressed = std::is_same_v<G, CompressedGnnGraph>;
  const int L = num_layers();
  LAN_CHECK_EQ(query.num_layers, L);
  LAN_CHECK_EQ(query.one_hot.cols(), input_dim_);
  InferScratch& s = ThreadInferScratch();
  const int32_t nc = static_cast<int32_t>(gs.size());
  const size_t stride = static_cast<size_t>(nc) + 1;
  // Stacked layout: all candidates' level-l rows back to back.
  s.offsets.assign(static_cast<size_t>(L + 1) * stride, 0);
  const auto off = [&s, stride](int l, int32_t i) {
    return s.offsets[static_cast<size_t>(l) * stride + static_cast<size_t>(i)];
  };
  s.labels_g.clear();
  for (int32_t i = 0; i < nc; ++i) {
    const G& g = *gs[static_cast<size_t>(i)];
    CheckCandidate(g, L);
    for (int l = 0; l <= L; ++l) {
      s.offsets[static_cast<size_t>(l) * stride + static_cast<size_t>(i) + 1] =
          off(l, i) + Rows(g, l);
    }
    const std::span<const Label> labels = Level0Labels(g);
    s.labels_g.insert(s.labels_g.end(), labels.begin(), labels.end());
  }
  for (int32_t label : s.labels_g) {
    LAN_CHECK_GE(label, 0);
    LAN_CHECK_LT(label, input_dim_);
  }

  // Level-0 rows are one-hot. hg holds every candidate's rows; hq holds
  // one copy of the query rows per candidate, except at the first layer,
  // where every copy is still the query's own one-hot block and the
  // query-side work is done once.
  int32_t d_in = input_dim_;
  {
    float* hg = Zeroed(&s.hg, static_cast<size_t>(off(0, nc)) * d_in);
    for (size_t r = 0; r < s.labels_g.size(); ++r) {
      hg[r * static_cast<size_t>(d_in) + static_cast<size_t>(s.labels_g[r])] =
          1.0f;
    }
  }
  const int32_t* labels_q = query.level0_labels.data();

  for (int l = 0; l < L; ++l) {
    const size_t ls = static_cast<size_t>(l);
    const bool first = (l == 0);
    const Matrix& w_proj = weights_[ls]->value;
    const Matrix& a1 = attn_self_[ls]->value;
    const Matrix& a2 = attn_other_[ls]->value;
    const int32_t d_out = w_proj.cols();
    const int32_t mq_in = query.rows_per_level[ls];
    const int32_t mq_out = query.rows_per_level[ls + 1];
    const int32_t total_in = off(l, nc);
    const int32_t total_out = off(l + 1, nc);
    const int32_t q_copies = first ? 1 : nc;
    const float* hg = s.hg.data();
    const float* hq = first ? query.one_hot.data() : s.hq.data();
    const int32_t* one_hot_g = first ? s.labels_g.data() : nullptr;
    const int32_t* one_hot_q = first ? labels_q : nullptr;

    // Attention scores. On CGs the self rows are first lifted to the
    // current level so the attention term lines up row-wise with the
    // aggregation term (raw graphs keep their rows: the lift is the
    // identity).
    const float* s_self_g;
    const float* s_self_q;
    if constexpr (kCompressed) {
      float* lifted_g = Zeroed(&s.lifted_g, static_cast<size_t>(total_out) * d_in);
      float* lifted_q =
          Zeroed(&s.lifted_q, static_cast<size_t>(q_copies) * mq_out * d_in);
      for (int32_t i = 0; i < nc; ++i) {
        const SparseMatrix& lift = gs[static_cast<size_t>(i)]->lift[ls];
        if (first) {
          ApplySparseOneHot(lift, one_hot_g, d_in, off(l, i), lifted_g,
                            off(l + 1, i));
        } else {
          ApplySparseOffset(lift, hg, d_in, off(l, i), lifted_g, off(l + 1, i));
        }
      }
      for (int32_t i = 0; i < q_copies; ++i) {
        if (first) {
          ApplySparseOneHot(query.lift[ls], one_hot_q, d_in, 0, lifted_q, 0);
        } else {
          ApplySparseOffset(query.lift[ls], hq, d_in, i * mq_in, lifted_q,
                            i * mq_out);
        }
      }
      s_self_g = Scores(lifted_g, total_out, d_in, a1, &s.s_self_g);
      s_self_q = Scores(lifted_q, q_copies * mq_out, d_in, a1, &s.s_self_q);
    } else if (first) {
      s_self_g = OneHotScores(one_hot_g, total_out, a1, &s.s_self_g);
      s_self_q = OneHotScores(one_hot_q, mq_out, a1, &s.s_self_q);
    } else {
      s_self_g = Scores(hg, total_out, d_in, a1, &s.s_self_g);
      s_self_q = Scores(hq, q_copies * mq_out, d_in, a1, &s.s_self_q);
    }
    const float* s_other_g =
        first ? OneHotScores(one_hot_g, total_in, a2, &s.s_other_g)
              : Scores(hg, total_in, d_in, a2, &s.s_other_g);
    const float* s_other_q =
        first ? OneHotScores(one_hot_q, mq_in, a2, &s.s_other_q)
              : Scores(hq, q_copies * mq_in, d_in, a2, &s.s_other_q);

    // Aggregation terms t = agg h_self, written segment-wise into the x
    // buffers that then accumulate the attention messages.
    float* xg = Zeroed(&s.xg, static_cast<size_t>(total_out) * d_in);
    float* xq = Zeroed(&s.xq, static_cast<size_t>(nc) * mq_out * d_in);
    for (int32_t i = 0; i < nc; ++i) {
      Aggregate(*gs[static_cast<size_t>(i)], l, hg, one_hot_g, d_in,
                off(l, i), xg, off(l + 1, i));
    }
    for (int32_t i = 0; i < q_copies; ++i) {
      if (first) {
        ApplySparseOneHot(query.aggregation[ls], one_hot_q, d_in, 0, xq, 0);
      } else {
        ApplySparseOffset(query.aggregation[ls], hq, d_in, i * mq_in, xq,
                          i * mq_out);
      }
    }
    const size_t q_block = static_cast<size_t>(mq_out) * d_in;
    for (int32_t i = q_copies; i < nc; ++i) {
      std::copy(xq, xq + q_block, xq + static_cast<size_t>(i) * q_block);
    }

    const float* q_log_w =
        kCompressed ? query.log_multiplicity[ls].data() : nullptr;
    // G side at the first layer: every candidate row attends over the same
    // query rows, so all pairs form one block.
    if (first) {
      Attend(s_self_g, total_out, s_other_q, mq_in, q_log_w, hq, d_in, xg, &s);
    }
    // Block-diagonal attention per pair.
    for (int32_t i = 0; i < nc; ++i) {
      const G& g = *gs[static_cast<size_t>(i)];
      const int32_t g_in = off(l, i);
      const int32_t g_out = off(l + 1, i);
      if (!first) {
        // G side: candidate rows attend over the query's level-l rows.
        Attend(s_self_g + g_out, off(l + 1, i + 1) - g_out,
               s_other_q + static_cast<size_t>(i) * mq_in, mq_in, q_log_w,
               hq + static_cast<size_t>(i) * mq_in * d_in, d_in,
               xg + static_cast<size_t>(g_out) * d_in, &s);
      }
      // Q side: query rows attend over the candidate's level-l rows.
      Attend(s_self_q + (first ? 0 : static_cast<size_t>(i) * mq_out), mq_out,
             s_other_g + g_in, off(l, i + 1) - g_in, LogWeights(g, l),
             hg + static_cast<size_t>(g_in) * d_in, d_in,
             xq + static_cast<size_t>(i) * q_block, &s);
    }

    // One projection GEMM per side over the whole stacked batch.
    const KernelTable& kt = ActiveKernels();
    float* next_g =
        Zeroed(&s.next_g, static_cast<size_t>(total_out) * d_out);
    MatMulAccumulate(xg, total_out, d_in, w_proj.data(), d_out, next_g);
    kt.relu(next_g, static_cast<int64_t>(total_out) * d_out);
    float* next_q =
        Zeroed(&s.next_q, static_cast<size_t>(nc) * mq_out * d_out);
    MatMulAccumulate(xq, nc * mq_out, d_in, w_proj.data(), d_out, next_q);
    kt.relu(next_q, static_cast<int64_t>(nc) * mq_out * d_out);
    s.hg.swap(s.next_g);
    s.hq.swap(s.next_q);
    d_in = d_out;
  }

  // Readout: weighted mean per segment, concatenated as h_G || h_Q.
  const int32_t d_out = d_in;
  const int32_t mq_top = query.rows_per_level[static_cast<size_t>(L)];
  for (int32_t i = 0; i < nc; ++i) {
    const G& g = *gs[static_cast<size_t>(i)];
    const int32_t g_off = off(L, i);
    const int32_t g_rows = off(L, i + 1) - g_off;
    const float* weights;
    if constexpr (kCompressed) {
      weights = g.readout_weights.data();
    } else {
      if (s.ones.size() < static_cast<size_t>(g_rows)) {
        s.ones.assign(static_cast<size_t>(g_rows), 1.0f);
      }
      weights = s.ones.data();
    }
    float* row = out + static_cast<size_t>(i) * cross_dim();
    WeightedMeanRowsInto(s.hg.data() + static_cast<size_t>(g_off) * d_out,
                         g_rows, d_out, weights, row);
    WeightedMeanRowsInto(
        s.hq.data() + static_cast<size_t>(i) * mq_top * d_out, mq_top, d_out,
        query.readout_weights.data(), row + d_out);
  }
}

QueryEncodingCache CrossGraphEncoder::EncodeQuery(
    const CompressedGnnGraph& q) const {
  LAN_CHECK_EQ(q.num_layers, num_layers());
  QueryEncodingCache cache;
  cache.compressed = true;
  cache.num_layers = num_layers();
  cache.level0_labels = q.level0_group_labels;
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
  cache.level0_labels.assign(q.labels().begin(), q.labels().end());
  cache.one_hot = OneHot(q);
  cache.rows_per_level.assign(static_cast<size_t>(num_layers()) + 1,
                              q.NumNodes());
  const GnnGraph gq(q, num_layers());
  const SparseMatrix agg = gq.AggregationOperator();
  cache.aggregation.assign(static_cast<size_t>(num_layers()), agg);
  cache.readout_weights.assign(static_cast<size_t>(q.NumNodes()), 1.0f);
  return cache;
}

const QueryEncodingCache& LazyQueryCg::Encoding(
    const CrossGraphEncoder& encoder, bool compressed) {
  if (!encoded_) {
    encoding_ = compressed ? encoder.EncodeQuery(Get())
                           : encoder.EncodeQuery(*query_);
    encoded_ = true;
  }
  LAN_CHECK_EQ(encoding_.compressed, compressed);
  LAN_CHECK_EQ(encoding_.num_layers, encoder.num_layers());
  LAN_CHECK_EQ(encoding_.one_hot.cols(), encoder.input_dim());
  return encoding_;
}

void CrossGraphEncoder::InferCrossEmbeddings(
    const std::vector<const CompressedGnnGraph*>& gs,
    const QueryEncodingCache& query, Matrix* out, ThreadPool* pool) const {
  LAN_CHECK(query.compressed);
  InferInChunks(gs, query, out, pool);
}

void CrossGraphEncoder::InferCrossEmbeddings(
    const std::vector<const Graph*>& gs, const QueryEncodingCache& query,
    Matrix* out, ThreadPool* pool) const {
  LAN_CHECK(!query.compressed);
  InferInChunks(gs, query, out, pool);
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
