#include "lan/pair_scorer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lan {

PairScorer::PairScorer(int32_t num_labels, const PairScorerOptions& options,
                       int num_heads, bool context)
    : num_labels_(num_labels), options_(options), context_(context) {
  LAN_CHECK_GT(num_heads, 0);
  Rng rng(options_.seed);
  cross_ = CrossGraphEncoder(num_labels_, options_.gnn_dims, &store_, &rng);
  if (context_) {
    context_gin_ = GinEncoder(num_labels_, options_.gnn_dims, &store_, &rng);
  }
  int32_t feature_dim = cross_.cross_dim();
  if (context_) feature_dim += context_gin_.output_dim();
  for (int h = 0; h < num_heads; ++h) {
    heads_.emplace_back(
        std::vector<int32_t>{feature_dim, options_.mlp_hidden, 1}, &store_,
        &rng);
  }
}

VarId PairScorer::Heads(Tape* tape, VarId features) const {
  VarId out = kNoVar;
  for (const Mlp& head : heads_) {
    const VarId logit = head.Forward(tape, features);
    out = (out == kNoVar) ? logit : tape->ConcatCols(out, logit);
  }
  return out;
}

VarId PairScorer::ForwardCompressed(Tape* tape, const CompressedGnnGraph& g,
                                    const CompressedGnnGraph& q,
                                    const CompressedGnnGraph* context) const {
  VarId features = cross_.ForwardCompressed(tape, g, q);
  if (context_) {
    LAN_CHECK(context != nullptr);
    features = tape->ConcatCols(features,
                                context_gin_.ForwardGraphCompressed(tape, *context));
  }
  return Heads(tape, features);
}

VarId PairScorer::ForwardRaw(Tape* tape, const Graph& g, const Graph& q,
                             const Graph* context) const {
  VarId features = cross_.Forward(tape, g, q);
  if (context_) {
    LAN_CHECK(context != nullptr);
    features =
        tape->ConcatCols(features, context_gin_.ForwardGraph(tape, *context));
  }
  return Heads(tape, features);
}

Matrix PairScorer::ContextEmbedding(const CompressedGnnGraph& cg) const {
  LAN_CHECK(context_);
  return context_gin_.InferGraphEmbeddingCompressed(cg);
}

QueryEncodingCache PairScorer::EncodeQuery(const CompressedGnnGraph& q) const {
  return cross_.EncodeQuery(q);
}

QueryEncodingCache PairScorer::EncodeQuery(const Graph& q) const {
  return cross_.EncodeQuery(q);
}

namespace {

/// Per-thread working storage of InferHeads: the feature rows (when a
/// context row is appended), and one head's output and hidden layers.
struct HeadScratch {
  std::vector<float> features;
  Matrix out, hidden;
};

HeadScratch& ThreadHeadScratch() {
  static thread_local HeadScratch scratch;
  return scratch;
}

}  // namespace

void PairScorer::InferHeads(const Matrix& cross,
                            std::span<const float> context_row,
                            std::vector<float>* probs) const {
  const int32_t num_cands = cross.rows();
  const size_t num_heads = heads_.size();
  HeadScratch& s = ThreadHeadScratch();
  const float* features = cross.data();
  if (!context_row.empty()) {
    LAN_CHECK(context_);
    const int32_t ctx_cols = static_cast<int32_t>(context_row.size());
    const int32_t feature_dim = cross.cols() + ctx_cols;
    s.features.resize(static_cast<size_t>(num_cands) * feature_dim);
    for (int32_t i = 0; i < num_cands; ++i) {
      float* row = s.features.data() + static_cast<size_t>(i) * feature_dim;
      const float* src = cross.data() + static_cast<size_t>(i) * cross.cols();
      std::copy(src, src + cross.cols(), row);
      std::copy(context_row.begin(), context_row.end(), row + cross.cols());
    }
    features = s.features.data();
  }
  LAN_CHECK_EQ(cross.cols() + static_cast<int32_t>(context_row.size()),
               heads_[0].layers()[0].in_dim());
  probs->resize(static_cast<size_t>(num_cands) * num_heads);
  for (size_t h = 0; h < num_heads; ++h) {
    heads_[h].InferForward(features, num_cands, &s.out, &s.hidden);
    for (int32_t i = 0; i < num_cands; ++i) {
      (*probs)[static_cast<size_t>(i) * num_heads + h] =
          1.0f / (1.0f + std::exp(-s.out.at(i, 0)));
    }
  }
}

void PairScorer::InferCross(const std::vector<const CompressedGnnGraph*>& gs,
                            const QueryEncodingCache& query, Matrix* out,
                            ThreadPool* pool) const {
  cross_.InferCrossEmbeddings(gs, query, out, pool);
}

void PairScorer::InferCross(const std::vector<const Graph*>& gs,
                            const QueryEncodingCache& query, Matrix* out,
                            ThreadPool* pool) const {
  cross_.InferCrossEmbeddings(gs, query, out, pool);
}

}  // namespace lan
