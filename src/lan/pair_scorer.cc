#include "lan/pair_scorer.h"

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

std::vector<std::vector<float>> PairScorer::InferHeads(
    const Matrix& cross, std::span<const float> context_row) const {
  const int32_t num_cands = cross.rows();
  Matrix features;
  if (!context_row.empty()) {
    LAN_CHECK(context_);
    const int32_t ctx_cols = static_cast<int32_t>(context_row.size());
    features = Matrix(num_cands, cross.cols() + ctx_cols);
    for (int32_t i = 0; i < num_cands; ++i) {
      for (int32_t j = 0; j < cross.cols(); ++j) {
        features.at(i, j) = cross.at(i, j);
      }
      for (int32_t j = 0; j < ctx_cols; ++j) {
        features.at(i, cross.cols() + j) = context_row[static_cast<size_t>(j)];
      }
    }
  } else {
    features = cross;
  }
  std::vector<std::vector<float>> probs(
      static_cast<size_t>(num_cands),
      std::vector<float>(heads_.size()));
  for (size_t h = 0; h < heads_.size(); ++h) {
    const Matrix logits = heads_[h].InferForward(features);
    for (int32_t i = 0; i < num_cands; ++i) {
      probs[static_cast<size_t>(i)][h] =
          1.0f / (1.0f + std::exp(-logits.at(i, 0)));
    }
  }
  return probs;
}

Matrix PairScorer::InferCross(const std::vector<const CompressedGnnGraph*>& gs,
                              const QueryEncodingCache& query,
                              ThreadPool* pool) const {
  return cross_.InferCrossEmbeddings(gs, query, pool);
}

Matrix PairScorer::InferCross(const std::vector<const Graph*>& gs,
                              const QueryEncodingCache& query,
                              ThreadPool* pool) const {
  return cross_.InferCrossEmbeddings(gs, query, pool);
}

}  // namespace lan
