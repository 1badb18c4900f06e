#include "lan/pair_scorer.h"

#include <cmath>

#include "common/logging.h"
#include "nn/kernels.h"

namespace lan {

PairScorer::PairScorer(int32_t num_labels, const PairScorerOptions& options)
    : num_labels_(num_labels), options_(options) {
  LAN_CHECK_GT(options_.num_heads, 0);
  Rng rng(options_.seed);
  cross_ = CrossGraphEncoder(num_labels_, options_.gnn_dims, &store_, &rng);
  if (options_.include_context_embedding) {
    context_gin_ = GinEncoder(num_labels_, options_.gnn_dims, &store_, &rng);
  }
  int32_t feature_dim = cross_.cross_dim();
  if (options_.include_context_embedding) {
    feature_dim += context_gin_.output_dim();
  }
  for (int h = 0; h < options_.num_heads; ++h) {
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
  if (options_.include_context_embedding) {
    LAN_CHECK(context != nullptr);
    features = tape->ConcatCols(features,
                                context_gin_.ForwardGraphCompressed(tape, *context));
  }
  return Heads(tape, features);
}

VarId PairScorer::ForwardRaw(Tape* tape, const Graph& g, const Graph& q,
                             const Graph* context) const {
  VarId features = cross_.Forward(tape, g, q);
  if (options_.include_context_embedding) {
    LAN_CHECK(context != nullptr);
    features =
        tape->ConcatCols(features, context_gin_.ForwardGraph(tape, *context));
  }
  return Heads(tape, features);
}

namespace {

std::vector<float> SigmoidRow(const Matrix& logits) {
  // Row 0 is contiguous: copy it out, then squash in place via the kernel
  // table (scalar at every level — see docs/kernels.md).
  std::vector<float> out(logits.data(),
                         logits.data() + static_cast<size_t>(logits.cols()));
  ActiveKernels().sigmoid(out.data(), static_cast<int64_t>(out.size()));
  return out;
}

}  // namespace

std::vector<float> PairScorer::PredictCompressed(
    const CompressedGnnGraph& g, const CompressedGnnGraph& q,
    const CompressedGnnGraph* context) const {
  Tape tape(/*inference_mode=*/true);
  const VarId logits = ForwardCompressed(&tape, g, q, context);
  return SigmoidRow(tape.value(logits));
}

std::vector<float> PairScorer::PredictRaw(const Graph& g, const Graph& q,
                                          const Graph* context) const {
  Tape tape(/*inference_mode=*/true);
  const VarId logits = ForwardRaw(&tape, g, q, context);
  return SigmoidRow(tape.value(logits));
}

Matrix PairScorer::ContextEmbedding(const CompressedGnnGraph& cg) const {
  LAN_CHECK(options_.include_context_embedding);
  return context_gin_.InferGraphEmbeddingCompressed(cg);
}

Matrix PairScorer::ContextEmbedding(const Graph& g) const {
  LAN_CHECK(options_.include_context_embedding);
  return context_gin_.InferGraphEmbedding(g);
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
    LAN_CHECK(options_.include_context_embedding);
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

std::vector<std::vector<float>> PairScorer::PredictCompressedBatch(
    const std::vector<const CompressedGnnGraph*>& gs,
    const QueryEncodingCache& query, const CompressedGnnGraph* context) const {
  const Matrix cross = cross_.InferCrossEmbeddings(gs, query);
  if (!options_.include_context_embedding) {
    return InferHeads(cross, {});
  }
  LAN_CHECK(context != nullptr);
  const Matrix ctx = context_gin_.InferGraphEmbeddingCompressed(*context);
  return InferHeads(cross, {ctx.data(), static_cast<size_t>(ctx.cols())});
}

std::vector<std::vector<float>> PairScorer::PredictRawBatch(
    const std::vector<const Graph*>& gs, const QueryEncodingCache& query,
    const Graph* context) const {
  const Matrix cross = cross_.InferCrossEmbeddings(gs, query);
  if (!options_.include_context_embedding) {
    return InferHeads(cross, {});
  }
  LAN_CHECK(context != nullptr);
  const Matrix ctx = context_gin_.InferGraphEmbedding(*context);
  return InferHeads(cross, {ctx.data(), static_cast<size_t>(ctx.cols())});
}

Matrix PairScorer::InferCross(const std::vector<const CompressedGnnGraph*>& gs,
                              const QueryEncodingCache& query) const {
  return cross_.InferCrossEmbeddings(gs, query);
}

Matrix PairScorer::InferCross(const std::vector<const Graph*>& gs,
                              const QueryEncodingCache& query) const {
  return cross_.InferCrossEmbeddings(gs, query);
}

std::vector<float> PairScorer::PredictCompressedWithContextRow(
    const CompressedGnnGraph& g, const CompressedGnnGraph& q,
    const Matrix& context_row) const {
  LAN_CHECK(options_.include_context_embedding);
  Tape tape(/*inference_mode=*/true);
  VarId features = cross_.ForwardCompressed(&tape, g, q);
  features = tape.ConcatCols(features, tape.Input(context_row));
  return SigmoidRow(tape.value(Heads(&tape, features)));
}

std::vector<float> PairScorer::PredictRawWithContextRow(
    const Graph& g, const Graph& q, const Matrix& context_row) const {
  LAN_CHECK(options_.include_context_embedding);
  Tape tape(/*inference_mode=*/true);
  VarId features = cross_.Forward(&tape, g, q);
  features = tape.ConcatCols(features, tape.Input(context_row));
  return SigmoidRow(tape.value(Heads(&tape, features)));
}

}  // namespace lan
