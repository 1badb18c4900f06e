// The reference the learned models' query-time inference is tested
// against: per-pair head probabilities from PairScorer's taped forward,
// the same graph of operations training differentiates.

#ifndef LAN_TESTS_TAPED_REFERENCE_H_
#define LAN_TESTS_TAPED_REFERENCE_H_

#include <cmath>
#include <type_traits>
#include <vector>

#include "gnn/compressed_gnn_graph.h"
#include "graph/graph.h"
#include "lan/pair_scorer.h"
#include "nn/autograd.h"

namespace lan {

/// Sigmoid head probabilities of the pair (g, q): ForwardRaw on graphs,
/// ForwardCompressed on CGs. `context` is the routing node's graph for a
/// scorer with a context embedding, null otherwise.
template <typename G>
std::vector<float> TapedProbs(const PairScorer& scorer, const G& g,
                              const G& q, const G* context = nullptr) {
  Tape tape(/*inference_mode=*/true);
  VarId logits;
  if constexpr (std::is_same_v<G, Graph>) {
    logits = scorer.ForwardRaw(&tape, g, q, context);
  } else {
    static_assert(std::is_same_v<G, CompressedGnnGraph>);
    logits = scorer.ForwardCompressed(&tape, g, q, context);
  }
  const Matrix& z = tape.value(logits);
  std::vector<float> probs;
  for (int32_t h = 0; h < z.cols(); ++h) {
    probs.push_back(1.0f / (1.0f + std::exp(-z.at(0, h))));
  }
  return probs;
}

}  // namespace lan

#endif  // LAN_TESTS_TAPED_REFERENCE_H_
